"""MPO tomography of sequentially emitted chains of photonic qubits.

Reconstructs the density matrix of an entangled qubit chain as a matrix
product operator from local correlation measurements, with full statistical
uncertainty propagation, plus a simulator of the noisy emission protocol
that generates the measurement data.
"""

from .cluster import (
    ErrorModel,
    ideal_cluster_mpo,
    noisy_cluster_model,
    stabilizer_concurrence_bound,
    stabilizer_fidelity_bound,
    stabilizer_words,
)
from .correlations import (
    PauliCorrelationSet,
    align_phases,
    correct_inefficiency,
    moments_to_zshifted,
    zshifted_to_pauli,
)
from .emission import (
    ProtocolImperfections,
    ProtocolSpec,
    build_cluster_protocol,
    emit_mpo,
)
from .entanglement import (
    MeasurementPlan,
    TwoQubitState,
    concurrence,
    default_plan,
    le_subset_estimate,
    localizable_entanglement,
    negativity,
)
from .errors import (
    CompletenessError,
    DataError,
    MpoTomoError,
    ValidationError,
)
from .fitting import (
    FitResult,
    MpoLeastSquares,
    fidelity_functional,
    gauss_newton_fit,
    propagate_covariance,
)
from .measurement import (
    MomentTable,
    synthesize_dataset,
)
from .mpo import (
    Mpo,
    apply_local_channels,
    fidelity,
    fidelity_gradient,
)
from .pauli import PauliWord
from .reconstruct import (
    build_corr_matrices,
    check_reconstructibility,
    compress,
    estimate_bond_dims,
    invert_reconstruct,
)
from .standard_form import to_standard_form

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
