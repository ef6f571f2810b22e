import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _oracles import PAPER_EPS_AD, PAPER_EPS_PD

from mpo_tomo.cluster import ErrorModel, ideal_cluster_mpo, noisy_cluster_model


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def cluster5():
    return ideal_cluster_mpo(5)


@pytest.fixture(scope="session")
def cluster6():
    return ideal_cluster_mpo(6)


@pytest.fixture(scope="session")
def noisy5():
    return noisy_cluster_model(5, ErrorModel.uniform(5, PAPER_EPS_AD, PAPER_EPS_PD))


@pytest.fixture(scope="session")
def noisy6():
    return noisy_cluster_model(6, ErrorModel.uniform(6, 0.09, 0.06))


@pytest.fixture(scope="session")
def noisy5_fit_chain(noisy5):
    """``fit_chain`` of a synthetic 5-qubit dataset: bond estimate,
    inversion and fit, reused across tests."""
    from mpo_tomo.correlations import moments_to_zshifted
    from mpo_tomo.fitting import fit_chain
    from mpo_tomo.measurement import synthesize_dataset

    table = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=11)
    return fit_chain(moments_to_zshifted(table))


@pytest.fixture(scope="session")
def fitted_noisy5(noisy5_fit_chain):
    """The converged fit of :func:`noisy5_fit_chain`."""
    fit = noisy5_fit_chain[2]
    assert fit.converged
    return fit


@pytest.fixture
def reject_every_gn_trial(monkeypatch):
    """Make every Gauss-Newton trial step fail: each value-only model
    evaluation (the trial probes and candidates) returns shifted values.  The
    starting SSE comes from the first JᵀWJ assembly, which is left as is."""
    from mpo_tomo import fitting

    real = fitting._window_values_jacobian

    def shifted(point, omega=None):
        values, hess = real(point, omega)
        if omega is None:
            values = values + 1.0
        return values, hess

    monkeypatch.setattr(fitting, "_window_values_jacobian", shifted)
