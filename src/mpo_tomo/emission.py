"""Sequential-emission protocol simulator.

The emitter (a d-level system, 2 <= d <= 4) is tracked as a real coefficient
vector in a Hermitian operator basis with ``E_0 = I`` and ``Tr[E_a E_b] =
d delta_ab``.  A protocol alternates emitter gates (d^2 x d^2 process
matrices) with photon emissions (d^2 x 4 x d^2 process tensors whose photon
input is pre-contracted with the vacuum); contracting each gate-emission
group yields one MPO site tensor, so the emitted chain has bond dimension at
most d^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive_int, check_process_matrix, check_real_array
from .errors import ValidationError
from .mpo import Mpo
from .pauli import PAULIS


def emitter_basis(d: int) -> np.ndarray:
    """Hermitian operator basis for a d-level emitter.

    Element 0 is the identity; the rest are traceless and mutually orthogonal
    with ``Tr[E_a E_b] = d delta_ab`` (the Pauli normalization).  For d = 2
    this is exactly the Pauli basis.
    """
    if d == 2:
        return PAULIS.copy()
    if d not in (3, 4):
        raise ValidationError(f"emitter dimension must be 2, 3 or 4, got {d}")
    ops = [np.eye(d, dtype=complex)]
    # generalized Gell-Mann construction, rescaled to Tr[E^2] = d
    scale = np.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            ops.append(scale * sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            ops.append(scale * asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        diag = diag / np.sqrt(np.sum(diag**2) / d)
        ops.append(np.diag(diag).astype(complex))
    return np.stack(ops)


def gate_process_matrix(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """d^2 x d^2 transfer matrix ``G[a, b] = Tr[E_a U E_b U^dag] / d``."""
    d = u.shape[0]
    transformed = np.einsum("ij,bjk,lk->bil", u, basis, np.conj(u))
    return np.real(np.einsum("aij,bji->ab", basis, transformed)) / d


def emission_tensor(u: np.ndarray, d: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Process tensor of a joint emitter-photon unitary with a vacuum photon.

    Args:
        u: unitary on the emitter (x) photon space, dimension 2d x 2d, with
            the emitter as the first tensor factor.
        d: emitter dimension.

    Returns:
        array ``E[b_in, i, a_out]`` of shape (d^2, 4, d^2) mapping emitter
        coefficients to joint (photon Pauli, emitter) coefficients.
    """
    basis = emitter_basis(d) if basis is None else basis
    if u.shape != (2 * d, 2 * d):
        raise ValidationError(f"emission unitary must be {2 * d}x{2 * d}, got {u.shape}")
    vac = np.zeros((2, 2), dtype=complex)
    vac[0, 0] = 1.0
    out = np.zeros((d * d, 4, d * d))
    for b in range(d * d):
        inp = np.kron(basis[b], vac)
        sigma = u @ inp @ np.conj(u).T
        # c[i, a] = Tr[(E_a x P_i) sigma] / d
        sig = sigma.reshape(d, 2, d, 2)
        out[b] = np.real(np.einsum("aij,pkl,jlik->pa", basis, PAULIS, sig)) / d
    return out


def apply_photon_channel(em: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Contract a 4x4 process matrix with the photon axis of an emission tensor."""
    return np.einsum("ij,bja->bia", np.asarray(channel, dtype=float), em)


@dataclass(frozen=True)
class ProtocolSpec:
    """Alternating gate/emission sequence generating an n-photon chain.

    Attributes:
        d: emitter dimension.
        rho0: initial emitter coefficient vector (length d^2).
        gates: per-step d^2 x d^2 emitter process matrices G_1 .. G_n.
        emissions: per-step d^2 x 4 x d^2 emission tensors E_1 .. E_n.
    """

    d: int
    rho0: np.ndarray
    gates: tuple = field(repr=False)
    emissions: tuple = field(repr=False)

    def __post_init__(self):
        dd = self.d * self.d
        object.__setattr__(self, "rho0", check_real_array(self.rho0, "rho0", (dd,)))
        gs = tuple(check_process_matrix(g, dim=dd) for g in self.gates)
        es = tuple(check_real_array(e, "emission", (dd, 4, dd)) for e in self.emissions)
        if len(gs) != len(es) or not gs:
            raise ValidationError("need one gate per emission, at least one step")
        object.__setattr__(self, "gates", gs)
        object.__setattr__(self, "emissions", es)

    @property
    def n_photons(self) -> int:
        return len(self.gates)


def emit_mpo(protocol: ProtocolSpec) -> Mpo:
    """Contract a protocol into the MPO of the emitted photon chain.

    Each step contributes one site tensor ``A[b, i, a] = sum_g Em[g, i, a]
    G[g, b]``; the first site absorbs the initial emitter vector and the last
    site takes the identity component of the emitter (partial trace).
    """
    sites = []
    n = protocol.n_photons
    for s in range(n):
        step = np.einsum("gia,gb->bia", protocol.emissions[s], protocol.gates[s])
        if s == 0:
            step = np.einsum("bia,b->ia", step, protocol.rho0)[None, :, :]
        if s == n - 1:
            step = step[..., 0][..., None]
        sites.append(step)
    return Mpo(sites)


# --- the linear-cluster generation protocol -------------------------------


def _ry(theta: float) -> np.ndarray:
    return np.array(
        [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
    )
_CNOT_EP = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)  # emitter controls, photon targets (emitter is the first factor)
_CNOT_PE = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

#: conditional emission x|g> + y|e>  ->  x|e>|0> + y|g>|1>
CONDITIONAL_EMISSION = np.kron(_X, np.eye(2)) @ _CNOT_EP
#: state transfer x|g> + y|e>  ->  |g> (x|0> + y|1>)
TRANSFER_EMISSION = _CNOT_PE @ _CNOT_EP


@dataclass(frozen=True)
class ProtocolImperfections:
    """Coherent and incoherent deviations from the ideal cluster protocol.

    Attributes:
        rotation_offsets: per-step additive offsets to the rotation angles.
        emitter_channels: per-step 4x4 process matrices applied to the
            emitter after its rotation (None entries are skipped).
        photon_channels: per-step 4x4 process matrices applied to the freshly
            emitted photon (None entries are skipped).
    """

    rotation_offsets: tuple = ()
    emitter_channels: tuple = ()
    photon_channels: tuple = ()


def build_cluster_protocol(
    n: int, imperfections: ProtocolImperfections | None = None
) -> ProtocolSpec:
    """Protocol generating an n-qubit linear cluster state with a qubit emitter.

    Each of the first n-1 cycles rotates the emitter by pi/2 about Y and
    performs a conditional emission; the final cycle rotates and transfers
    the leftover emitter excitation into the last photon.  The rotation sense
    alternates (+pi/2 first, -pi/2 afterwards) so that the ideal protocol
    reproduces the standard linear cluster state exactly.
    """
    check_positive_int(n, "n", minimum=2)
    imp = imperfections or ProtocolImperfections()
    offsets = np.zeros(n)
    if len(imp.rotation_offsets):
        off = np.asarray(imp.rotation_offsets, dtype=float)
        if off.shape != (n,):
            raise ValidationError(f"rotation_offsets must have length {n}")
        offsets = off
    basis = emitter_basis(2)
    gates = []
    emissions = []
    for s in range(n):
        theta = (np.pi / 2 if s == 0 else -np.pi / 2) + offsets[s]
        g = gate_process_matrix(_ry(theta), basis)
        if s < len(imp.emitter_channels) and imp.emitter_channels[s] is not None:
            g = np.asarray(imp.emitter_channels[s], dtype=float) @ g
        u = CONDITIONAL_EMISSION if s < n - 1 else TRANSFER_EMISSION
        em = emission_tensor(u, 2, basis)
        if s < len(imp.photon_channels) and imp.photon_channels[s] is not None:
            em = apply_photon_channel(em, imp.photon_channels[s])
        gates.append(g)
        emissions.append(em)
    rho0 = np.array([1.0, 0.0, 0.0, 1.0])  # emitter ground state |g><g|
    return ProtocolSpec(d=2, rho0=rho0, gates=tuple(gates), emissions=tuple(emissions))
