"""Test oracles and the test-only library functions.

Brute-force dense oracles, independent of the chain contractions under
test.  Below them are functions of the package's objects that only tests
call: the ideal cluster MPS, exact stabilizers and excitations, a gauge
change, a random protocol, exact and pairwise LE states, exact moments,
the paper quantities that no command reports (two-qubit negativity and
concurrence, the stabilizer concurrence bound, the rank test for inversion)
and the quadrature sampler.  No pipeline command runs them, so they live
here and not in ``mpo_tomo``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mpo_tomo._validation import check_positive_int
from mpo_tomo.cluster import stabilizer_words
from mpo_tomo.correlations import (
    F_MATRIX,
    PAULI_BASIS,
    ZSHIFTED_BASIS,
    PauliCorrelationSet,
    _apply_site_map,
)
from mpo_tomo.emission import (
    ProtocolSpec,
    emission_tensor,
    emitter_basis,
    gate_process_matrix,
)
from mpo_tomo.entanglement import (
    LeResult,
    _coeffs_to_matrix,
    _wootters_excess,
    _wootters_product,
    localizable_entanglement,
    partial_transpose,
)
from mpo_tomo.errors import ValidationError
from mpo_tomo.measurement import _T1, QUAD_LETTERS, MomentTable, _lossy_correlations
from mpo_tomo.mpo import Mpo, fidelity, fidelity_gradient, left_environments, right_environments
from mpo_tomo.pauli import PAULIS, apply_site_maps
from mpo_tomo.reconstruct import _split
from mpo_tomo.standard_form import free_masks

I2 = np.eye(2, dtype=complex)

#: uniform per-qubit error probabilities used throughout: 9.8% photon loss
#: and a 4.6% phase flip (dephasing amplitude 0.092)
PAPER_EPS_AD = 0.098
PAPER_EPS_PD = 0.092


def random_mpo(n, bond, rng, scale=1.0):
    """Random real site tensors (a generic Hermitian operator, not a state)."""
    ts = [rng.normal(size=(1, 4, bond)) * scale]
    for _ in range(n - 2):
        ts.append(rng.normal(size=(bond, 4, bond)) * scale)
    ts.append(rng.normal(size=(bond, 4, 1)) * scale)
    return Mpo(ts)


def kron_all(ops) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def pauli_word_dense(letters) -> np.ndarray:
    return kron_all(PAULIS[a] for a in letters)


def dense_correlation(rho: np.ndarray, letters) -> float:
    return float(np.real(np.trace(pauli_word_dense(letters) @ rho)))


def cz_chain_state(n: int) -> np.ndarray:
    """Linear cluster state built literally: |+>^n followed by neighbour CZs."""
    psi = np.ones(2**n, dtype=complex) / np.sqrt(2**n)
    for s in range(n - 1):
        for idx in range(2**n):
            if (idx >> (n - 1 - s)) & 1 and (idx >> (n - 2 - s)) & 1:
                psi[idx] *= -1.0
    return psi


def apply_kraus_dense(rho: np.ndarray, kraus, site: int, n: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        full = kron_all(k if t == site else I2 for t in range(n))
        out += full @ rho @ full.conj().T
    return out


def loss_kraus(eps: float):
    return [
        np.array([[1, 0], [0, np.sqrt(1 - eps)]], dtype=complex),
        np.array([[0, np.sqrt(eps)], [0, 0]], dtype=complex),
    ]


def dephasing_kraus(eps_pd: float):
    p = eps_pd / 2.0
    return [np.sqrt(1 - p) * I2, np.sqrt(p) * PAULIS[3]]


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_protocol_state(unitary_gates, unitary_emissions, d: int) -> np.ndarray:
    """Literal density-matrix simulation of a gate/emission protocol.

    The emitter starts in its ground state and stays the first tensor
    factor; each emission appends a vacuum photon, applies the joint
    unitary on (emitter, new photon), and the emitter is traced out at the
    end.
    """
    n = len(unitary_gates)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    dim_ph = 1
    for s in range(n):
        full = np.kron(unitary_gates[s], np.eye(dim_ph))
        rho = full @ rho @ full.conj().T
        vac = np.zeros((2, 2), dtype=complex)
        vac[0, 0] = 1.0
        rho = np.kron(rho, vac)
        # bring the fresh photon next to the emitter, apply, put it back
        t = rho.reshape(d, dim_ph, 2, d, dim_ph, 2)
        t = np.transpose(t, (0, 2, 1, 3, 5, 4))
        m = t.reshape(2 * d * dim_ph, 2 * d * dim_ph)
        big = np.kron(unitary_emissions[s], np.eye(dim_ph))
        m = big @ m @ big.conj().T
        t = m.reshape(d, 2, dim_ph, d, 2, dim_ph)
        t = np.transpose(t, (0, 2, 1, 3, 5, 4))
        dim_ph *= 2
        rho = t.reshape(d * dim_ph, d * dim_ph)
    t = rho.reshape(d, dim_ph, d, dim_ph)
    return np.einsum("aiaj->ij", t)


def dense_localizable_entanglement(rho: np.ndarray, n: int, pair, measure: str) -> float:
    """Enumerate outcome branches with dense projectors and partial traces,
    measuring X between the 1-based ``pair`` and Z outside it."""
    r, rp = pair
    total = 0.0
    for bits in itertools.product([1, -1], repeat=n - 2):
        ops = []
        k = 0
        for s in range(1, n + 1):
            if s in pair:
                ops.append(I2)
                continue
            pauli = PAULIS[1] if r < s < rp else PAULIS[3]
            ops.append((I2 + bits[k] * pauli) / 2.0)
            k += 1
        proj = kron_all(ops)
        sub = proj @ rho @ proj
        t = sub.reshape((2,) * (2 * n))
        for s in reversed(range(n)):
            if s + 1 in pair:
                continue
            half = t.ndim // 2
            t = np.trace(t, axis1=s, axis2=s + half)
        rho2 = t.reshape(4, 4)
        w = float(np.trace(rho2).real)
        if w < 1e-14:
            continue
        state = TwoQubitState(rho2 / w, 1.0)
        total += w * (negativity(state) if measure == "negativity" else concurrence(state))
    return total


def fock_operator(letter: int, cutoff: int = 4) -> np.ndarray:
    """Quadrature observable q^0, p^0, q, p, q^2 or p^2 on a truncated mode."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(1, cutoff):
        a[m - 1, m] = np.sqrt(m)
    q = (a + a.conj().T) / np.sqrt(2)
    p = 1j * (a.conj().T - a) / np.sqrt(2)
    return [np.eye(cutoff, dtype=complex), np.eye(cutoff, dtype=complex), q, p, q @ q, p @ p][letter]


def embed_qubits_in_fock(rho: np.ndarray, n: int, cutoff: int = 4) -> np.ndarray:
    """Embed a 2^n qubit-subspace state into the n-mode Fock space."""
    big = np.zeros((cutoff**n, cutoff**n), dtype=complex)
    for i in range(2**n):
        fi = sum(((i >> (n - 1 - s)) & 1) * cutoff ** (n - 1 - s) for s in range(n))
        for j in range(2**n):
            fj = sum(((j >> (n - 1 - s)) & 1) * cutoff ** (n - 1 - s) for s in range(n))
            big[fi, fj] = rho[i, j]
    return big


def dense_moment(rho_qubits: np.ndarray, n: int, letters, cutoff: int = 4) -> float:
    """Exact multivariate quadrature moment of a qubit-subspace state."""
    big = embed_qubits_in_fock(rho_qubits, n, cutoff)
    op = kron_all(fock_operator(k, cutoff) for k in letters)
    return float(np.real(np.trace(big @ op)))


# --- conversions between MPOs and dense density matrices --------------------
# Exponential in the number of qubits: the brute-force counterparts of the
# chain contractions, refusing anything beyond MAX_DENSE_QUBITS.

MAX_DENSE_QUBITS = 12


def _check_size(n: int):
    if n > MAX_DENSE_QUBITS:
        raise ValidationError(
            f"dense representation limited to {MAX_DENSE_QUBITS} qubits, got {n}"
        )


def mpo_to_dense(mpo: Mpo) -> np.ndarray:
    """Dense 2^N x 2^N density matrix of the represented operator."""
    n = mpo.n_qubits
    _check_size(n)
    acc = np.ones((1, 1, 1), dtype=complex)
    for t in mpo.tensors:
        site_op = np.einsum("dwe,wab->deab", t, PAULIS) / 2.0
        acc = np.einsum("ijd,deab->iajbe", acc, site_op)
        dim = acc.shape[0] * acc.shape[1]
        acc = acc.reshape(dim, dim, t.shape[2])
    return acc[:, :, 0]


def dense_pauli_tensor(rho: np.ndarray) -> np.ndarray:
    """All Pauli coefficients ``<P_w>`` of a density matrix as a (4,)*N tensor."""
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim or rho.shape != (dim, dim):
        raise ValidationError(f"density matrix must be 2^N x 2^N, got {rho.shape}")
    _check_size(n)
    t = rho.reshape((2,) * (2 * n))
    # axes are (bra_1..bra_N, ket_1..ket_N); per site s contract the pair so
    # that Tr[P_w rho] = sum P_w[ket, bra] * rho[bra, ket].  Each step appends
    # the new Pauli axis at the end, yielding site order w_1..w_N.
    for s in range(n):
        t = np.tensordot(t, PAULIS, axes=([0, n - s], [2, 1]))
    coeffs = np.real(t)
    if np.max(np.abs(np.imag(t))) > 1e-10:
        raise ValidationError("input matrix is not Hermitian: complex Pauli weights")
    return coeffs


def dense_to_mpo(rho: np.ndarray, max_bond: int = 16, tol: float = 1e-12) -> Mpo:
    """Factor a dense state into an MPO by successive SVDs of its Pauli tensor.

    Exact (round trip within ~1e-12) whenever ``max_bond`` is at least the
    Pauli-tensor rank across every bipartition.
    """
    if max_bond < 1:
        raise ValidationError(f"max_bond must be >= 1, got {max_bond}")
    coeffs = dense_pauli_tensor(rho)
    n = coeffs.ndim
    tensors = []
    carry = coeffs.reshape(1, -1)
    left = 1
    for _ in range(n - 1):
        mat = carry.reshape(left * 4, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.sum(s > tol * max(s[0], 1e-300)))
        keep = max(1, min(keep, max_bond))
        tensors.append(u[:, :keep].reshape(left, 4, keep))
        carry = s[:keep, None] * vt[:keep]
        left = keep
    tensors.append(carry.reshape(left, 4, 1))
    return Mpo(tensors)


def mps_to_dense(tensors) -> np.ndarray:
    """Dense state vector of an MPS given as (D_left, 2, D_right) site tensors."""
    _check_size(len(tensors))
    acc = np.ones((1, 1), dtype=complex)
    for t in tensors:
        acc = np.einsum("id,dse->ise", acc, np.asarray(t, dtype=complex))
        acc = acc.reshape(-1, t.shape[2])
    return acc[:, 0]


def dense_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """``<psi| rho |psi>`` for a pure target state vector."""
    return float(np.real(np.conj(psi) @ rho @ psi))


def _zshifted_tensors(mpo: Mpo) -> list[np.ndarray]:
    """The site tensors with F on their Pauli index: the chain of the
    Z-shifted correlations, the fit's data basis."""
    return [np.einsum("ji,dia->dja", F_MATRIX, t) for t in mpo.tensors]


def window_columns(masks, window: int) -> dict:
    """Packed-parameter indices each window's model values can depend on.

    Returns:
        dict start -> int array: the identity-slice free entries of each
        site left of the window (site-major packing puts them first in the
        site's range), then every free entry of the window's own sites.
    """
    offsets = np.cumsum([0] + [int(m.sum()) for m in masks])
    n_ident = [int(m[:, 0, :].sum()) for m in masks]
    cols = {}
    for start in range(1, len(masks) - window + 2):
        first, end = start - 1, start - 1 + window
        parts = [np.arange(offsets[s], offsets[s] + n_ident[s]) for s in range(first)]
        parts.append(np.arange(offsets[first], offsets[end]))
        cols[start] = np.concatenate(parts)
    return cols


def dense_window_jacobian(mpo: Mpo, window: int) -> dict:
    """Reference Jacobian of every window's Z-shifted values over all packed
    parameters.

    Each window's derivatives are built column by column from one right
    sweep over the identity slices of the sites left of it and its own
    sites.  The columns of the sites left of the window are computed from
    the prefix there, not assumed zero, so this checks that standard form
    makes them vanish.  Requires standard form.

    Returns:
        dict start -> (4**window, n_free) array; the columns outside
        :func:`window_columns` are exactly zero.
    """
    masks = free_masks(mpo)
    n_free = int(sum(m.sum() for m in masks))
    tensors = _zshifted_tensors(mpo)
    ident = [t[:, 0, :] for t in tensors]
    prefix, suffix = left_environments(ident), right_environments(ident)
    site_free = [np.nonzero(m.transpose(1, 0, 2)) for m in masks]
    ident_free = [np.nonzero(m[:, 0, :]) for m in masks]
    out = {}
    for start, cols in window_columns(masks, window).items():
        first, end = start - 1, start - 1 + window
        sites = tensors[first:end]
        lefts = left_environments(sites, prefix[first])
        rights = right_environments(ident[:first] + sites, suffix[end])
        free = ident_free[:first] + site_free[first:end]
        jac = np.empty((4**window, len(cols)))
        col = 0
        for s, f in enumerate(free):
            rt = rights[s + 1]
            block = jac[:, col : col + len(f[0])]
            col += len(f[0])
            if s < first:
                x, y = f
                block[:] = rt[y].T * prefix[s][0, x]
            else:
                i, x, y = f
                lt = lefts[s - first]
                lk = (lt[:, None, x] * F_MATRIX[:, i])[:, :, None]
                block.reshape(len(lt), 4, rt.shape[1], len(i))[:] = lk * rt[y].T
        full = np.zeros((4**window, n_free))
        full[:, cols] = jac
        out[start] = full
    return out


def slab_block(slabs, masks) -> np.ndarray:
    """One window's dense Jacobian block over its own sites' free entries,
    expanded from the fit's derivative slabs.

    The column of free entry (i, x, y) of window site p holds
    ``K[w, i] E_p[(a, b), (x, y)]`` on word (a, w, b), with E_p the site's
    slab (see ``fitting._window_slabs``) and K = F the fit's basis map.  The
    slab's columns run over (x, y) at the fit's padded bond D, D² of them.

    Args:
        slabs: the window's slabs, one per site.
        masks: the free masks of the window's sites.

    Returns:
        (4**window, n_own) array, columns in packing order.
    """
    cols = []
    for p, (e, m) in enumerate(zip(slabs, masks)):
        i, x, y = np.nonzero(m.transpose(1, 0, 2))
        e = e.reshape(4**p, -1, e.shape[-1])[..., x * math.isqrt(e.shape[-1]) + y]  # (a, b, f)
        cols.append((e[:, None] * F_MATRIX[None, :, None, i]).reshape(4 * e.shape[0] * e.shape[1], len(i)))
    return np.hstack(cols)


# --- library functions that only the tests call ------------------------------
# Exact states and data of the library's own objects, which no pipeline
# command computes.  They use the package's private helpers.


def ideal_cluster_mps(n: int) -> list[np.ndarray]:
    """Bond-dimension-2 MPS of the ideal linear cluster state.

    Returns:
        site tensors of shape ``(D_left, 2, D_right)`` with boundary bonds 1.
    """
    check_positive_int(n, "n", minimum=2)
    s2 = 1.0 / np.sqrt(2.0)
    first = np.zeros((1, 2, 2))
    first[0, 0, 0] = s2
    first[0, 1, 1] = s2
    interior = np.zeros((2, 2, 2))
    interior[0, 0, 0] = s2
    interior[0, 1, 1] = s2
    interior[1, 0, 0] = s2
    interior[1, 1, 1] = -s2
    last = np.zeros((2, 2, 1))
    last[0, 0, 0] = s2
    last[0, 1, 0] = s2
    last[1, 0, 0] = s2
    last[1, 1, 0] = -s2
    if n == 2:
        return [first, last]
    return [first] + [interior] * (n - 2) + [last]


def placed(letters, start: int, n_sites: int) -> tuple[int, ...]:
    """Full-chain letter tuple of a word whose first letter sits at 1-based
    site ``start``, identities elsewhere; longer than the chain when the
    word does not fit."""
    letters = tuple(int(a) for a in letters)
    return (0,) * (start - 1) + letters + (0,) * max(n_sites - start + 1 - len(letters), 0)


def stabilizer_expectations(mpo: Mpo) -> np.ndarray:
    return np.array([mpo.correlation(w) for w in stabilizer_words(mpo.n_qubits)])


def mean_excitations(mpo: Mpo) -> np.ndarray:
    """Per-site mean excitation ``(1 - <Z_s>) / 2``."""
    return np.array(
        [(1.0 - mpo.correlation(placed((3,), s, mpo.n_qubits))) / 2.0 for s in range(1, mpo.n_qubits + 1)]
    )


def gauge_transform(mpo: Mpo, bond: int, u) -> Mpo:
    """Insert ``U U^-1`` on a bond: ``A_s <- A_s U``, ``A_{s+1} <- U^-1 A_{s+1}``.

    Args:
        bond: 1-based bond index; bond ``b`` sits between sites ``b`` and ``b+1``.
        u: invertible matrix of the bond's dimension.
    """
    n = mpo.n_qubits
    if not 1 <= bond <= n - 1:
        raise ValidationError(f"bond must be in 1..{n - 1}, got {bond}")
    u = np.asarray(u, dtype=float)
    d = mpo.bonds[bond - 1]
    if u.shape != (d, d):
        raise ValidationError(f"gauge matrix must be {d}x{d}, got {u.shape}")
    if np.linalg.cond(u) > 1e12:
        raise ValidationError("gauge matrix is numerically singular")
    uinv = np.linalg.inv(u)
    ts = list(mpo.tensors)
    ts[bond - 1] = np.einsum("dix,xy->diy", ts[bond - 1], u)
    ts[bond] = np.einsum("xy,yiz->xiz", uinv, ts[bond])
    return Mpo(ts)


def state_coefficients(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficient vector ``r_a = Tr[rho E_a]`` of an emitter density matrix."""
    return np.real(np.einsum("aij,ji->a", basis, rho))


def random_protocol(n: int, d: int, seed: int) -> ProtocolSpec:
    """Generic protocol with Haar-random gates and emissions (full bond rank)."""
    check_positive_int(n, "n", minimum=2)
    rng = np.random.default_rng(seed)
    basis = emitter_basis(d)
    gates = tuple(gate_process_matrix(haar_unitary(d, rng), basis) for _ in range(n))
    emissions = tuple(emission_tensor(haar_unitary(2 * d, rng), d, basis) for _ in range(n))
    ground = np.zeros((d, d), dtype=complex)
    ground[0, 0] = 1.0
    rho0 = state_coefficients(ground, basis)
    return ProtocolSpec(d=d, rho0=rho0, gates=gates, emissions=emissions)


def window_correlation_set(mpo: Mpo, window: int) -> PauliCorrelationSet:
    """Exact Pauli correlation windows of an MPO (all standard errors zero)."""
    corrs = mpo.window_correlations(window)
    return PauliCorrelationSet(
        n_sites=mpo.n_qubits,
        window=window,
        basis=PAULI_BASIS,
        values={s: c.copy() for s, c in corrs.items()},
        ses={s: np.zeros((4,) * window) for s in corrs},
    )


def dense_covariance(fit, dtype=np.float64) -> np.ndarray:
    """The n_par × n_par parameter covariance L·Lᵀ of a fit, from the factor
    L it keeps (``FitResult.covariance``), formed in ``dtype``."""
    factor = fit.covariance.astype(dtype)
    return factor @ factor.T


def fidelity_functional(target: Mpo):
    """Fidelity to a pure target and its per-site gradient, as a functional
    of the MPO for :func:`mpo_tomo.fitting.propagate_covariance`."""

    def run(mpo: Mpo):
        return fidelity(mpo, target), fidelity_gradient(mpo, target)

    return run


def pauli_to_zshifted(corrs: PauliCorrelationSet) -> PauliCorrelationSet:
    """Inverse of :func:`zshifted_to_pauli` (same map; F is an involution)."""
    if corrs.basis != PAULI_BASIS:
        raise ValidationError("expected pauli input")
    out_v, out_s = _apply_site_map(corrs.values, corrs.ses, [F_MATRIX] * corrs.n_sites)
    return PauliCorrelationSet(
        corrs.n_sites, corrs.window, ZSHIFTED_BASIS, out_v, out_s, dict(corrs.meta)
    )


def window_zshifted_set(mpo: Mpo, window: int) -> PauliCorrelationSet:
    """Exact Z-shifted correlation windows of an MPO, the fit's data basis
    (all standard errors zero)."""
    return pauli_to_zshifted(window_correlation_set(mpo, window))


def post_measurement_state(mpo: Mpo, pair, outcomes) -> TwoQubitState:
    """Unnormalized two-qubit state after projecting all other sites, X
    between the 1-based ``pair`` and Z outside it, one site at a time.

    The weight equals the probability of the outcome string; weights over
    all 2^(N-2) outcome strings sum to the trace of the MPO.
    """
    r, rp = pair
    n = mpo.n_qubits
    outcomes = list(outcomes)
    if len(outcomes) != n - 2:
        raise ValidationError(f"need {n - 2} outcomes, got {len(outcomes)}")
    if any(m not in (1, -1) for m in outcomes):
        raise ValidationError("outcomes must be +1 or -1")
    signs = iter(outcomes)
    # (open Pauli indices of the pair so far, right bond)
    env = np.ones((1, 1))
    for s, t in enumerate(mpo.tensors, 1):
        if s in pair:
            env = np.einsum("px,xay->pay", env, t).reshape(-1, t.shape[2])
            continue
        v = np.zeros(4)
        v[0] = 0.5
        v[1 if r < s < rp else 3] = 0.5 * next(signs)
        env = np.einsum("px,a,xay->py", env, v, t)
    c = env.reshape(4, 4)
    return TwoQubitState(matrix=_coeffs_to_matrix(c), weight=float(c[0, 0]))


def pairwise_le_matrix(mpo: Mpo, measure: str = "negativity") -> dict[tuple[int, int], LeResult]:
    """Localizable entanglement for every pair."""
    n = mpo.n_qubits
    return {
        (r, rp): localizable_entanglement(mpo, (r, rp), measure)
        for r in range(1, n)
        for rp in range(r + 1, n + 1)
    }


def moment_word_string(word) -> str:
    return "".join(QUAD_LETTERS[k] for k in word)


def exact_local_moments(mpo: Mpo, window: int, eta: float = 1.0) -> MomentTable:
    """Exact quadrature moments of every window, measured at efficiency eta.

    The state is pushed through a per-site loss channel of strength
    ``1 - eta`` before the quadrature moments are evaluated; standard errors
    are zero.
    """
    corrs = _lossy_correlations(mpo, window, eta)
    values = {s: apply_site_maps(c, [_T1.T] * window) for s, c in corrs.items()}
    ses = {s: np.zeros((6,) * window) for s in corrs}
    return MomentTable(mpo.n_qubits, window, values, ses, shots=0)


# --- paper quantities that no pipeline command reports ------------------------
# Reference implementations the tests compare the pipeline against: the
# two-qubit monotones on one normalized state, the stabilizer bound on the
# localizable concurrence, and the rank test for inversion.


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix with an explicit normalization weight.

    ``matrix`` integrates to ``weight`` (the branch probability for
    post-measurement states); ``weight == 1`` for normalized states.
    """

    matrix: np.ndarray
    weight: float


def _check_normalized(state: TwoQubitState):
    if abs(np.trace(state.matrix).real - 1.0) > 1e-8:
        raise ValidationError("state is not normalized to unit trace")


def negativity(state: TwoQubitState) -> float:
    """Half the trace-norm excess of the partial transpose: 0.5 for Bell states."""
    _check_normalized(state)
    ev = np.linalg.eigvalsh(partial_transpose(state.matrix))
    return float((np.abs(ev).sum() - 1.0) / 2.0)


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence: 1 for Bell states, 0 for separable states."""
    _check_normalized(state)
    raw = _wootters_excess(np.linalg.eigvals(_wootters_product(state.matrix)[1]))
    return float(max(0.0, raw))


def stabilizer_concurrence_bound(stab_values, k: int) -> tuple[float, float]:
    """Lower bound on the localizable concurrence across ``k`` bonds.

    Returns:
        (clamped, raw) where raw = ``1 - (k+1) (1 - min <S_r>)`` and clamped
        floors the reported value at 0.
    """
    check_positive_int(k, "k", minimum=1)
    raw = 1.0 - (k + 1) * (1.0 - float(np.min(np.asarray(stab_values, dtype=float))))
    return max(0.0, raw), raw


@dataclass
class ReconstructibilityReport:
    l_ranks: dict[int, int]
    r_ranks: dict[int, int]
    l_expected: dict[int, int]
    r_expected: dict[int, int]
    reconstructible: bool


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def check_reconstructibility(truth: Mpo, L: int = 5) -> ReconstructibilityReport:
    """Rank test of the boundary-contracted products required for inversion.

    The chain is reconstructible from L-qubit correlations iff every left
    product L_s and right product R_s has rank equal to the bond dimension it
    factorizes through.
    """
    if L not in (3, 4, 5):
        raise ValidationError(f"L must be 3, 4 or 5, got {L}")
    n = truth.n_qubits
    ts = truth.tensors
    ident = [t[:, 0, :] for t in ts]
    prefix = left_environments(ident)
    suffix = right_environments(ident)

    ell, r = _split(L)
    l_ranks, l_expected = {}, {}
    for s in range(3 - ell, n - ell):
        sites = ts[s - 1 : s - 1 + ell]
        l_ranks[s] = _rank(left_environments(sites, prefix[s - 1])[-1])
        l_expected[s] = sites[-1].shape[2]
    r_ranks, r_expected = {}, {}
    for s in range(3, n):
        sites = ts[s - 1 : s - 1 + r]
        r_ranks[s] = _rank(right_environments(sites, suffix[s - 1 + r])[0])
        r_expected[s] = sites[0].shape[0]
    ok = all(l_ranks[s] == l_expected[s] for s in l_ranks) and all(
        r_ranks[s] == r_expected[s] for s in r_ranks
    )
    return ReconstructibilityReport(l_ranks, r_ranks, l_expected, r_expected, ok)


# --- quadrature sampling --------------------------------------------------

_GRID_POINTS = 2**14
_GRID_HALF_WIDTH = 6.0


def _sampling_grids():
    x = np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS)
    dx = x[1] - x[0]
    psi0 = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    psi1 = np.sqrt(2.0) * x * psi0
    dens = np.stack([psi0 * psi0, psi0 * psi1, psi1 * psi1])
    cums = np.cumsum(dens, axis=1) * dx
    return x, dx, dens, cums


_GRID_X, _GRID_DX, _GRID_DENS, _GRID_CUMS = _sampling_grids()


def _sample_pure(psi: np.ndarray, bases, rng) -> np.ndarray:
    """Sequential conditional quadrature sampling of one pure state.

    ``psi`` has shape (n_shots, 2**modes); returns (n_shots, modes) samples.
    """
    n_modes = len(bases)
    shots = psi.shape[0]
    out = np.empty((shots, n_modes))
    state = psi.astype(complex)
    for s, basis in enumerate(bases):
        rest = 2 ** (n_modes - s - 1)
        state = state.reshape(shots, 2, rest)
        sigma00 = np.einsum("sr,sr->s", state[:, 0], np.conj(state[:, 0])).real
        sigma11 = np.einsum("sr,sr->s", state[:, 1], np.conj(state[:, 1])).real
        sigma01 = np.einsum("sr,sr->s", state[:, 0], np.conj(state[:, 1]))
        if basis == "q":
            cross = 2.0 * sigma01.real
        elif basis == "p":
            cross = -2.0 * sigma01.imag
        else:
            raise ValidationError(f"basis must be 'q' or 'p', got {basis!r}")
        coef = np.stack([sigma00, cross, sigma11])  # (3, shots)
        total = coef[0] + coef[2]
        target = rng.random(shots) * total
        lo = np.zeros(shots, dtype=np.int64)
        hi = np.full(shots, _GRID_POINTS - 1, dtype=np.int64)
        for _ in range(15):
            mid = (lo + hi) // 2
            fmid = np.einsum("cs,cs->s", coef, _GRID_CUMS[:, mid])
            takes = fmid < target
            lo = np.where(takes, mid, lo)
            hi = np.where(takes, hi, mid)
        flo = np.einsum("cs,cs->s", coef, _GRID_CUMS[:, lo])
        fhi = np.einsum("cs,cs->s", coef, _GRID_CUMS[:, hi])
        frac = np.clip((target - flo) / np.where(fhi > flo, fhi - flo, 1.0), 0.0, 1.0)
        x = _GRID_X[lo] + frac * (_GRID_X[hi] - _GRID_X[lo])
        out[:, s] = x
        psi0x = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
        psi1x = np.sqrt(2.0) * x * psi0x
        if basis == "p":
            phi0, phi1 = psi0x, 1j * psi1x  # conj(-i psi1) = i psi1
        else:
            phi0, phi1 = psi0x, psi1x
        state = phi0[:, None] * state[:, 0] + phi1[:, None] * state[:, 1]
    return out


def sample_quadratures(rho: np.ndarray, bases, shots: int, seed: int) -> np.ndarray:
    """Draw joint quadrature samples from a density matrix of qubit modes.

    Args:
        rho: 2^M x 2^M density matrix over M pulse modes, each confined to
            the {|0>, |1>} Fock subspace (M <= 8).
        bases: per-mode quadrature choice, each 'q' or 'p'.
        shots: number of samples.
        seed: RNG seed; output is deterministic given the seed.

    Returns:
        array of shape (shots, M) of quadrature values, sampled from the
        exact joint density by sequential conditional inverse-CDF sampling.
    """
    rho = np.asarray(rho, dtype=complex)
    n_modes = len(bases)
    if n_modes > 8:
        raise ValidationError("sampling oracle limited to 8 modes")
    if rho.shape != (2**n_modes, 2**n_modes):
        raise ValidationError(
            f"density matrix shape {rho.shape} does not match {n_modes} modes"
        )
    check_positive_int(shots, "shots", minimum=1)
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals.real, 0.0, None)
    weights = evals / np.sum(evals)
    counts = rng.multinomial(shots, weights)
    samples = np.empty((shots, n_modes))
    pos = 0
    chunk = max(1, 2**21 // 2**n_modes)
    for k, n_k in enumerate(counts):
        if n_k == 0:
            continue
        phi = evecs[:, k]
        done = 0
        while done < n_k:
            take = min(chunk, n_k - done)
            psi = np.broadcast_to(phi, (take, phi.size)).copy()
            samples[pos : pos + take] = _sample_pure(psi, bases, rng)
            pos += take
            done += take
    # interleave the mixture components so rows are exchangeable
    return samples[rng.permutation(shots)]
