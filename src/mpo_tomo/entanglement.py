"""Localizable entanglement of an MPO under the cluster-state measurement plan.

Measuring every qubit except a pair (r, r'), those between the pair in X and
those outside it in Z (Popp et al., PRA 71, 042306 (2005)), collapses the
chain into an ensemble of two-qubit states; the localizable entanglement is
the outcome-weighted average of a two-qubit entanglement monotone over the
ensemble, evaluated here as a sum over unnormalized branch states.  Because
the bases are fixed (no maximization), the reported value is a lower bound
of the textbook definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive_int
from .errors import ValidationError
from .mpo import Mpo, left_environments, left_environments_vjp
from .pauli import PAULIS

EXACT_ENUMERATION_LIMIT = 15

# the outcome vectors (1, +b)/2 and (1, -b)/2 of a measurement along X and Z
_X_OUTCOMES, _Z_OUTCOMES = (np.array([[0.5, *b], [0.5, *-b]]) for b in 0.5 * np.eye(3)[[0, 2]])


def _outcome_maps(mpo: Mpo, pair: tuple[int, int]):
    """Each site's outcome vectors, its map with the outcome index open, and
    the 0-based measured sites in chain order.

    A site between the 1-based pair (r, r') is measured in X, one outside
    it in Z; its map is the ``(D_l, 2, D_r)`` tensor its two outcome
    vectors make of the site.  Each site of the unmeasured pair keeps its
    ``(D_l, 4, D_r)`` Pauli index, the identity as outcome vectors.
    """
    r, rp = pair
    if not 1 <= r < rp <= mpo.n_qubits:
        raise ValidationError(f"pair {pair} must satisfy 1 <= r < r' <= N={mpo.n_qubits}")
    vectors, maps, measured = [], [], []
    for s, t in enumerate(mpo.tensors, 1):
        if s in (r, rp):
            vectors.append(np.eye(4))
            maps.append(t)
            continue
        v = _X_OUTCOMES if r < s < rp else _Z_OUTCOMES
        vectors.append(v)
        maps.append(np.einsum("oa,xay->xoy", v, t))
        measured.append(s - 1)
    return vectors, maps, measured


_STRING_BLOCK = 128


def _string_coefficients(maps, measured, strings) -> np.ndarray:
    """Pauli coefficients (S, 4, 4) of the pair for each outcome string.

    Bit ``k`` of ``strings[i]`` set means the ``k``-th measured site gave -1.
    Each block of ``_STRING_BLOCK`` strings, so that the environments the
    sweep holds stay small, goes through one batched left sweep shaped
    (block, open pair indices, D): a measured site passes each string its
    outcome's slice of the map, (block, D_l, 1, D_r), and a site of the
    pair its map, shared by every string.
    """
    strings = np.asarray(strings, dtype=np.int64)
    bit = {s: k for k, s in enumerate(measured)}
    out = []
    for block in np.split(strings, range(_STRING_BLOCK, strings.size, _STRING_BLOCK)):
        block_maps = (
            m.transpose(1, 0, 2)[(block >> bit[s]) & 1, :, None] if s in bit else m
            for s, m in enumerate(maps)
        )
        out.append(left_environments(block_maps, np.ones((block.size, 1, 1)))[-1])
    return np.concatenate(out).reshape(-1, 4, 4)


def _coeffs_to_matrix(c: np.ndarray) -> np.ndarray:
    """Two-qubit density matrices of Pauli coefficients ``(..., 4, 4)``."""
    rho = np.einsum("...ij,iab,jcd->...acbd", c, PAULIS, PAULIS)
    return rho.reshape(c.shape[:-2] + (4, 4)) / 4.0


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose of the second qubit in the computational basis."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


_YY = np.kron(PAULIS[2], PAULIS[2])


def _wootters_product(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spin flip ``(Y⊗Y) rho* (Y⊗Y)`` of density matrices ``(..., 4, 4)``
    and R, ``rho`` times its spin flip."""
    flipped = _YY @ np.conj(rho) @ _YY
    return flipped, rho @ flipped


def _wootters_excess(mu: np.ndarray) -> np.ndarray:
    """λ1 - λ2 - λ3 - λ4 of the eigenvalues ``mu`` of R, with λ = sqrt(mu)
    clamped at zero and in descending order."""
    lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)), axis=-1)
    return lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]


# --- branch values on unnormalized coefficient matrices ----------------------

# B_ij = σ_i⊗σ_j / 4, the state of the coefficient c_ij, as [i, j] -> 4x4
_PAIR_BASIS = _coeffs_to_matrix(np.eye(16).reshape(16, 4, 4)).reshape(4, 4, 4, 4)
_PT_KERNELS = np.stack([partial_transpose(b) for b in _PAIR_BASIS.reshape(16, 4, 4)]).reshape(
    4, 4, 4, 4
)
# the spin flip of B_ij is t_i t_j B_ij with t = (1, -1, -1, -1)
_FLIP_SIGNS = np.outer([1, -1, -1, -1], [1, -1, -1, -1])

# eigenvalue magnitude, relative to the largest, at or below which a branch's
# analytic gradient is undefined (|ν| or sqrt(μ) has its kink at zero)
_ZERO_EIG_TOL = 1e-10


def _kernel_traces(kernels: np.ndarray, m: np.ndarray) -> np.ndarray:
    """tr(K_ij m) of matrices ``m`` (B, 4, 4) for kernels [i, j] -> 4x4."""
    return np.einsum("ijab,nba->nij", kernels, m)


def _transposed_pair(c: np.ndarray) -> np.ndarray:
    """Partial transposes of the states with coefficients ``(..., 4, 4)``."""
    return np.einsum("...ij,ijab->...ab", c, _PT_KERNELS)


def _branch_terms(c: np.ndarray, measure: str, want_gradient: bool):
    """Branch values of stacked coefficient matrices ``c`` (B, 4, 4).

    Each branch is decomposed once, for its eigenvalues only when no
    gradient is asked for.  Negativity: for an unnormalized branch
    ``P * N(rho/P) = (sum |ν| - tr rho) / 2`` over the eigenvalues ν of the
    Hermitian partial transpose ``U diag(ν) U+``; the gradient of sum |ν| is
    ``Re tr(K_ij U sign(ν) U+)`` for the kernels K_ij of ``_PT_KERNELS``,
    smooth at degenerate spectra.  Concurrence max(0, λ1 - λ2 - λ3 - λ4)
    scales linearly with the state, so it is evaluated on the unnormalized
    state, with λ = sqrt(μ) from the eigenvalues μ of R = ρρ̃ (ρ̃ the spin
    flip).  λ1 - λ2 - λ3 - λ4 ≤ 0 holds for every separable branch, not
    only for non-positive ones, and such a branch's value and gradient are
    0.  Where it is > 0 the gradient is sum_k w_k dμ_k / (2 λ_k), with
    w = +1 on the largest λ and -1 on the others, and dμ_k = y_k (B_ij ρ̃ + t_ij ρ B_ij) x_k for the
    right eigenvectors x of R and y = x^-1.  A fallback branch, where the
    formula is undefined, has no gradient, and its rows are NaN: it has a
    partial-transpose eigenvalue or a μ at zero, or a complex μ, all within
    ``_ZERO_EIG_TOL`` of the largest eigenvalue's magnitude.

    Returns:
        (values (B,), d(value)/dc (B, 4, 4) or None, mask (B,) of the
        fallback branches).
    """
    grad = np.zeros(c.shape) if want_gradient else None
    fallback = np.zeros(len(c), dtype=bool)
    if measure == "negativity":
        pt = _transposed_pair(c)
        nu, u = np.linalg.eigh(pt) if want_gradient else (np.linalg.eigvalsh(pt), None)
        values = (np.abs(nu).sum(-1) - c[:, 0, 0]) / 2.0
        if want_gradient:
            mag = np.abs(nu)
            fallback = np.any(mag <= _ZERO_EIG_TOL * mag.max(-1, keepdims=True), axis=-1)
            sign = (u * np.sign(nu)[:, None, :]) @ np.conj(u).swapaxes(-1, -2)
            grad[:] = 0.5 * np.real(_kernel_traces(_PT_KERNELS, sign))
            grad[:, 0, 0] -= 0.5
            grad[fallback] = np.nan
    elif measure == "concurrence":
        rho = _coeffs_to_matrix(c)
        flipped, r = _wootters_product(rho)
        mu, x = np.linalg.eig(r) if want_gradient else (np.linalg.eigvals(r), None)
        raw = _wootters_excess(mu)
        values = np.maximum(raw, 0.0)
        if want_gradient:
            top = _ZERO_EIG_TOL * np.abs(mu).max(-1, keepdims=True)
            undefined = np.any((mu.real <= top) | (np.abs(mu.imag) > top), axis=-1)
            fallback = (raw > 0.0) & undefined
            smooth = (raw > 0.0) & ~undefined
            lam = np.sqrt(mu[smooth].real)
            w = np.where(np.arange(4) == lam.argmax(-1)[:, None], 1.0, -1.0)
            p = (x[smooth] * (w / (2.0 * lam))[:, None, :]) @ np.linalg.inv(x[smooth])
            dmu = _kernel_traces(_PAIR_BASIS, flipped[smooth] @ p)
            dmu += _FLIP_SIGNS * _kernel_traces(_PAIR_BASIS, p @ rho[smooth])
            grad[smooth] = np.real(dmu)
            grad[fallback] = np.nan
    else:
        raise ValidationError(f"unknown measure {measure!r}")
    return values, grad, fallback


@dataclass
class LeResult:
    """Localizable entanglement estimate.

    ``gradient`` is the derivative of ``value`` by every site tensor of the
    MPO, for propagating a parameter SE
    (:func:`mpo_tomo.fitting.propagate_joint`); it is None for a subset
    estimate and when any branch is a fallback branch.  ``se_sampling`` is
    nonzero only for subset estimates.  ``fallback_branches`` counts the
    branches whose value has no derivative (see :func:`_branch_terms`).
    """

    value: float
    gradient: list | None = field(repr=False)
    se_sampling: float
    branches_evaluated: int
    pair: tuple[int, int]
    fallback_branches: int = 0


def _enumerate_branches(mpo, pair, measure):
    """Every outcome string's branch value, as one tree contraction.

    One left sweep over the outcome maps keeps every outcome index open, so
    the outcome strings share their prefixes; the last environment, with the
    pair's two axes moved last, stacks every string's coefficients.  Branch
    ``i`` is the string whose bit ``k`` set means the ``k``-th measured site
    gave -1.  The gradient runs that sweep in reverse from every branch's
    d(value)/dc (:func:`mpo_tomo.mpo.left_environments_vjp`).

    Returns:
        (branch values (2^(N-2),), per-site gradient of their sum, or None
        with a fallback branch, number of fallback branches).
    """
    vectors, maps, measured = _outcome_maps(mpo, pair)
    lefts = left_environments(maps)
    open_dims = [m.shape[1] for m in maps]
    # the last measured site's bit varies slowest
    order = measured[::-1] + [r - 1 for r in pair]
    c = lefts[-1].reshape(open_dims).transpose(order).reshape(-1, 4, 4)
    values, dvdc, fallback = _branch_terms(c, measure, True)
    n_fallback = int(fallback.sum())
    # a fallback branch has no derivative, so neither has the branch sum
    if n_fallback:
        return values, None, n_fallback
    w = dvdc.reshape([open_dims[s] for s in order]).transpose(np.argsort(order))
    gmaps, _ = left_environments_vjp(maps, lefts, w.reshape(-1, 1))
    grads = [np.einsum("oa,xoy->xay", v, g) for v, g in zip(vectors, gmaps)]
    return values, grads, 0


def localizable_entanglement(mpo: Mpo, pair: tuple[int, int], measure: str = "negativity") -> LeResult:
    """Exact localizable entanglement by enumeration of all outcome branches,
    with the gradient of the value by the MPO's site tensors.

    Args:
        mpo: state to analyze (N <= 15; larger chains must use
            :func:`le_subset_estimate`).
        pair: the unmeasured 1-based sites (r, r'), r < r'.
        measure: "negativity" or "concurrence".
    """
    if mpo.n_qubits > EXACT_ENUMERATION_LIMIT:
        raise ValidationError(
            f"exact enumeration limited to N <= {EXACT_ENUMERATION_LIMIT}; "
            "use le_subset_estimate"
        )
    values, grad, fallback = _enumerate_branches(mpo, pair, measure)
    return LeResult(
        value=float(values.sum()),
        gradient=grad,
        se_sampling=0.0,
        branches_evaluated=values.size,
        pair=pair,
        fallback_branches=fallback,
    )


def le_subset_estimate(
    mpo: Mpo,
    pair: tuple[int, int],
    measure: str = "negativity",
    samples: int = 2**13,
    seed: int = 0,
) -> LeResult:
    """Unbiased random-subset estimate of the branch sum for long chains.

    Draws ``samples`` outcome branches uniformly without replacement and
    rescales their sum by (number of branches) / samples.  The sampling SE
    comes from the sample variance of the terms, with the finite-population
    correction so that full enumeration reports zero.
    """
    samples = check_positive_int(samples, "samples", minimum=1)
    _, maps, measured = _outcome_maps(mpo, pair)
    total = 2 ** len(measured)
    if samples > total:
        raise ValidationError(f"samples {samples} exceeds {total} branches")
    rng = np.random.default_rng(seed)
    indices = np.arange(total) if samples == total else rng.choice(total, size=samples, replace=False)
    terms, _, _ = _branch_terms(_string_coefficients(maps, measured, indices), measure, False)
    fpc = np.sqrt(1.0 - samples / total)
    se = total * np.std(terms, ddof=1) / np.sqrt(samples) * fpc if samples > 1 else np.inf
    return LeResult(
        value=float(total / samples * terms.sum()),
        gradient=None,
        se_sampling=float(se),
        branches_evaluated=int(samples),
        pair=pair,
    )
