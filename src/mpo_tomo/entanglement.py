"""Localizable entanglement of an MPO under projective measurement plans.

Measuring every qubit except a chosen pair collapses the chain into an
ensemble of two-qubit states; the localizable entanglement is the
outcome-weighted average of a two-qubit entanglement monotone over the
ensemble, evaluated here as a sum over unnormalized branch states.  Because
the measurement bases are fixed (no maximization), the reported value is a
lower bound of the textbook definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive_int
from .errors import ValidationError
from .mpo import Mpo, left_environments, right_environments
from .pauli import PAULIS
from .standard_form import pack

EXACT_ENUMERATION_LIMIT = 15


@dataclass(frozen=True)
class MeasurementPlan:
    """Fixed projective bases for all qubits except one unmeasured pair.

    Attributes:
        pair: 1-based sites (r, r') left unmeasured, r < r'.
        bases: mapping site -> 'X' | 'Z' | Bloch 3-vector for every other site.
    """

    pair: tuple[int, int]
    bases: dict = field(repr=False)

    def __post_init__(self):
        r, rp = self.pair
        if not r < rp:
            raise ValidationError(f"pair must satisfy r < r', got {self.pair}")

    def basis_vector(self, site: int) -> np.ndarray:
        b = self.bases[site]
        if isinstance(b, str):
            if b.upper() == "X":
                return np.array([1.0, 0.0, 0.0])
            if b.upper() == "Z":
                return np.array([0.0, 0.0, 1.0])
            raise ValidationError(f"unknown basis {b!r} at site {site}")
        v = np.asarray(b, dtype=float)
        if v.shape != (3,) or not np.isclose(np.linalg.norm(v), 1.0, atol=1e-9):
            raise ValidationError(f"basis at site {site} must be a unit Bloch vector")
        return v

    def validate(self, n_sites: int):
        r, rp = self.pair
        if not (1 <= r < rp <= n_sites):
            raise ValidationError(f"pair {self.pair} out of range for N={n_sites}")
        for s in range(1, n_sites + 1):
            if s in self.pair:
                continue
            if s not in self.bases:
                raise ValidationError(f"no measurement basis for site {s}")
            self.basis_vector(s)


def default_plan(n_sites: int, r: int, rp: int) -> MeasurementPlan:
    """The X-between / Z-outside plan that localizes cluster-state entanglement."""
    bases = {}
    for s in range(1, n_sites + 1):
        if s in (r, rp):
            continue
        bases[s] = "X" if r < s < rp else "Z"
    plan = MeasurementPlan((r, rp), bases)
    plan.validate(n_sites)
    return plan


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix with an explicit normalization weight.

    ``matrix`` integrates to ``weight`` (the branch probability for
    post-measurement states); ``weight == 1`` for normalized states.
    """

    matrix: np.ndarray
    weight: float

    def normalized(self) -> np.ndarray:
        return self.matrix / self.weight


def _site_vectors(mpo: Mpo, plan: MeasurementPlan, outcomes) -> list:
    """Per-site Pauli-axis contraction vectors; None at the unmeasured pair."""
    n = mpo.n_qubits
    plan.validate(n)
    outcomes = list(outcomes)
    if len(outcomes) != n - 2:
        raise ValidationError(f"need {n - 2} outcomes, got {len(outcomes)}")
    if any(m not in (1, -1) for m in outcomes):
        raise ValidationError("outcomes must be +1 or -1")
    vectors = []
    k = 0
    for s in range(1, n + 1):
        if s in plan.pair:
            vectors.append(None)
            continue
        bloch = plan.basis_vector(s)
        v = np.zeros(4)
        v[0] = 0.5
        v[1:] = 0.5 * outcomes[k] * bloch
        vectors.append(v)
        k += 1
    return vectors


def _site_maps(mpo: Mpo, vectors) -> list:
    """Site maps of one branch: measured sites summed against their vector."""
    return [
        t if v is None else np.einsum("a,bay->by", v, t)
        for t, v in zip(mpo.tensors, vectors)
    ]


def _coeffs_to_matrix(c: np.ndarray) -> np.ndarray:
    return np.einsum("ij,iab,jcd->acbd", c, PAULIS, PAULIS).reshape(4, 4) / 4.0


def post_measurement_state(mpo: Mpo, plan: MeasurementPlan, outcomes) -> TwoQubitState:
    """Unnormalized two-qubit state after projecting all other sites.

    The weight equals the probability of the outcome string; weights over
    all 2^(N-2) outcome strings sum to the trace of the MPO.
    """
    vectors = _site_vectors(mpo, plan, outcomes)
    c = left_environments(_site_maps(mpo, vectors))[-1].reshape(4, 4)
    return TwoQubitState(matrix=_coeffs_to_matrix(c), weight=float(c[0, 0]))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose of the second qubit in the computational basis."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _check_normalized(state: TwoQubitState):
    if abs(np.trace(state.matrix).real - 1.0) > 1e-8:
        raise ValidationError("state is not normalized to unit trace")


def negativity(state: TwoQubitState) -> float:
    """Half the trace-norm excess of the partial transpose: 0.5 for Bell states."""
    _check_normalized(state)
    sv = np.linalg.svd(partial_transpose(state.matrix), compute_uv=False)
    return float((np.sum(sv) - 1.0) / 2.0)


def _wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    yy = np.kron(PAULIS[2], PAULIS[2])
    m = rho @ yy @ np.conj(rho) @ yy
    ev = np.linalg.eigvals(m)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    return np.sort(lam)[::-1]


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence: 1 for Bell states, 0 for separable states."""
    _check_normalized(state)
    lam = _wootters_lambdas(state.matrix)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# --- branch values on unnormalized coefficient matrices ----------------------

_PT_KERNELS = np.stack(
    [
        partial_transpose(np.kron(PAULIS[i], PAULIS[j])) / 4.0
        for i in range(4)
        for j in range(4)
    ]
).reshape(4, 4, 4, 4)  # [i, j] -> 4x4 kernel


def _branch_negativity(c: np.ndarray, want_gradient: bool, sv_gap_tol: float = 1e-10):
    """Branch value (trace-norm form) and its gradient w.r.t. c entries.

    For an unnormalized branch, ``P * N(rho/P) = (|rho^T2|_1 - tr rho) / 2``.
    The trace-norm gradient uses ``d|M|_1 / dM = U V+``; if the singular
    spectrum is nearly degenerate the gradient falls back to central finite
    differences, where the formula's derivative is ill-defined.
    """
    m = np.einsum("ij,ijab->ab", c, _PT_KERNELS)
    u, sv, vt = np.linalg.svd(m)
    value = (np.sum(sv) - c[0, 0]) / 2.0
    if not want_gradient:
        return value, None
    gaps = np.diff(sv)
    if np.all(np.abs(gaps) > sv_gap_tol) and np.min(sv) > sv_gap_tol:
        sign_mat = u @ vt
        grad = 0.5 * np.real(np.einsum("ab,ijab->ij", np.conj(sign_mat), _PT_KERNELS))
    else:
        grad = np.empty((4, 4))
        h = 1e-7
        for i in range(4):
            for j in range(4):
                cp = c.copy()
                cp[i, j] += h
                mp = np.einsum("ij,ijab->ab", cp, _PT_KERNELS)
                cp[i, j] -= 2 * h
                mm = np.einsum("ij,ijab->ab", cp, _PT_KERNELS)
                sp = np.linalg.svd(mp, compute_uv=False).sum()
                sm = np.linalg.svd(mm, compute_uv=False).sum()
                grad[i, j] = (sp - sm) / (4.0 * h)
    grad[0, 0] -= 0.5
    return value, grad


def _branch_concurrence(c: np.ndarray, want_gradient: bool):
    """Clamped branch concurrence and a finite-difference gradient.

    The concurrence of an unnormalized state scales linearly, so the branch
    term is evaluated directly on it.  Negative raw values (possible for
    non-positive fitted states) are clamped to zero and reported separately.
    """

    def raw(cmat):
        lam = _wootters_lambdas(_coeffs_to_matrix(cmat))
        return lam[0] - lam[1] - lam[2] - lam[3]

    r = raw(c)
    value = max(0.0, r)
    if not want_gradient:
        return value, None, r
    grad = np.zeros((4, 4))
    if r > 0.0:
        h = 1e-7
        for i in range(4):
            for j in range(4):
                cp = c.copy()
                cp[i, j] += h
                up = raw(cp)
                cp[i, j] -= 2 * h
                um = raw(cp)
                grad[i, j] = (up - um) / (2.0 * h)
    return value, grad, r


@dataclass
class LeResult:
    """Localizable entanglement estimate.

    ``se_parameter`` propagates the fit covariance (None without a fit);
    ``se_sampling`` is nonzero only for subset estimates.  ``raw_negative``
    accumulates clamped negative concurrence branch values.
    """

    value: float
    se_parameter: float | None
    se_sampling: float
    branches_evaluated: int
    measure: str
    pair: tuple[int, int]
    raw_negative: float = 0.0


def _branch_gradient_to_params(maps, vectors, lefts, w, masks):
    """Chain rule from d(term)/d(coefficients) to the free MPO parameters.

    ``lefts`` are the branch's left environments over ``maps``.
    """
    rights = right_environments(maps)
    grads = []
    n_open = 0
    for s, v in enumerate(vectors):
        lt, rt = lefts[s], rights[s + 1]
        if v is None:
            w3 = w.reshape(4**n_open, 4, -1)
            g = np.einsum("fx,fag,yg->xay", lt, w3, rt)
            n_open += 1
        else:
            u = lt.T @ w.reshape(4**n_open, -1) @ rt.T
            g = np.einsum("xy,a->xay", u, v)
        grads.append(g)
    return pack(grads, masks)


def _evaluate_branches(mpo, plan, measure, indices, want_gradient, masks=None):
    """Branch values summed over outcome strings ``indices``.

    Bit ``k`` of an index set means the ``k``-th measured site gave -1.
    """
    if measure not in ("negativity", "concurrence"):
        raise ValidationError(f"unknown measure {measure!r}")
    n = mpo.n_qubits
    # (outcome +1, outcome -1) vectors and maps of every site, built once
    plus = _site_vectors(mpo, plan, [1] * (n - 2))
    minus = _site_vectors(mpo, plan, [-1] * (n - 2))
    vectors = list(zip(plus, minus))
    maps = list(zip(_site_maps(mpo, plus), _site_maps(mpo, minus)))
    measured = [s for s, v in enumerate(plus) if v is not None]
    site_bits = np.zeros((len(indices), n), dtype=int)
    site_bits[:, measured] = (np.asarray(indices)[:, None] >> np.arange(n - 2)) & 1
    total_value = 0.0
    total_raw_negative = 0.0
    grad = None
    terms = np.empty(len(indices))
    for pos, bits in enumerate(site_bits.tolist()):
        branch_maps = [m[b] for m, b in zip(maps, bits)]
        lefts = left_environments(branch_maps)
        c = lefts[-1].reshape(4, 4)
        if measure == "negativity":
            value, dvdc = _branch_negativity(c, want_gradient)
        else:
            value, dvdc, raw = _branch_concurrence(c, want_gradient)
            if raw < 0.0:
                total_raw_negative += raw
        terms[pos] = value
        total_value += value
        if want_gradient:
            branch_vectors = [v[b] for v, b in zip(vectors, bits)]
            g = _branch_gradient_to_params(branch_maps, branch_vectors, lefts, dvdc, masks)
            grad = g if grad is None else grad + g
    return total_value, terms, grad, total_raw_negative


def localizable_entanglement(
    mpo: Mpo,
    plan: MeasurementPlan,
    measure: str = "negativity",
    fit=None,
) -> LeResult:
    """Exact localizable entanglement by enumeration of all outcome branches.

    Args:
        mpo: state to analyze (N <= 15; larger chains must use
            :func:`le_subset_estimate`).
        plan: measurement bases and the unmeasured pair.
        measure: "negativity" or "concurrence".
        fit: optional FitResult whose covariance propagates a parameter SE
            (the fit's MPO must be the one analyzed).
    """
    n = mpo.n_qubits
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValidationError(
            f"exact enumeration limited to N <= {EXACT_ENUMERATION_LIMIT}; "
            "use le_subset_estimate"
        )
    n_branches = 2 ** (n - 2)
    want_gradient = fit is not None
    masks = fit.masks if fit is not None else None
    value, _, grad, raw_neg = _evaluate_branches(
        mpo, plan, measure, np.arange(n_branches), want_gradient, masks
    )
    se_param = None
    if want_gradient:
        var = float(grad @ fit.covariance @ grad)
        se_param = float(np.sqrt(max(var, 0.0)))
    return LeResult(
        value=float(value),
        se_parameter=se_param,
        se_sampling=0.0,
        branches_evaluated=n_branches,
        measure=measure,
        pair=plan.pair,
        raw_negative=float(raw_neg),
    )


def le_subset_estimate(
    mpo: Mpo,
    plan: MeasurementPlan,
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
    check_positive_int(samples, "samples", minimum=1)
    n = mpo.n_qubits
    plan.validate(n)
    total = 2 ** (n - 2)
    if samples > total:
        raise ValidationError(f"samples {samples} exceeds {total} branches")
    rng = np.random.default_rng(seed)
    if samples == total:
        indices = np.arange(total)
    elif total <= 2**22:
        indices = rng.choice(total, size=samples, replace=False)
    else:  # rejection sampling of distinct branch indices
        chosen = set()
        while len(chosen) < samples:
            draw = rng.integers(0, total, size=samples - len(chosen))
            chosen.update(int(x) for x in draw)
        indices = np.fromiter(chosen, dtype=np.int64)
    value_sum, terms, _, raw_neg = _evaluate_branches(
        mpo, plan, measure, indices, False
    )
    scale = total / samples
    estimate = scale * value_sum
    if samples > 1:
        fpc = np.sqrt(1.0 - samples / total)
        se = total * np.std(terms, ddof=1) / np.sqrt(samples) * fpc
    else:
        se = np.inf
    return LeResult(
        value=float(estimate),
        se_parameter=None,
        se_sampling=float(se),
        branches_evaluated=int(samples),
        measure=measure,
        pair=plan.pair,
        raw_negative=float(raw_neg * scale),
    )


def pairwise_le_matrix(
    mpo: Mpo, measure: str = "negativity", fit=None
) -> dict[tuple[int, int], LeResult]:
    """Localizable entanglement for every pair under the default X/Z plans."""
    n = mpo.n_qubits
    out = {}
    for r in range(1, n):
        for rp in range(r + 1, n + 1):
            plan = default_plan(n, r, rp)
            out[(r, rp)] = localizable_entanglement(mpo, plan, measure, fit=fit)
    return out


def save_le_report(result: LeResult, path) -> None:
    doc = {
        "pair": list(result.pair),
        "measure": result.measure,
        "value": result.value,
        "se_parameter": result.se_parameter,
        "se_sampling": result.se_sampling,
        "branches_evaluated": result.branches_evaluated,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
