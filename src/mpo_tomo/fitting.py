"""Weighted Gauss-Newton fit of a standard-form MPO to local correlations.

Residuals are the differences between measured window correlations and the
chain-product values of the MPO, each weighted by the reciprocal standard
error.  The analytic Jacobian follows from the product rule: removing one
site from the chain leaves a left prefix and a right suffix whose outer
product is the derivative block.  In standard form a window's values depend
only on its own sites and on the identity slices of the sites left of it, so
each window carries a compact Jacobian block over just those columns, and
JᵀWJ is scatter-added window by window; the dense stacked Jacobian is never
formed, and the blocks are freed once JᵀWJ holds them.  Products Jᵀu (the
gradient and the geodesic term) come from a per-window pullback of the
cotangents u through the chain.  Data in the Z-shifted basis is fit directly
there (the model chain is contracted with the involution F on the window
sites), which keeps the residual weights statistically independent.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .correlations import (
    F_MATRIX,
    PAULI_BASIS,
    ZSHIFTED_BASIS,
    PauliCorrelationSet,
    window_correlation_set,
    zshifted_to_pauli,
)
from .errors import DataError, ValidationError
from .mpo import (
    Mpo,
    is_standard_form,
    left_environments,
    load_json,
    right_environments,
    save_json,
    to_standard_form,
)
from .reconstruct import (
    build_corr_matrices,
    compress,
    estimate_bond_dims,
    invert_reconstruct,
)
from .standard_form import free_masks, n_free_parameters, pack, unpack

log = logging.getLogger(__name__)

_INITIAL_DAMPING = 1e-3  # Levenberg parameter of the first trial


def _window_columns(masks, window: int) -> dict:
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


def _chain_maps(mpo: Mpo, basis_k):
    """Site tensors in the data basis, their identity slices, and the prefix
    and suffix products of those slices."""
    tensors = list(mpo.tensors)
    if basis_k is not None:
        tensors = [np.einsum("ji,dia->dja", basis_k, t) for t in tensors]
    ident = [t[:, 0, :] for t in tensors]
    return tensors, ident, left_environments(ident), right_environments(ident)


def _window_values_jacobian(mpo: Mpo, window: int, basis_k=None, want_jacobian=True):
    """Model values (and compact Jacobian) of all window words.

    Requires standard form, so sites right of a window never contribute
    derivatives through their pinned identity columns, and sites left of it
    only through their identity slices.

    Returns:
        values: dict start -> (4**window,) array in site-major word order.
        jac: dict start -> (4**window, len(cols[start])) array of the
            derivatives w.r.t. the packed parameters
            ``cols = _window_columns(free_masks(mpo), window)`` (every other
            derivative is exactly zero), or None.
    """
    n = mpo.n_qubits
    tensors, ident, prefix, suffix = _chain_maps(mpo, basis_k)
    values = {}
    jacs = {} if want_jacobian else None
    if want_jacobian:
        masks = free_masks(mpo)
        k_mat = np.eye(4) if basis_k is None else np.asarray(basis_k, dtype=float)
        # (pauli, row, column) of a site's free entries in packing order, and
        # (row, column) of its identity slice's
        site_free = [np.nonzero(m.transpose(1, 0, 2)) for m in masks]
        ident_free = [np.nonzero(m[:, 0, :]) for m in masks]
    for start in range(1, n - window + 2):
        first, end = start - 1, start - 1 + window
        sites = tensors[first:end]
        lefts = left_environments(sites, prefix[first])  # (4^k, D)
        values[start] = (lefts[window] @ suffix[end])[:, 0]
        if not want_jacobian:
            continue
        # sites left of the window enter through their identity slices, so
        # one right sweep from the window's end covers every derivative
        rights = right_environments(ident[:first] + sites, suffix[end])
        free = ident_free[:first] + site_free[first:end]
        jac = np.empty((4**window, sum(len(f[0]) for f in free)))
        col = 0
        for s, f in enumerate(free):
            rt = rights[s + 1]  # (D_right-of-site, 4^{open right of s})
            out = jac[:, col : col + len(f[0])]
            col += len(f[0])
            if s < first:
                # d value / d (A_s^(0))_{x,y} = prefix[s][x] * rt[y, w]
                x, y = f
                np.multiply(rt[y].T, prefix[s][0, x], out=out)
            else:
                # block[a, w, b, f] = K[w, i_f] lt[a, x_f] rt[y_f, b]
                i, x, y = f
                lt = lefts[s - first]
                lk = (lt[:, None, x] * k_mat[:, i])[:, :, None]
                np.multiply(lk, rt[y].T, out=out.reshape(len(lt), 4, rt.shape[1], len(i)))
        jacs[start] = jac
    return values, jacs


def _gram(blocks, cols, n_par: int) -> np.ndarray:
    """J^T J of the stacked Jacobian, from its compact window blocks.

    ``blocks[i]`` holds window i's rows over the columns ``cols[i]``; every
    other entry of those rows is zero.
    """
    out = np.zeros((n_par, n_par))
    for block, c in zip(blocks, cols):
        g = block.T @ block
        # the window's own sites are one contiguous run of columns at the
        # end; only the identity-slice columns before it need a gather
        breaks = np.flatnonzero(np.diff(c) != 1)
        k = int(breaks[-1]) + 1 if breaks.size else 0
        head, own = c[:k], slice(c[k], c[-1] + 1)
        out[own, own] += g[k:, k:]
        if k:
            out[np.ix_(head, head)] += g[:k, :k]
            out[head, own] += g[:k, k:]
            out[own, head] += g[k:, :k]
    return out


def _window_pullback(mpo: Mpo, window: int, basis_k, cotangents) -> np.ndarray:
    """Packed J^T u of the window values for per-window cotangents u.

    Each window's values are contracted with its cotangent site by site from
    one left and one right sweep over its own sites; the sites left of it
    see it through their identity slices, carried leftwards by one vector
    for all windows.

    Args:
        cotangents: dict start -> (4**window,) array in the word order of
            :func:`_window_values_jacobian`; a missing start contributes
            nothing.  Word 0 (all identity) is constant in standard form:
            its entry reaches only pinned entries and drops out.

    Returns:
        (n_free,) array over the packed parameters.
    """
    n = mpo.n_qubits
    tensors, ident, prefix, suffix = _chain_maps(mpo, basis_k)
    grads = [np.zeros(t.shape) for t in tensors]  # w.r.t. the data-basis tensors
    q = np.zeros(tensors[n - window].shape[2])
    for first in range(n - window, -1, -1):
        end = first + window
        q = ident[first] @ q
        if first + 1 in cotangents:
            u = cotangents[first + 1]
            sites = tensors[first:end]
            lefts = left_environments(sites, prefix[first])
            rights = right_environments(sites, suffix[end])
            for j, s in enumerate(range(first, end)):
                lt, rt = lefts[j], rights[j + 1]
                d_l = lt.shape[1]
                g = (lt.T @ u.reshape(len(lt), -1)).reshape(4 * d_l, -1) @ rt.T
                grads[s] += g.reshape(d_l, 4, -1)
            q = q + rights[0] @ u
        if first:
            # the identity slice of the site left of this window sees every
            # window from here on through q
            grads[first - 1][:, 0, :] += np.outer(prefix[first - 1][0], q)
    if basis_k is not None:
        grads = [np.einsum("wi,xwy->xiy", basis_k, g) for g in grads]
    return pack(grads, free_masks(mpo))


@dataclass
class FitResult:
    """Fitted standard-form MPO with covariance and convergence metadata.

    ``exit_reason`` says why the fit stopped: ``tolerance`` (relative SSE
    decrease below ``tol``), ``rounding_floor`` (SSE at the level rounding
    of the model values alone leaves), ``no_acceptable_step`` (no damping
    gave a non-increasing SSE) or ``max_iter``; None for a bundle written
    before it was recorded.  ``converged`` is True only for ``tolerance``
    and ``rounding_floor``.  ``trace`` holds one dict per iteration: the SSE
    after it, the damping of its last trial, the number of inner trials, the
    |d2|/|d1| ratio of its last trial and the model evaluations it made.

    At the final iterate, eigenvalues of JᵀWJ at or below 1e-12 of the
    largest are dropped as gauge null directions: ``null_directions``
    counts them, ``largest_null_ratio`` is the largest of them and
    ``smallest_live_ratio`` the smallest kept one, both relative to the
    largest eigenvalue (None when there is no such eigenvalue, or for a
    bundle written before they were recorded).
    """

    mpo: Mpo
    covariance: np.ndarray = field(repr=False)
    sse: float
    dof: int
    iterations: int
    converged: bool
    basis: str
    masks: list = field(repr=False, default=None)
    exit_reason: str | None = None
    trace: list = field(repr=False, default_factory=list)
    null_directions: int | None = None
    largest_null_ratio: float | None = None
    smallest_live_ratio: float | None = None

    @property
    def reduced_sse(self) -> float:
        return self.sse / max(self.dof, 1)


def gauss_newton_fit(
    initial: Mpo,
    data: PauliCorrelationSet,
    max_iter: int = 200,
    tol: float = 1e-10,
    se_floor: float = 1e-9,
) -> FitResult:
    """Levenberg-damped Gauss-Newton weighted least squares.

    JᵀWJ is assembled window by window from compact Jacobian blocks (see
    :func:`_window_values_jacobian`), weighted in place and freed before
    the eigendecomposition; JᵀWr and the geodesic term come from
    :func:`_window_pullback`.  The normal equations are solved in the
    Hessian eigenbasis with the residual gauge directions of the standard
    form projected out; each step carries a geodesic-acceleration correction
    (the second directional derivative of the residuals along the step).
    The damping starts at ``_INITIAL_DAMPING``, shrinks by 10 on accepted
    steps and grows gently (x2) on rejections.  Accepted steps never
    increase the weighted SSE.

    Args:
        initial: standard-form starting point; its pinned entries stay fixed.
        data: measured correlations (pauli or z-shifted basis) with SEs.

    Returns:
        FitResult; ``converged`` is False when ``max_iter`` was exhausted or
        no trial step was acceptable (the result is usable but flagged).
        ``exit_reason`` and ``trace`` record why and how the iteration stopped.
    """
    if not is_standard_form(initial):
        raise ValidationError("initial MPO must be in standard form")
    if data.basis == ZSHIFTED_BASIS:
        basis_k = F_MATRIX
    elif data.basis == PAULI_BASIS:
        basis_k = None
    else:  # pragma: no cover - guarded by PauliCorrelationSet
        raise ValidationError(f"unknown basis {data.basis}")
    window = data.window
    starts = data.starts
    # one row per window; word 0 (all identity, constant 1) is always first
    y = np.stack([data.values[s].ravel()[1:] for s in starts])
    se = np.stack([data.ses[s].ravel()[1:] for s in starts])
    if not np.all(np.isfinite(y)):
        raise DataError("correlation data contains NaN")
    w = 1.0 / np.clip(se, se_floor, None)
    # the weighted SSE that rounding of the model values alone leaves; a fit
    # below it has nothing left to polish
    rounding_sse = float(y.size * (np.finfo(float).eps * w.max()) ** 2)

    masks = free_masks(initial)
    n_par = n_free_parameters(masks)
    window_cols = _window_columns(masks, window)
    cols = [window_cols[s] for s in starts]
    theta = pack(initial.tensors, masks)
    evals_made = 0

    def model(mpo, want_jacobian):
        """Model values, and JᵀWJ when asked; the blocks die with this call."""
        nonlocal evals_made
        evals_made += 1
        vals, jacs = _window_values_jacobian(mpo, window, basis_k, want_jacobian)
        v = np.stack([vals[s][1:] for s in starts])
        if not want_jacobian:
            return v, None
        blocks = [jacs[s][1:] for s in starts]
        for block, ws in zip(blocks, w):
            block *= ws[:, None]
        return v, _gram(blocks, cols, n_par)

    def values_at(th):
        v, _ = model(unpack(th, initial, masks), False)
        return v

    def pullback(mpo, weighted):
        """Jᵀ(w * weighted) at ``mpo``; word 0 carries no residual."""
        u = {s: np.pad(row * ws, (1, 0)) for s, row, ws in zip(starts, weighted, w)}
        return _window_pullback(mpo, window, basis_k, u)

    def weighted_sse(v):
        r = ((y - v) * w).ravel()
        return float(r @ r)

    vals = values_at(theta)
    sse = weighted_sse(vals)
    lam = _INITIAL_DAMPING
    iterations = 0
    exit_reason = "rounding_floor" if sse <= rounding_sse else None
    trace = []
    fd_step = 0.1
    while exit_reason is None and iterations < max_iter:
        evals_made = 0
        current = unpack(theta, initial, masks)
        vals, hess = model(current, True)
        grad = pullback(current, (y - vals) * w)
        # work in the Hessian eigenbasis: residual gauge freedom of the
        # standard form leaves exact null directions that must not enter the
        # step regardless of the damping
        evals, evecs = np.linalg.eigh(hess)
        del hess
        cut = 1e-12 * max(evals[-1], 1e-300)
        live = evals > cut
        gproj = evecs.T @ grad
        accepted = False
        for trial in range(1, 81):
            step_lam = lam
            d1 = evecs @ np.where(live, gproj / (evals + lam), 0.0)
            # geodesic acceleration: second directional derivative of the
            # residuals along d1, solved against the same damped system
            vp = values_at(theta + fd_step * d1)
            vm = values_at(theta - fd_step * d1)
            curv = ((vp - 2.0 * vals + vm) / fd_step**2) * w
            cproj = evecs.T @ pullback(current, curv)
            d2 = -0.5 * (evecs @ np.where(live, cproj / (evals + lam), 0.0))
            n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
            if n2 <= 0.75 * n1:
                cand_theta = theta + d1 + d2
                cand_sse = weighted_sse(values_at(cand_theta))
                if cand_sse <= sse:
                    accepted = True
                    lam = max(lam / 10.0, 1e-15)
                    break
            lam *= 2.0
        del evecs  # free before the next iteration builds its blocks
        iterations += 1
        if accepted:
            decrease = sse - cand_sse
            theta, sse = cand_theta, cand_sse
            if sse <= rounding_sse:
                exit_reason = "rounding_floor"
            elif decrease <= tol * sse:
                exit_reason = "tolerance"
        else:
            exit_reason = "no_acceptable_step"
        row = {
            "sse": sse,
            "lambda": step_lam,
            "trials": trial,
            "d2_over_d1": float(n2 / n1) if n1 > 0 else 0.0,
            "model_evals": evals_made,
        }
        trace.append(row)
        log.debug("gauss-newton iteration %d: %s", iterations, row)
    if exit_reason is None:
        exit_reason = "max_iter"
    converged = exit_reason in ("tolerance", "rounding_floor")
    current = unpack(theta, initial, masks)
    # covariance of the free parameters at the final iterate
    _, hess = model(current, True)
    evals, evecs = np.linalg.eigh(hess)
    del hess
    scale = max(evals.max(), 1e-300)
    live = evals > 1e-12 * scale
    inv = np.where(live, 1.0 / np.where(live, evals, 1.0), 0.0)
    cov = (evecs * inv) @ evecs.T
    # the gauge null directions dropped here carry no degree of freedom
    dof = y.size - int(live.sum())
    return FitResult(
        mpo=current,
        covariance=cov,
        sse=sse,
        dof=dof,
        iterations=iterations,
        converged=converged,
        basis=data.basis,
        masks=masks,
        exit_reason=exit_reason,
        trace=trace,
        null_directions=int(n_par - live.sum()),
        largest_null_ratio=float(evals[~live].max() / scale) if not live.all() else None,
        smallest_live_ratio=float(evals[live].min() / scale) if live.any() else None,
    )


def propagate_covariance(fit: FitResult, functional) -> tuple[float, float]:
    """Value and propagated SE of a differentiable scalar of the fitted MPO.

    Args:
        functional: callable returning ``(value, per-site gradient arrays)``
            for an MPO, e.g. built from :func:`mpo_tomo.mpo.fidelity_gradient`.
    """
    value, grads = functional(fit.mpo)
    g = pack(grads, fit.masks)
    var = float(g @ fit.covariance @ g)
    return float(value), float(np.sqrt(max(var, 0.0)))


def fidelity_functional(target: Mpo):
    """Functional computing fidelity to a pure target, for covariance propagation."""
    from .mpo import fidelity, fidelity_gradient

    def run(mpo: Mpo):
        return fidelity(mpo, target), fidelity_gradient(mpo, target)

    return run


class MpoLeastSquares:
    """Estimator reconstructing an MPO from five-qubit local correlations.

    The fit pipeline is: build correlation matrices, estimate the bond
    dimension from their singular values, reconstruct an initial guess by
    pseudoinversion, compress it to the estimated bonds, convert to standard
    form, and refine by weighted Gauss-Newton.

    Follows the scikit-learn estimator conventions: hyperparameters in
    ``__init__`` / ``get_params`` / ``set_params``, fitted state in
    trailing-underscore attributes set by :meth:`fit`.
    """

    def __init__(
        self,
        k_sigma: float = 5.0,
        max_iter: int = 200,
        tol: float = 1e-10,
        se_floor: float = 1e-9,
        bond_dims: dict | None = None,
    ):
        self.k_sigma = k_sigma
        self.max_iter = max_iter
        self.tol = tol
        self.se_floor = se_floor
        self.bond_dims = bond_dims

    _param_names = ("k_sigma", "max_iter", "tol", "se_floor", "bond_dims")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "MpoLeastSquares":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValidationError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def fit(self, corrs: PauliCorrelationSet) -> "MpoLeastSquares":
        """Run the full reconstruction pipeline on an L=5 correlation set."""
        if corrs.window != 5:
            raise ValidationError("the estimator expects 5-qubit windows")
        pauli = corrs if corrs.basis == PAULI_BASIS else zshifted_to_pauli(corrs)
        self.corr_matrices_ = build_corr_matrices(pauli)
        self.bond_estimate_ = estimate_bond_dims(self.corr_matrices_, self.k_sigma)
        dims = dict(self.bond_dims or self.bond_estimate_.dims)
        self.inversion_ = invert_reconstruct(
            pauli, 5, ranks=dims, residual_tol=np.inf
        )
        guess = compress(self.inversion_.mpo, self.corr_matrices_, dims)
        guess = to_standard_form(guess)
        self.initial_mpo_ = guess
        self.fit_result_ = gauss_newton_fit(
            guess,
            corrs,
            max_iter=self.max_iter,
            tol=self.tol,
            se_floor=self.se_floor,
        )
        self.mpo_ = self.fit_result_.mpo
        self.covariance_ = self.fit_result_.covariance
        return self

    def predict(self, starts=None) -> PauliCorrelationSet:
        """Model correlations of the fitted MPO on the data's window grid."""
        if not hasattr(self, "mpo_"):
            raise ValidationError("estimator is not fitted")
        out = window_correlation_set(self.mpo_, 5)
        if starts is not None:
            missing = [s for s in starts if s not in out.values]
            if missing:
                raise ValidationError(f"window starts {missing} out of range")
            out.values = {s: out.values[s] for s in starts}
            out.ses = {s: out.ses[s] for s in starts}
        return out


# --- persistence -------------------------------------------------------------


_NULL_SPACE_KEYS = ("null_directions", "largest_null_ratio", "smallest_live_ratio")


def fit_record(fit: FitResult) -> dict:
    """The fit's summary shared by ``fit_report.json`` and ``stages.json``."""
    keys = ("sse", "dof", "iterations", "converged", "exit_reason", *_NULL_SPACE_KEYS)
    return {key: getattr(fit, key) for key in keys}


def save_fit_bundle(fit: FitResult, directory) -> None:
    """Persist a fit: MPO JSON, covariance binary + header, report JSON."""
    import os

    os.makedirs(directory, exist_ok=True)
    save_json(fit.mpo, os.path.join(directory, "mpo.json"))
    cov = np.ascontiguousarray(fit.covariance, dtype=np.float64)
    cov.tofile(os.path.join(directory, "covariance.bin"))
    header = {
        "shape": list(cov.shape),
        "dtype": "float64",
        "order": "row-major",
        "parameter_ordering": "site-major, then Pauli index, then row, then column over starred entries",
    }
    with open(os.path.join(directory, "covariance_header.json"), "w") as fh:
        json.dump(header, fh, sort_keys=True)
    report = {**fit_record(fit), "basis": fit.basis}
    with open(os.path.join(directory, "fit_report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True)


def load_fit_bundle(directory) -> FitResult:
    import os

    mpo = load_json(os.path.join(directory, "mpo.json"))
    with open(os.path.join(directory, "covariance_header.json")) as fh:
        header = json.load(fh)
    masks = free_masks(mpo)
    n_free = n_free_parameters(masks)
    shape = tuple(header["shape"])
    if shape != (n_free, n_free):
        raise ValidationError(
            f"covariance shape {list(shape)} does not match the MPO's "
            f"{n_free} free parameters"
        )
    cov = np.fromfile(os.path.join(directory, "covariance.bin"), dtype=np.float64)
    if cov.size != n_free * n_free:
        raise ValidationError(
            f"covariance.bin holds {cov.size} values, the header declares "
            f"{n_free} x {n_free}"
        )
    cov = cov.reshape(shape)
    with open(os.path.join(directory, "fit_report.json")) as fh:
        report = json.load(fh)
    return FitResult(
        mpo=mpo,
        covariance=cov,
        sse=report["sse"],
        dof=report["dof"],
        iterations=report["iterations"],
        converged=report["converged"],
        basis=report["basis"],
        masks=masks,
        exit_reason=report.get("exit_reason"),
        **{key: report.get(key) for key in _NULL_SPACE_KEYS},
    )
