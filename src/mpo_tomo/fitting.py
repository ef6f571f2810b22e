"""Weighted Gauss-Newton fit of a standard-form MPO to local correlations.

Residuals are the differences between measured window correlations and the
chain-product values of the MPO, each weighted by the reciprocal standard
error.  The fit takes data in the Z-shifted basis only and fits it there
(the model chain is contracted with the involution F on every site), which
keeps the residual weights statistically independent.  This module alone
reads the fit's covariance and free-entry masks: every reported SE comes
from :func:`propagate_joint`.

A fit builds its layout and index tables once (:class:`_FitPlan`) and
contracts each parameter point once (:class:`_Point`).  The values, JᵀWJ
(:func:`_window_values_jacobian`, from per-window derivative slabs, with no
dense Jacobian block) and every product Jᵀu (:func:`_window_pullback`) at
a point share that contraction.  Each pass factors its JᵀWJ once
(:class:`_PassSolver`) for its steps, its Newton decrement and, at the
last pass, the covariance factor.  The data, weights, values and
cotangents of a fit are ``(n_windows, 4**window)`` arrays, one row per
window in chain order.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ._csvio import write_json
from ._validation import is_finite, is_int
from .correlations import F_MATRIX, zshifted_to_pauli
from .errors import CompletenessError, DataError, ValidationError
from .measurement import ZSHIFTED_BASIS, WindowTable
from .mpo import (
    Mpo,
    left_environments,
    left_environments_vjp,
    load_json,
    right_environments,
    save_json,
)
from .reconstruct import (
    build_corr_matrices,
    compress,
    estimate_bond_dims,
    invert_reconstruct,
)
from .standard_form import (
    PARAMETER_ORDERING,
    free_entries,
    free_masks,
    is_standard_form,
    n_free_parameters,
    pack,
    to_standard_form,
    unpack,
)

log = logging.getLogger(__name__)

_INITIAL_DAMPING = 1e-3  # Levenberg parameter of the first trial
_SE_FLOOR = 1e-9  # a residual's weight is 1 / max(SE, _SE_FLOOR)
_SHIFT_BOUND = 0.1  # the fit stops once one more step moves no output by over this many SEs

# the fit settings, each overridable in the run config's "fit" section
FIT_DEFAULTS = {"k_sigma": 5.0, "max_iterations": 200}


class _FitPlan:
    """What stays fixed over one fit: the free-entry layout of the standard
    form, its pinned template, the letter maps of the data-basis map K = F
    and the assembly's index tables.

    Every site is zero-padded to the largest bond D, the fit's only layout:
    a point's site tensors are one ``(N, D, 4, D)`` array, whose slice
    ``[k : k + n_windows]`` is window offset k of all windows.  The padding
    stays exactly zero and no free entry reads it.  Every per-site array
    of the fit is D wide, and the free entries and initial θ index ``base``.

    Args:
        template: standard-form MPO whose pinned entries every point keeps.
    """

    def __init__(self, template: Mpo, window: int):
        shapes = [t.shape for t in template.tensors]
        n = len(shapes)
        self.template, self.window = template, window
        self.n_windows = n - window + 1
        self.masks = free_masks(template)
        entries = free_entries(self.masks)
        # each site's free entries are contiguous in the packing order
        self.offsets = np.cumsum([0] + [len(i) for i, _, _ in entries])
        self.bond = bond = max(dl for dl, _, _ in shapes)
        self.base = np.zeros((n, bond, 4, bond))
        for s, ((dl, _, dr), t) in enumerate(zip(shapes, template.tensors)):
            self.base[s, :dl, :, :dr] = t
        # the free entries as flat indices of the padded tensors, in packing order
        self.free_index = np.concatenate(
            [((s * bond + x) * 4 + i) * bond + y for s, (i, x, y) in enumerate(entries)]
        )
        # K on the letters of a site-pair Gram, grouped by (letter at p, letter
        # at q) or by the one letter of a site with itself
        self.k_pair = np.kron(F_MATRIX, F_MATRIX)
        self.k_same = (F_MATRIX[:, :, None] * F_MATRIX[:, None, :]).reshape(4, 16)
        # each site's free entries as flat (pauli, row, column) indices of its padded block
        self.rows = [(i * bond + x) * bond + y for i, x, y in entries]
        self.words, self.slab_rows = _letter_tables(window)


class _Point:
    """One parameter point of a fit and its chain, contracted when first
    asked for and kept with the point: the padded data-basis site tensors
    and every window's left environments.  Values, JᵀWJ and every pullback
    at the point share them.  No prefix or suffix is contracted: with the
    standard form's pinned entries, every product of data-basis identity
    slices from the chain's left end is exactly e0ᵀ, and every one out to
    its right end exactly e0, at every point, so each window depends on its
    own sites alone and reads bond index 0 at both edges."""

    def __init__(self, plan: _FitPlan, theta):
        self.plan = plan
        self.theta = np.asarray(theta, dtype=float)

    @functools.cached_property
    def mpo(self) -> Mpo:
        """The point as an MPO, pinned entries from the plan's template."""
        plan = self.plan
        return unpack(self.theta, plan.template, plan.masks)

    @functools.cached_property
    def tensors(self) -> np.ndarray:
        """(N, D, 4, D) zero-padded site tensors in the data basis."""
        plan = self.plan
        padded = plan.base.copy()
        padded.flat[plan.free_index] = self.theta
        return np.einsum("ji,sdia->sdja", F_MATRIX, padded)

    @property
    def window_sites(self) -> list[np.ndarray]:
        """Site k of every window: the (n_windows, D, 4, D) slices."""
        return [self.tensors[k : k + self.plan.n_windows] for k in range(self.plan.window)]

    @functools.cached_property
    def lefts(self) -> list[np.ndarray]:
        """Every window's left environments, stacked on a leading window
        axis: entry k is (n_windows, 4**k, D), over the window's first k
        sites from e0ᵀ at its left edge."""
        plan = self.plan
        return left_environments(self.window_sites, np.tile(np.eye(1, plan.bond), (plan.n_windows, 1, 1)))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """(n_windows, 4**window) model values in site-major word order."""
        # a copy: a view would keep a trial point's environments alive
        return self.lefts[-1][:, :, 0].copy()


def _window_slabs(point: _Point):
    """Derivative slabs of each window, one window at a time.

    Requires standard form, so a window's values depend on its own sites
    alone (see :class:`_Point`).  The derivative of word (a, w, b) by the
    data-basis entry (x, w', y) of window site p is
    ``δ(w, w') lefts[p][a, x] rights[p+1][y, b]``, so one slab
    E_p = lefts[p] ⊗ rights[p+1] serves all four letters of the site.  The
    left environments are the point's.

    Yields:
        ``(first, slabs)`` in chain order: the window's 0-based first site,
        and its slabs, one per window site, (4**(window-1), D**2) with rows
        over the letters of the other window sites in site-major order and
        columns over the padded (x, y).  The slab columns past a site's own
        bonds are zero.
    """
    plan = point.plan
    window = plan.window
    for first in range(plan.n_windows):
        lefts = [env[first] for env in point.lefts]
        rights = right_environments(point.tensors[first : first + window], np.eye(plan.bond, 1))
        window_slabs = [
            (lt[:, None, :, None] * rt.T[None, :, None, :]).reshape(4 ** (window - 1), -1)
            for lt, rt in zip(lefts, rights[1:])
        ]
        yield first, window_slabs


def _window_values_jacobian(point: _Point, omega=None):
    """Model values of all window words, and JᵀWJ when ``omega`` is given.

    JᵀWJ is assembled from the windows' slabs (see :func:`_window_slabs`);
    no dense Jacobian block is built.  With ω the squared word weights, the
    data-basis Gram of window sites p ≤ q needs only the words whose letters
    at p and q match its columns: for p = q four products E_pᵀ diag(ω) E_p
    over 4**(window-1) words each, for p < q sixteen over 4**(window-2) words
    each, each set one batched matmul.  These Grams of a site pair a ≤ b are
    summed over the windows that hold both sites; the basis map K on the
    letters and the selection of the free entries (together M_a) then give
    the pair's block M_aᵀ G_ab M_b, written once as one contiguous slice of
    JᵀWJ as soon as the window that starts at site a, the last to hold it,
    is summed.  No window reaches a site outside it (see :class:`_Point`),
    so these blocks are all of JᵀWJ.

    Args:
        omega: (n_windows, 4**window) squared weights ω of every window's
            words; JᵀWJ sums Jᵀ diag(ω) J over the windows, so a zero row
            leaves its window out.  None evaluates the values alone.

    Returns:
        values: the point's (n_windows, 4**window) model values, one row per
            window in site-major word order.
        hess: (n_free, n_free) JᵀWJ over the packed parameters, or None.
    """
    plan = point.plan
    if omega is None:
        return point.values, None
    window, offsets, words, slab_rows = plan.window, plan.offsets, plan.words, plan.slab_rows
    hess = np.zeros((offsets[-1], offsets[-1]))
    grams = defaultdict(float)  # (site a, site b) -> letter-grouped Gram summed so far
    for first, slabs in _window_slabs(point):
        for p, e_p in enumerate(slabs):
            a = first + p
            # w_p[w] = diag(ω) E_p over the words with letter w at p
            w_p = omega[first][words[p]][:, :, None] * e_p
            grams[a, a] += np.matmul(w_p.transpose(0, 2, 1), e_p)
            for q in range(p + 1, window):
                # the words with letter w at p and v at q
                w_pq = np.take(w_p, slab_rows[p][q], axis=1)  # [w, v]
                e_qp = slabs[q][slab_rows[q][p]]  # [w]
                grams[a, first + q] += np.matmul(w_pq.transpose(0, 1, 3, 2), e_qp[:, None])
        # the pairs no later window holds: site `first`'s, and after the
        # last window every pair left
        done = first if first + 1 < plan.n_windows else len(plan.rows)
        for a, b in [key for key in grams if key[0] <= done]:
            at_a, at_b = slice(offsets[a], offsets[a + 1]), slice(offsets[b], offsets[b + 1])
            letter_map = plan.k_same if a == b else plan.k_pair
            hess[at_a, at_b] = _free_block(grams.pop((a, b)), letter_map, plan.rows[a], plan.rows[b])
            if a < b:
                hess[at_b, at_a] = hess[at_a, at_b].T
    return point.values, hess


def _free_block(g, letter_map, rows_p, rows_q):
    """The block M_pᵀ G_pq M_q of JᵀWJ from a letter-grouped Gram.

    ``g`` stacks one (k_p, k_q) Gram per letter group; ``letter_map`` maps
    the groups to Pauli pairs (i, j), j over the four Pauli indices of site
    q.  The rows (i, a) and columns (j, b) of the result are then picked at
    the free entries ``rows_p`` and ``rows_q``.
    """
    k_p, k_q = g.shape[-2:]
    g = (letter_map.T @ g.reshape(len(letter_map), -1)).reshape(-1, 4, k_p, k_q)
    return g.transpose(0, 2, 1, 3).reshape(len(g) * k_p, 4 * k_q)[rows_p][:, rows_q]


def _letter_tables(window: int):
    """Index tables that group a window's words by the letters of its sites.

    Returns:
        words: per site p, (4, 4**(window-1)) word indices with letter w at
            p, the other letters in site order (the rows of the slab).
        slab_rows: ``slab_rows[p][q]``, (4, 4**(window-2)) rows of site p's
            slab with letter v at site q, the other letters in site order.
    """
    index = np.arange(4**window).reshape((4,) * window)
    slab_index = np.arange(4 ** (window - 1)).reshape((4,) * (window - 1))
    words = [np.moveaxis(index, p, 0).reshape(4, -1) for p in range(window)]
    slab_rows = [
        {q: np.moveaxis(slab_index, q - (q > p), 0).reshape(4, -1) for q in range(window) if q != p}
        for p in range(window)
    ]
    return words, slab_rows


def _window_pullback(point: _Point, cotangents) -> np.ndarray:
    """Packed J^T u of the window values for per-window cotangents u.

    Each window's values come from one left sweep over its own sites from
    e0ᵀ, so u goes back through the reverse sweep
    (:func:`mpo_tomo.mpo.left_environments_vjp`) to those sites, for all
    windows at once from the point's stacked left environments.

    Args:
        cotangents: (n_windows, 4**window) array, one row per window in the
            word order of :func:`_window_values_jacobian`; a zero row
            contributes nothing.  Word 0 (all identity) is constant in
            standard form: its entry reaches only pinned entries and drops out.

    Returns:
        (n_free,) array over the packed parameters.
    """
    plan = point.plan
    nw = plan.n_windows
    # the suffix at every window's right edge is e0 (see :class:`_Point`)
    cot = cotangents[:, :, None] * np.eye(1, plan.bond)
    site_grads, _ = left_environments_vjp(point.window_sites, point.lefts, cot)
    # w.r.t. the data-basis tensors
    grads = np.zeros(point.tensors.shape)
    for k, g in enumerate(site_grads):
        grads[k : k + nw] += g
    grads = np.einsum("wi,sxwy->sxiy", F_MATRIX, grads)
    return grads.flat[plan.free_index]


class _PassSolver:
    """The linear algebra of one Gauss–Newton pass, from its JᵀWJ H.

    One ``eigh`` of H gives its eigenpairs (V, λ).  Eigenvalues at or below
    1e-12 of the largest are dropped: the standard form's remaining gauge
    directions (6(N−2) of an all-bond-4 chain) and any weak data directions
    below the cut (ROADMAP item 1).  Solves, the Newton decrement and the
    covariance factor work on the live eigenpairs alone, so a dropped
    direction enters no step, whatever the damping, and has no variance.
    """

    def __init__(self, hess):
        self.evals, self.evecs = np.linalg.eigh(hess)
        self.scale = max(self.evals[-1], 1e-300)
        self.live = self.evals > 1e-12 * self.scale
        self.live_count = int(self.live.sum())

    def solve(self, b, damping):
        """(H + damping·I)⁻¹ b on the live directions."""
        return self.evecs @ np.where(self.live, (self.evecs.T @ b) / (self.evals + damping), 0.0)

    def decrement(self, g):
        """The live Newton decrement δ = gᵀH⁺g = Σ_live (vₖᵀg)²/λₖ."""
        return float(np.sum((self.evecs.T @ g)[self.live] ** 2 / self.evals[self.live]))

    def factor(self):
        """L = V·λ^(−1/2) of the live eigenpairs (n_par × n_live): H⁺ = L·Lᵀ."""
        factor = self.evecs[:, self.live]
        factor /= np.sqrt(self.evals[self.live])
        return factor

    def null_ratios(self) -> dict:
        """``largest_null_ratio`` and ``smallest_live_ratio``: the largest
        dropped and the smallest live eigenvalue over the largest, or None."""
        dropped, kept = self.evals[~self.live], self.evals[self.live]
        return {"largest_null_ratio": float(dropped.max() / self.scale) if dropped.size else None,
                "smallest_live_ratio": float(kept.min() / self.scale) if kept.size else None}


# why a fit stops; it converged only for the first
_EXIT_REASONS = ("decrement", "no_acceptable_step", "max_iter")


@dataclass
class FitResult:
    """Fitted standard-form MPO with covariance factor and convergence metadata.

    The final point's :class:`_PassSolver` gives ``covariance``, its factor
    L with H⁺ = L·Lᵀ; ``dof``, the residuals less its live directions; its
    ``null_ratios``; and ``shift_bound`` = √δ, δ = gᵀH⁺g its Newton
    decrement (g = JᵀW(y − f)): one more full step moves any output f by at
    most ``shift_bound``·SE_f to first order.

    ``exit_reason`` says why the fit stopped: ``decrement``
    (``shift_bound`` ≤ ``_SHIFT_BOUND``), ``no_acceptable_step`` (no trial
    passed the acceptance rule of :func:`gauss_newton_fit`) or ``max_iter``;
    ``converged`` is True only for ``decrement``.  Each pass, the start
    included, checks ``decrement`` and then ``max_iter`` once its JᵀWJ is
    factored and its gradient taken; a pass in which no trial is accepted
    ends with ``no_acceptable_step`` and keeps its unmoved point's factor.
    δ ≤ SSE, as δ projects the weighted residual onto the live weighted
    Jacobian columns, so an SSE at rounding level stops by ``decrement``.
    ``trace`` holds one dict per iteration: the SSE after it, the damping
    of its last trial, the number of inner trials, the |d2|/|d1| ratio of
    its last trial, the model evaluations it made, the wall seconds it
    spent forming the values and JᵀWJ (``assembly_s``) and factoring JᵀWJ
    (``eigh_s``), the ``shift_bound`` of the point it started from, and
    the ``step_cosine`` of its accepted velocity d1 with the previous
    accepted velocity (0.0 on the first pass or when no trial was accepted).
    """

    mpo: Mpo
    covariance: np.ndarray = field(repr=False)
    sse: float
    dof: int
    iterations: int
    exit_reason: str
    largest_null_ratio: float | None
    smallest_live_ratio: float | None
    shift_bound: float
    trace: list = field(repr=False, default_factory=list)

    @property
    def converged(self) -> bool:
        return self.exit_reason == "decrement"

    @property
    def reduced_sse(self) -> float:
        return self.sse / max(self.dof, 1)


def gauss_newton_fit(
    initial: Mpo,
    data: WindowTable,
    max_iterations: int = FIT_DEFAULTS["max_iterations"],
) -> FitResult:
    """Levenberg-damped Gauss-Newton weighted least squares.

    Each pass assembles JᵀWJ at the current point
    (:func:`_window_values_jacobian`), factors it once (:class:`_PassSolver`)
    and steps or exits, so the covariance, ``dof`` and null-space record
    read the final point's factor; a trial point costs one stacked value sweep.
    Each damped step carries a geodesic-acceleration correction (the
    residuals' second directional derivative along it, pulled back by
    :func:`_window_pullback` as JᵀWr is) against the same damped system.
    The damping starts at ``_INITIAL_DAMPING``, shrinks by 10 on accepted
    steps and grows gently (x2) on rejections.  A trial, the point θ + d1 +
    d2, is accepted when it does not raise the weighted SSE, or when (1 −
    cos β)·SSE_trial ≤ SSE_pass, β the angle between its velocity d1 and
    the last accepted velocity: along a curved, sloppy valley such bold
    steps save the passes that would otherwise crawl along it (Transtrum &
    Sethna, arXiv:1201.5885, uphill steps with b = 1).  The fit stops once
    the pass's live Newton decrement δ has √δ ≤ ``_SHIFT_BOUND``; δ is read
    at the final point itself, so the stop does not rest on the path the
    SSE took.

    Args:
        initial: standard-form starting point (else ``ValidationError``);
            its pinned entries stay fixed.
        data: measured correlations in the Z-shifted basis (else
            ``ValidationError``), with SEs, of every window of the chain
            (else ``CompletenessError``), none NaN (else ``DataError``).

    Returns:
        FitResult, usable but not ``converged`` unless it exits ``decrement``.
    """
    if not is_standard_form(initial):
        raise ValidationError("initial MPO must be in standard form")
    if data.basis != ZSHIFTED_BASIS:
        raise ValidationError(f"the fit expects z-shifted data, got {data.basis}")
    plan = _FitPlan(initial, data.window)
    if data.starts != list(range(1, plan.n_windows + 1)):
        raise CompletenessError(f"the fit needs all {plan.n_windows} windows, got {data.starts}")
    # one row per window, in chain order
    y = np.stack([data.values[s].ravel() for s in data.starts])
    if not np.all(np.isfinite(y)):
        raise DataError("correlation data contains NaN")
    w = 1.0 / np.clip(np.stack([data.ses[s].ravel() for s in data.starts]), _SE_FLOOR, None)
    # word 0 (all identity, constant 1) carries no residual
    w[:, 0] = 0.0
    omega = w**2
    n_rows = y.size - len(y)

    def model(point, want_jacobian):
        """Model values, and JᵀWJ when asked."""
        nonlocal evals_made
        evals_made += 1
        return _window_values_jacobian(point, omega if want_jacobian else None)

    def weighted_sse(v):
        r = ((y - v) * w).ravel()
        return float(r @ r)

    lam = _INITIAL_DAMPING
    iterations = 0
    exit_reason = None
    trace = []
    fd_step = 0.1
    last_step = None  # the velocity d1 of the last accepted trial
    # an accepted candidate is the next pass's point, its contraction kept
    current = _Point(plan, plan.base.flat[plan.free_index])
    while True:
        evals_made = 0
        clock = time.perf_counter()
        vals, hess = model(current, True)
        assembly_s = time.perf_counter() - clock
        clock = time.perf_counter()
        solver = _PassSolver(hess)
        eigh_s = time.perf_counter() - clock
        del hess
        # JᵀW(y - f) with W = diag(w²), and √δ of the live Newton decrement
        grad = _window_pullback(current, (y - vals) * w * w)
        shift_bound = float(np.sqrt(solver.decrement(grad)))
        # this point's SSE, bit-equal to its SSE as an accepted candidate;
        # then the stop, in order
        sse = weighted_sse(vals)
        if shift_bound <= _SHIFT_BOUND:
            exit_reason = "decrement"
        elif iterations >= max_iterations:
            exit_reason = "max_iter"
        if exit_reason is not None:
            break
        for trial in range(1, 81):
            step_lam = lam
            d1 = solver.solve(grad, lam)
            # geodesic acceleration: second directional derivative of the
            # residuals along d1
            vp, _ = model(_Point(plan, current.theta + fd_step * d1), False)
            vm, _ = model(_Point(plan, current.theta - fd_step * d1), False)
            curv = ((vp - 2.0 * vals + vm) / fd_step**2) * w
            d2 = -0.5 * solver.solve(_window_pullback(current, curv * w), lam)
            n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
            if n2 <= 0.75 * n1:
                candidate = _Point(plan, current.theta + (d1 + d2))
                cand_sse = weighted_sse(model(candidate, False)[0])
                cosine = 0.0 if last_step is None else float(
                    d1 @ last_step / (n1 * np.linalg.norm(last_step))
                )
                if cand_sse <= sse or (1.0 - cosine) * cand_sse <= sse:
                    lam = max(lam / 10.0, 1e-15)
                    last_step = d1
                    break
            lam *= 2.0
        else:  # no trial accepted: the point did not move, so its factor stands
            exit_reason = "no_acceptable_step"
            cand_sse, cosine = sse, 0.0
        iterations += 1
        row = {
            "sse": cand_sse,
            "lambda": step_lam,
            "trials": trial,
            "d2_over_d1": float(n2 / n1) if n1 > 0 else 0.0,
            "model_evals": evals_made,
            "assembly_s": assembly_s,
            "eigh_s": eigh_s,
            "shift_bound": shift_bound,
            "step_cosine": cosine,
        }
        trace.append(row)
        log.debug("gauss-newton iteration %d: %s", iterations, row)
        if exit_reason is not None:
            break
        del solver  # free before the next pass assembles JᵀWJ
        current = candidate
    return FitResult(
        mpo=current.mpo,
        covariance=solver.factor(),
        sse=sse,
        dof=n_rows - solver.live_count,
        iterations=iterations,
        exit_reason=exit_reason,
        shift_bound=shift_bound,
        trace=trace,
        **solver.null_ratios(),
    )


def propagate_joint(fit: FitResult, gradients):
    """Propagated SEs and joint covariance of differentiable scalars of the
    fitted MPO.

    The gradients are packed with the fitted MPO's free-entry masks and stacked
    into one matrix G.  Each row P_i = g_i·L comes from its own product with
    the covariance factor L, so it does not depend on which other scalars
    are propagated with it.  Each SE is sqrt(Σ_k P_ik²), a sum of squares,
    and the joint covariance is P·Pᵀ.

    Args:
        gradients: one list of per-site gradient arrays, shaped like the
            fit's site tensors, per scalar, e.g. from
            :func:`mpo_tomo.mpo.fidelity_gradient`.

    Returns:
        ``(ses, joint)``: (k,) SEs and the (k, k) covariance.
    """
    masks = free_masks(fit.mpo)
    g = np.stack([pack(site_grads, masks) for site_grads in gradients])
    p = np.stack([row @ fit.covariance for row in g])
    return np.sqrt([row @ row for row in p]), p @ p.T


def propagate_covariance(fit: FitResult, functional) -> tuple[float, float]:
    """Value and propagated SE of one differentiable scalar of the fitted
    MPO: ``functional(mpo)`` returns the value and its per-site gradient
    (see :func:`propagate_joint`)."""
    value, site_grads = functional(fit.mpo)
    ses, _ = propagate_joint(fit, [site_grads])
    return float(value), float(ses[0])


def fit_chain(
    corrs: WindowTable,
    k_sigma: float = FIT_DEFAULTS["k_sigma"],
    max_iterations: int = FIT_DEFAULTS["max_iterations"],
):
    """Reconstruct an MPO from five-qubit local correlations in the
    Z-shifted basis, as :func:`~mpo_tomo.correlations.moments_to_zshifted`
    gives them.

    Builds the correlation matrices, estimates the bond dimensions from their
    singular values, reconstructs an initial guess by pseudoinversion,
    compresses it to the estimated bonds, converts it to standard form and
    refines it by weighted Gauss-Newton (:func:`gauss_newton_fit`).

    Returns:
        ``(bond_estimate, inversion, fit)``: the
        :class:`~mpo_tomo.reconstruct.BondEstimate`, the
        :class:`~mpo_tomo.reconstruct.InversionResult` and the
        :class:`FitResult`.
    """
    pauli = zshifted_to_pauli(corrs)
    corr_matrices = build_corr_matrices(pauli)
    bond_estimate = estimate_bond_dims(corr_matrices, k_sigma)
    inversion = invert_reconstruct(
        pauli, 5, ranks=bond_estimate.dims, residual_tol=np.inf
    )
    guess = compress(inversion.mpo, corr_matrices, bond_estimate.dims)
    fit = gauss_newton_fit(to_standard_form(guess), corrs, max_iterations=max_iterations)
    return bond_estimate, inversion, fit


# --- persistence -------------------------------------------------------------


# the fit record's keys, each with the rule its value in fit_report.json keeps
_RECORD_RULES = {
    "sse": ("a finite number >= 0", lambda x: is_finite(x) and x >= 0),
    "dof": ("an integer >= 0", lambda x: is_int(x) and x >= 0),
    "iterations": ("an integer >= 0", lambda x: is_int(x) and x >= 0),
    "exit_reason": (f"one of {_EXIT_REASONS}", lambda x: x in _EXIT_REASONS),
    "largest_null_ratio": ("null or a finite number", lambda x: x is None or is_finite(x)),
    "smallest_live_ratio": ("null or a finite number", lambda x: x is None or is_finite(x)),
    "shift_bound": ("a finite number >= 0", lambda x: is_finite(x) and x >= 0),
}

# covariance.bin holds the factor L of the covariance L·Lᵀ; a bundle loads only under this header
_COVARIANCE_HEADER = {"form": "factor", "dtype": "float64", "order": "row-major",
                      "parameter_ordering": PARAMETER_ORDERING}


def fit_record(fit: FitResult) -> dict:
    """The fit's summary shared by ``fit_report.json``, ``stages.json`` and
    the ``fit`` section of ``report.json``."""
    # the null directions are the columns the covariance factor does not have
    n_par, n_live = fit.covariance.shape
    record = {key: getattr(fit, key) for key in _RECORD_RULES}
    return record | {"converged": fit.converged, "null_directions": n_par - n_live}


def save_fit_bundle(fit: FitResult, directory) -> None:
    """Persist a fit: MPO JSON, covariance factor binary + header, report JSON."""
    os.makedirs(directory, exist_ok=True)
    save_json(fit.mpo, os.path.join(directory, "mpo.json"))
    factor = np.ascontiguousarray(fit.covariance, dtype=np.float64)
    factor.tofile(os.path.join(directory, "covariance.bin"))
    header = {**_COVARIANCE_HEADER, "shape": list(factor.shape)}
    write_json(os.path.join(directory, "covariance_header.json"), header)
    write_json(os.path.join(directory, "fit_report.json"), fit_record(fit))


def _read_json_object(path) -> dict:
    with open(path) as fh:
        return {**json.load(fh)}  # TypeError unless the file holds a JSON object


def load_fit_bundle(directory) -> FitResult:
    """Load a fit written by :func:`save_fit_bundle`.

    Raises:
        CompletenessError: a bundle file is missing.
        ValidationError: a bundle file is unreadable or incomplete, its
            covariance header is not a factor's of the MPO's shape (as with a
            dense covariance), the factor holds a non-finite entry, or the
            report lacks a record key or breaks its rule.
    """

    def read(name, load):
        path = os.path.join(directory, name)
        try:
            return load(path)
        except FileNotFoundError as exc:
            raise CompletenessError(f"the fit bundle has no {name} ({path})") from exc
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"cannot read {name} of the fit bundle: {exc!r}") from exc

    mpo = read("mpo.json", load_json)
    n_free = n_free_parameters(free_masks(mpo))
    header = read("covariance_header.json", _read_json_object)
    for key, want in _COVARIANCE_HEADER.items():
        if header.get(key) != want:
            raise ValidationError(f"covariance_header.json: {key} is {header.get(key)!r}, not {want!r}")
    # the factor has one row per free parameter and at most as many columns
    shape = header.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2 and all(map(is_int, shape))
            and shape[0] == n_free and shape[1] in range(n_free + 1)):
        raise ValidationError(
            f"covariance_header.json: shape {shape!r} is not [{n_free}, n_live <= {n_free}]"
        )
    n_live = shape[1]
    factor = read("covariance.bin", functools.partial(np.fromfile, dtype=np.float64))
    if factor.size != n_free * n_live:
        raise ValidationError(f"covariance.bin holds {factor.size} values, not {n_free} x {n_live}")
    n_bad = np.count_nonzero(~np.isfinite(factor))
    if n_bad:
        raise ValidationError(f"covariance.bin holds {n_bad} non-finite values")
    report = read("fit_report.json", _read_json_object)
    for key, (rule, holds) in _RECORD_RULES.items():
        if key not in report:
            raise ValidationError(f"fit_report.json: {key} is missing")
        if not holds(report[key]):
            raise ValidationError(f"fit_report.json: {key} is {report[key]!r}, not {rule}")
    return FitResult(mpo, factor.reshape(n_free, n_live), **{key: report[key] for key in _RECORD_RULES})
