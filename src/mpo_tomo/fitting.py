"""Weighted Gauss-Newton fit of a standard-form MPO to local correlations.

Residuals are the differences between measured window correlations and the
chain-product values of the MPO, each weighted by the reciprocal standard
error.  The analytic Jacobian follows from the product rule: removing one
site from the chain leaves a left prefix and a right suffix whose outer
product is the derivative.  That outer product, one slab per window site,
does not depend on the site's own letter, so no dense Jacobian block is
built: each site pair's block of JᵀWJ is written once, from its Grams over
the words grouped by the letters of the two sites, summed over the windows
that hold both sites.  In standard form a window's
values depend only on its own sites and on the identity slices of the sites
left of it.  Those identity slices reach the window only through its right
environment B at its left edge, so their terms follow from the Grams of Bᵀ,
carried leftwards through the identity slices in one sweep per pass.
Products Jᵀu (the gradient and the geodesic term) run the windows' left
sweep in reverse from their cotangents u.  The fit takes data in the Z-shifted
basis only and fits it there (the model chain is contracted with the
involution F on every site), which keeps the residual weights statistically
independent.  This module alone reads the fit's covariance and free-entry
masks: every reported SE comes from :func:`propagate_joint`.

A fit builds its free-entry layout, pinned template and index tables once
(:class:`_FitPlan`), and contracts each parameter point once
(:class:`_Point`): θ goes straight into zero-padded data-basis tensors, and
one left sweep over all windows, stacked on a leading axis
(:func:`mpo_tomo.mpo.left_environments`), gives every window's left
environments.  The values, JᵀWJ and every pullback at a point share them.
The data, weights, values and cotangents of a fit are ``(n_windows,
4**window)`` arrays, one row per window in chain order.
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
from .correlations import F_MATRIX, ZSHIFTED_BASIS, PauliCorrelationSet, zshifted_to_pauli
from .errors import CompletenessError, DataError, ValidationError
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

# the fit settings, each overridable in the run config's "fit" section
FIT_DEFAULTS = {"k_sigma": 5.0, "max_iterations": 200, "tol": 1e-10, "se_floor": 1e-9}


class _FitPlan:
    """What stays fixed over one fit: the free-entry layout of the standard
    form, its pinned template, the letter maps of the data-basis map K = F
    and the assembly's index tables.

    Every site is zero-padded to the largest bond D, the fit's only layout:
    a point's site tensors are one ``(N, D, 4, D)`` array, whose slice
    ``[k : k + n_windows]`` is window offset k of all windows.  The padding
    stays exactly zero and no free entry reads it.

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
        # at q), by the one letter of a site with itself, or by the site's
        # letter against the boundary
        self.k_pair = np.kron(F_MATRIX, F_MATRIX)
        self.k_same = (F_MATRIX[:, :, None] * F_MATRIX[:, None, :]).reshape(4, 16)
        # each site's free entries as flat (pauli, row, column) indices of
        # its padded block, and the (row, column) of its identity-slice ones
        self.rows = [(i * bond + x) * bond + y for i, x, y in entries]
        self.ident_free = [np.nonzero(m[:, 0, :]) for m in self.masks]
        self.words, self.slab_rows = _letter_tables(window)


class _Point:
    """One parameter point of a fit and its chain, contracted when first
    asked for and kept with the point: the padded data-basis site tensors,
    their identity slices with the prefix products, and every window's left
    environments.  Values, JᵀWJ and every pullback at the point share them.
    No suffix is contracted: with the standard form's pinned entries, every
    product of data-basis identity slices out to the chain's right end is
    exactly e0 at every point, so a window's right edge reads bond index 0."""

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

    @functools.cached_property
    def chain(self):
        """The (N, D, D) identity slices, and their products that reach a
        window: the (1, D) prefix at each window's left edge, indexed by the
        window's first site."""
        ident = self.tensors[:, :, 0, :]
        return ident, left_environments(ident[: self.plan.n_windows - 1], np.eye(1, self.plan.bond))

    @property
    def window_sites(self) -> list[np.ndarray]:
        """Site k of every window: the (n_windows, D, 4, D) slices."""
        return [self.tensors[k : k + self.plan.n_windows] for k in range(self.plan.window)]

    @functools.cached_property
    def lefts(self) -> list[np.ndarray]:
        """Every window's left environments, stacked on a leading window
        axis: entry k is (n_windows, 4**k, D), over the window's first k
        sites from the prefix at its left edge."""
        _, prefix = self.chain
        return left_environments(self.window_sites, np.stack(prefix))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """(n_windows, 4**window) model values in site-major word order."""
        # a copy: a view would keep a trial point's environments alive
        return self.lefts[-1][:, :, 0].copy()


def _window_slabs(point: _Point):
    """Derivative slabs of each window, one window at a time.

    Requires standard form, so sites right of a window never contribute
    derivatives through their pinned identity columns, and sites left of it
    only through their identity slices.  The derivative of word (a, w, b) by
    the data-basis entry (x, w', y) of window site p is
    ``δ(w, w') lefts[p][a, x] rights[p+1][y, b]``, so one slab
    E_p = lefts[p] ⊗ rights[p+1] serves all four letters of the site.  The
    identity slices of the sites left of the window reach its values only
    through the prefix at its left edge, whose derivative is B =
    ``rights[0]``, the window's right environment there.  The left
    environments are the point's.

    Yields:
        ``(first, slabs, boundary)`` in chain order: the window's 0-based
        first site; slabs, one per window site, (4**(window-1), D**2) with
        rows over the letters of the other window sites in site-major order
        and columns over the padded (x, y); boundary B (D, 4**window).  The
        slab columns and boundary rows past a site's own bonds are zero.
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
        yield first, window_slabs, rights[0]


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
    is summed.

    The identity slices of the sites left of a window reach it through its
    boundary B, whose Grams G_BB = Bᵀ diag(ω) B and G_B,own (B against the
    window's own columns, grouped by letter like the slabs) are kept per
    window.  One leftward sweep per pass then carries them through the
    identity slices, as :func:`_window_pullback` carries its boundary
    gradients, and adds each site's identity-slice rows and columns of JᵀWJ
    as two contiguous slices.

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
    boundary_grams = {}  # first site -> (G_BB, G_B,own)
    for first, slabs, boundary in _window_slabs(point):
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
        if first:
            bw = boundary * omega[first]
            cross = []
            for p, e_p in enumerate(slabs):
                g = np.matmul(bw[:, words[p]].transpose(1, 0, 2), e_p)
                cross.append(_free_block(g, F_MATRIX, slice(None), plan.rows[first + p]))
            boundary_grams[first] = (bw @ boundary.T, np.hstack(cross))
        # the pairs no later window holds: site `first`'s, and after the
        # last window every pair left
        done = first if first + 1 < plan.n_windows else len(plan.rows)
        for a, b in [key for key in grams if key[0] <= done]:
            at_a, at_b = slice(offsets[a], offsets[a + 1]), slice(offsets[b], offsets[b + 1])
            letter_map = plan.k_same if a == b else plan.k_pair
            hess[at_a, at_b] = _free_block(grams.pop((a, b)), letter_map, plan.rows[a], plan.rows[b])
            if a < b:
                hess[at_b, at_a] = hess[at_a, at_b].T
    # The derivative by entry (x, y) of the identity slice of site s, on a
    # window right of it, is prefix[s][0, x] (ident[s+1] ⋯ ident[first-1] B)[y].
    # ``carry`` holds, over every packed column, the boundary Grams of the
    # windows right of s carried to its right bond, and ``square`` the
    # G_BB carried there from both sides.
    ident, prefix = point.chain
    carry = np.zeros((plan.bond, offsets[-1]))
    square = np.zeros((plan.bond, plan.bond))
    for s in range(plan.n_windows - 2, -1, -1):
        carry = ident[s + 1] @ carry
        square = ident[s + 1] @ square @ ident[s + 1].T
        if s + 1 in boundary_grams:
            g_bb, cross = boundary_grams.pop(s + 1)
            square += g_bb
            carry[:, offsets[s + 1] : offsets[s + 1 + window]] += cross
        x, y = plan.ident_free[s]
        p_x = prefix[s][0, x]
        ident_s = slice(offsets[s], offsets[s] + len(x))
        # the identity-slice columns of s, for the sites left of it
        carry[:, ident_s] += square[:, y] * p_x
        right = slice(offsets[s], None)
        strip = p_x[:, None] * carry[y, right]
        # the square of s with itself reaches JᵀWJ through both adds below
        strip[:, : len(x)] *= 0.5
        hess[ident_s, right] += strip
        hess[right, ident_s] += strip.T
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


@functools.cache
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
    # every caller shares these arrays
    for table in words + [t for rows in slab_rows for t in rows.values()]:
        table.flags.writeable = False
    return words, slab_rows


def _window_pullback(point: _Point, cotangents) -> np.ndarray:
    """Packed J^T u of the window values for per-window cotangents u.

    Each window's values come from one left sweep over its sites from the
    prefix at its left edge, so u goes back through the reverse sweep
    (:func:`mpo_tomo.mpo.left_environments_vjp`) to those sites and to the
    prefix, for all windows at once from the point's stacked left
    environments.  The prefix gradients of all windows are carried leftwards
    in one vector ``q`` to the identity slices of the sites left of them.

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
    ident, prefix = point.chain
    # the suffix at every window's right edge is e0 (see :class:`_Point`)
    cot = cotangents[:, :, None] * np.eye(1, plan.bond)
    site_grads, cot = left_environments_vjp(point.window_sites, point.lefts, cot)
    # w.r.t. the data-basis tensors; the identity slice of the site left of
    # each window sees every window from there on through q
    grads = np.zeros(point.tensors.shape)
    q = np.zeros(plan.bond)
    for first in range(nw - 1, -1, -1):
        q = ident[first] @ q + cot[first, 0]
        if first:
            grads[first - 1, :, 0, :] += np.outer(prefix[first - 1][0], q)
    for k, g in enumerate(site_grads):
        grads[k : k + nw] += g
    grads = np.einsum("wi,sxwy->sxiy", F_MATRIX, grads)
    return grads.flat[plan.free_index]


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
    |d2|/|d1| ratio of its last trial, the model evaluations it made, and the
    wall seconds it spent forming the values and JᵀWJ (``assembly_s``) and in
    the eigendecomposition of JᵀWJ (``eigh_s``).

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
    max_iter: int = FIT_DEFAULTS["max_iterations"],
    tol: float = FIT_DEFAULTS["tol"],
    se_floor: float = FIT_DEFAULTS["se_floor"],
) -> FitResult:
    """Levenberg-damped Gauss-Newton weighted least squares.

    JᵀWJ is assembled window by window from letter-grouped site-pair Grams
    (see :func:`_window_values_jacobian`); JᵀWr and the geodesic term come from
    :func:`_window_pullback`.  Each pass assembles JᵀWJ at the current point
    and takes its one ``eigh``, then steps or exits, so the covariance,
    ``dof`` and null-space record read the final point's factor.  The
    normal equations are solved in the
    Hessian eigenbasis with the residual gauge directions of the standard
    form projected out; each step carries a geodesic-acceleration correction
    (the second directional derivative of the residuals along the step).
    The damping starts at ``_INITIAL_DAMPING``, shrinks by 10 on accepted
    steps and grows gently (x2) on rejections.  Accepted steps never
    increase the weighted SSE.

    Args:
        initial: standard-form starting point; its pinned entries stay fixed.
        data: measured correlations in the Z-shifted basis, with SEs, of
            every window of the chain.

    Returns:
        FitResult; ``converged`` is False when ``max_iter`` was exhausted or
        no trial step was acceptable (the result is usable but flagged).
        ``exit_reason`` and ``trace`` record why and how the iteration stopped.
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
    w = 1.0 / np.clip(np.stack([data.ses[s].ravel() for s in data.starts]), se_floor, None)
    # word 0 (all identity, constant 1) carries no residual
    w[:, 0] = 0.0
    omega = w**2
    n_rows = y.size - len(y)
    # the weighted SSE that rounding of the model values alone leaves; a fit
    # below it has nothing left to polish
    rounding_sse = float(n_rows * (np.finfo(float).eps * w.max()) ** 2)

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
    # an accepted candidate is the next pass's point, its chain kept
    current = _Point(plan, plan.base.flat[plan.free_index])
    while True:
        evals_made = 0
        clock = time.perf_counter()
        vals, hess = model(current, True)
        assembly_s = time.perf_counter() - clock
        # work in the Hessian eigenbasis: residual gauge freedom of the
        # standard form leaves exact null directions that must not enter the
        # step regardless of the damping
        clock = time.perf_counter()
        evals, evecs = np.linalg.eigh(hess)
        eigh_s = time.perf_counter() - clock
        del hess
        scale = max(evals[-1], 1e-300)
        live = evals > 1e-12 * scale
        if iterations == 0:
            sse = weighted_sse(vals)
            if sse <= rounding_sse:
                exit_reason = "rounding_floor"
        if exit_reason is None and iterations >= max_iter:
            exit_reason = "max_iter"
        if exit_reason is not None:
            break
        # JᵀW(y - f) with W = diag(w²)
        grad = _window_pullback(current, (y - vals) * w * w)
        gproj = evecs.T @ grad
        accepted = False
        for trial in range(1, 81):
            step_lam = lam
            d1 = evecs @ np.where(live, gproj / (evals + lam), 0.0)
            # geodesic acceleration: second directional derivative of the
            # residuals along d1, solved against the same damped system
            vp, _ = model(_Point(plan, current.theta + fd_step * d1), False)
            vm, _ = model(_Point(plan, current.theta - fd_step * d1), False)
            curv = ((vp - 2.0 * vals + vm) / fd_step**2) * w
            cproj = evecs.T @ _window_pullback(current, curv * w)
            d2 = -0.5 * (evecs @ np.where(live, cproj / (evals + lam), 0.0))
            n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
            if n2 <= 0.75 * n1:
                candidate = _Point(plan, current.theta + d1 + d2)
                cand_sse = weighted_sse(model(candidate, False)[0])
                if cand_sse <= sse:
                    accepted = True
                    lam = max(lam / 10.0, 1e-15)
                    break
            lam *= 2.0
        iterations += 1
        if accepted:
            del evecs  # free before the next pass assembles JᵀWJ
            decrease = sse - cand_sse
            current, sse = candidate, cand_sse
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
            "assembly_s": assembly_s,
            "eigh_s": eigh_s,
        }
        trace.append(row)
        log.debug("gauss-newton iteration %d: %s", iterations, row)
        if not accepted:
            break  # the point did not move, so its factor stands
    converged = exit_reason in ("tolerance", "rounding_floor")
    # covariance of the free parameters at the final iterate, (V s)(V s)ᵀ
    # with s² the inverse live eigenvalues; scaling evecs in place keeps a
    # second n_par² temporary out of the peak
    evecs *= np.sqrt(np.where(live, 1.0 / np.where(live, evals, 1.0), 0.0))
    cov = evecs @ evecs.T
    # the gauge null directions dropped here carry no degree of freedom
    dof = n_rows - int(live.sum())
    return FitResult(
        mpo=current.mpo,
        covariance=cov,
        sse=sse,
        dof=dof,
        iterations=iterations,
        converged=converged,
        exit_reason=exit_reason,
        trace=trace,
        null_directions=int(plan.offsets[-1] - live.sum()),
        largest_null_ratio=float(evals[~live].max() / scale) if not live.all() else None,
        smallest_live_ratio=float(evals[live].min() / scale) if live.any() else None,
    )


def propagate_joint(fit: FitResult, gradients):
    """Propagated SEs and joint covariance of differentiable scalars of the
    fitted MPO.

    The gradients are packed with the fitted MPO's free-entry masks and stacked
    into one matrix G, and the joint covariance is G·(cov·Gᵀ).  Each SE is
    the square root of its own gᵀ·(cov·g), the diagonal of that product up
    to rounding, so it does not depend on which other scalars are
    propagated with it.

    Args:
        gradients: one list of per-site gradient arrays, shaped like the
            fit's site tensors, per scalar, e.g. from
            :func:`mpo_tomo.mpo.fidelity_gradient`.

    Returns:
        ``(ses, joint)``: (k,) SEs and the (k, k) covariance.
    """
    masks = free_masks(fit.mpo)
    g = np.stack([pack(site_grads, masks) for site_grads in gradients])
    cov_g = [fit.covariance @ row for row in g]
    variances = np.array([row @ col for row, col in zip(g, cov_g)])
    return np.sqrt(np.maximum(variances, 0.0)), g @ np.stack(cov_g, axis=1)


def propagate_covariance(fit: FitResult, functional) -> tuple[float, float]:
    """Value and propagated SE of one differentiable scalar of the fitted
    MPO: ``functional(mpo)`` returns the value and its per-site gradient
    (see :func:`propagate_joint`)."""
    value, site_grads = functional(fit.mpo)
    ses, _ = propagate_joint(fit, [site_grads])
    return float(value), float(ses[0])


def fit_chain(
    corrs: PauliCorrelationSet,
    k_sigma: float = FIT_DEFAULTS["k_sigma"],
    max_iterations: int = FIT_DEFAULTS["max_iterations"],
    tol: float = FIT_DEFAULTS["tol"],
    se_floor: float = FIT_DEFAULTS["se_floor"],
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
    fit = gauss_newton_fit(
        to_standard_form(guess),
        corrs,
        max_iter=max_iterations,
        tol=tol,
        se_floor=se_floor,
    )
    return bond_estimate, inversion, fit


# --- persistence -------------------------------------------------------------


_NULL_SPACE_KEYS = ("null_directions", "largest_null_ratio", "smallest_live_ratio")


def fit_record(fit: FitResult) -> dict:
    """The fit's summary shared by ``fit_report.json``, ``stages.json`` and
    the ``fit`` section of ``report.json``."""
    keys = ("sse", "dof", "iterations", "converged", "exit_reason", *_NULL_SPACE_KEYS)
    return {key: getattr(fit, key) for key in keys}


def save_fit_bundle(fit: FitResult, directory) -> None:
    """Persist a fit: MPO JSON, covariance binary + header, report JSON."""
    os.makedirs(directory, exist_ok=True)
    save_json(fit.mpo, os.path.join(directory, "mpo.json"))
    cov = np.ascontiguousarray(fit.covariance, dtype=np.float64)
    cov.tofile(os.path.join(directory, "covariance.bin"))
    header = {
        "shape": list(cov.shape),
        "dtype": "float64",
        "order": "row-major",
        "parameter_ordering": PARAMETER_ORDERING,
    }
    write_json(os.path.join(directory, "covariance_header.json"), header)
    write_json(os.path.join(directory, "fit_report.json"), fit_record(fit))


def _read_report(path) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    required = ("sse", "dof", "iterations", "converged")
    # the exit reason and null-space fields may predate the bundle; an older
    # bundle's "basis" key is not read, since the fit has only one basis
    optional = ("exit_reason", *_NULL_SPACE_KEYS)
    return {**{key: report[key] for key in required}, **{key: report.get(key) for key in optional}}


def _read_header_shape(path) -> tuple:
    with open(path) as fh:
        return tuple(json.load(fh)["shape"])


def load_fit_bundle(directory) -> FitResult:
    """Load a fit written by :func:`save_fit_bundle`.

    Raises:
        CompletenessError: a bundle file is missing.
        ValidationError: a bundle file is unreadable or incomplete, the
            covariance does not match the MPO, or it holds a non-finite entry.
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
    shape = read("covariance_header.json", _read_header_shape)
    if shape != (n_free, n_free):
        raise ValidationError(
            f"covariance shape {list(shape)} does not match the MPO's "
            f"{n_free} free parameters"
        )
    cov = read("covariance.bin", functools.partial(np.fromfile, dtype=np.float64))
    if cov.size != n_free * n_free:
        raise ValidationError(
            f"covariance.bin holds {cov.size} values, the header declares "
            f"{n_free} x {n_free}"
        )
    n_bad = np.count_nonzero(~np.isfinite(cov))
    if n_bad:
        raise ValidationError(f"covariance.bin holds {n_bad} non-finite values")
    report = read("fit_report.json", _read_report)
    return FitResult(mpo=mpo, covariance=cov.reshape(n_free, n_free), **report)
