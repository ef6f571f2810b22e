"""Gauss-Newton fit, covariance propagation, `fit_chain` and the fit bundle."""

import logging

import numpy as np
import pytest

from _oracles import (
    dense_covariance,
    dense_window_jacobian,
    fidelity_functional,
    right_environments,
    slab_block,
    window_columns,
    window_correlation_set,
    window_zshifted_set,
)

from mpo_tomo.cluster import ErrorModel, ideal_cluster_mpo, noisy_cluster_model
from mpo_tomo.correlations import F_MATRIX
from mpo_tomo.errors import CompletenessError, DataError, ValidationError
from mpo_tomo.fitting import (
    FIT_DEFAULTS,
    _FitPlan,
    _PassSolver,
    _Point,
    _window_pullback,
    _window_slabs,
    _window_values_jacobian,
    fit_chain,
    fit_record,
    gauss_newton_fit,
    load_fit_bundle,
    propagate_covariance,
    propagate_joint,
    save_fit_bundle,
)
from mpo_tomo.measurement import synthesize_dataset
from mpo_tomo.mpo import Mpo, correlation_gradient, fidelity, fidelity_gradient
from mpo_tomo.standard_form import free_masks, n_free_parameters, pack, to_standard_form, unpack


def point_state(mpo, window):
    """The fit's point state of ``mpo``, under a plan of its own."""
    plan = _FitPlan(mpo, window)
    return _Point(plan, pack(mpo.tensors, plan.masks))


@pytest.fixture(scope="module")
def sf_noisy6(noisy6):
    return to_standard_form(noisy6)


@pytest.fixture(scope="module")
def noisy6_fit(noisy6):
    """Z-shifted correlations of a noisy 6-qubit chain at 10⁷ shots, and
    their all-bond-4 ``fit_chain`` fit."""
    from mpo_tomo.correlations import moments_to_zshifted

    data = moments_to_zshifted(synthesize_dataset(noisy6, 5, 1.0, 10**7, seed=1))
    return data, fit_chain(data)[2]


def final_jtwj(data, fit):
    """JᵀWJ at the fit's final point, under the fit's weights."""
    weights = np.stack([1.0 / np.clip(data.ses[s].ravel(), 1e-9, None) for s in data.starts])
    weights[:, 0] = 0.0
    return _window_values_jacobian(point_state(fit.mpo, 5), weights**2)[1]


@pytest.fixture(scope="module")
def sf_perturbed8():
    """A generic N=8 standard-form MPO: a noisy cluster with perturbed parameters."""
    base = to_standard_form(noisy_cluster_model(8, ErrorModel.uniform(8, 0.09, 0.06)))
    masks = free_masks(base)
    theta = pack(base.tensors, masks)
    local = np.random.default_rng(8)
    return unpack(theta + local.normal(scale=1e-2, size=theta.size), base, masks)


# the interior bonds of the unequal-bond chains: N = 5 with one window, whose
# boundary bond is 1, and N = 8 with bonds below and above 4
UNEQUAL_BONDS = [(2, 5, 4), (2, 4, 3, 5, 3, 4)]


def random_chain(bonds):
    """A random chain with the given interior bonds, then 4 and 1."""
    rng = np.random.default_rng(len(bonds))
    dims = [1, *bonds, 4, 1]
    return Mpo([rng.normal(size=(dims[k], 4, dims[k + 1])) for k in range(len(dims) - 1)])


def unequal_bond_chain(bonds):
    """The standard form of :func:`random_chain`, which keeps its bonds."""
    mpo = to_standard_form(random_chain(bonds))
    assert [t.shape[2] for t in mpo.tensors] == [*bonds, 4, 1]
    return mpo


def dense_jacobian(mpo, window=5):
    """The reference rows x n_params Jacobian, without the constant word 0."""
    jacs = dense_window_jacobian(mpo, window)
    return np.vstack([jacs[s][1:] for s in sorted(jacs)])


def folded_jacobians(mpo, window=5):
    """Each window's full-width Jacobian, rebuilt from its slabs: the own
    columns expanded from the slabs, the columns of the sites left of the
    window zero."""
    masks = free_masks(mpo)
    offsets = np.cumsum([0] + [int(m.sum()) for m in masks])
    out = {}
    for first, slabs in _window_slabs(point_state(mpo, window)):
        full = np.zeros((4**window, offsets[-1]))
        full[:, offsets[first] : offsets[first + window]] = slab_block(slabs, masks[first : first + window])
        out[first + 1] = full
    return out


class TestStandardFormParameters:
    def test_mask_structure(self, sf_noisy6):
        masks = free_masks(sf_noisy6)
        assert not masks[-1].any()  # last site fully pinned
        assert not masks[0][0, 0, 0]  # leading 1
        for k in range(1, 5):
            identity = masks[k][:, 0, :]
            assert not identity[0, 0]
            assert not np.tril(identity, -1).any()

    def test_pack_unpack_round_trip(self, sf_noisy6, rng):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        assert theta.size == n_free_parameters(masks)
        rebuilt = unpack(theta, sf_noisy6, masks)
        for a, b in zip(rebuilt.tensors, sf_noisy6.tensors):
            assert np.array_equal(a, b)
        theta2 = rng.normal(size=theta.size)
        m2 = unpack(theta2, sf_noisy6, masks)
        assert np.allclose(pack(m2.tensors, masks), theta2)

    def test_pinned_entries_preserved(self, sf_noisy6, rng):
        masks = free_masks(sf_noisy6)
        theta = rng.normal(size=n_free_parameters(masks))
        m2 = unpack(theta, sf_noisy6, masks)
        assert np.allclose(m2.tensors[-1][:, :, 0], np.eye(4))
        assert m2.tensors[0][0, 0, 0] == 1.0


class TestLocalWindows:
    """Standard form pins row 0 of the identity slice of sites 1..N-2 to
    e0ᵀ, so every window's values depend on its own sites alone."""

    @pytest.mark.parametrize("chain", ["noisy6", "noisy8", *UNEQUAL_BONDS])
    def test_windows_depend_on_their_own_sites(self, chain, request):
        if chain == "noisy6":
            raw = request.getfixturevalue("noisy6")
        elif chain == "noisy8":
            raw = noisy_cluster_model(8, ErrorModel.uniform(8, 0.09, 0.06))
        else:
            raw = random_chain(chain)
        mpo = to_standard_form(raw)
        for t in mpo.tensors[:-2]:
            assert np.array_equal(t[0, 0, :], np.eye(1, t.shape[2])[0])
        # the same operator: its Pauli coefficients up to the trace normalization
        want, got = (right_environments(m.tensors)[0][0] for m in (raw, mpo))
        want, got = want / want[0], got / got[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # no window reaches the identity-slice entries of a site left of it
        masks = free_masks(mpo)
        offsets = np.cumsum([0] + [int(m.sum()) for m in masks])
        n_ident = [int(m[:, 0, :].sum()) for m in masks]
        checked = 0
        for start, jac in dense_window_jacobian(mpo, 5).items():
            for s in range(start - 1):
                assert not jac[:, offsets[s] : offsets[s] + n_ident[s]].any(), (start, s)
                checked += n_ident[s]
        # site 1's identity slice is all pinned, so only N > 6 has a site to check
        assert checked or mpo.n_qubits <= 6


class TestJacobian:
    def test_matches_finite_differences(self, sf_noisy6):
        masks = free_masks(sf_noisy6)
        theta0 = pack(sf_noisy6.tensors, masks)
        jacs = folded_jacobians(sf_noisy6)
        jac = np.vstack([jacs[s] for s in sorted(jacs)])

        def value_vec(th):
            m = unpack(th, sf_noisy6, masks)
            v, _ = _window_values_jacobian(point_state(m, 5))
            return v.ravel()

        local = np.random.default_rng(5)
        eps = 1e-6
        for i in local.choice(theta0.size, 20, replace=False):
            tp = theta0.copy()
            tp[i] += eps
            tm = theta0.copy()
            tm[i] -= eps
            fd = (value_vec(tp) - value_vec(tm)) / (2 * eps)
            denom = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(fd - jac[:, i])) / denom < 1e-6

    def test_no_dependence_outside_window_columns(self, sf_perturbed8):
        # the per-window assembly drops these derivatives as exact zeros
        masks = free_masks(sf_perturbed8)
        theta0 = pack(sf_perturbed8.tensors, masks)
        cols = window_columns(masks, 5)

        def values(th):
            v, _ = _window_values_jacobian(point_state(unpack(th, sf_perturbed8, masks), 5))
            return v

        eps = 1e-6
        for i in range(theta0.size):
            tp = theta0.copy()
            tp[i] += eps
            tm = theta0.copy()
            tm[i] -= eps
            vp, vm = values(tp), values(tm)
            for s, c in cols.items():
                if i not in c:
                    fd = (vp[s - 1] - vm[s - 1]) / (2 * eps)
                    assert np.max(np.abs(fd)) < 1e-12, (s, i)

    @pytest.mark.parametrize("mpo_name", ["sf_noisy6", "sf_perturbed8"])
    def test_assembly_matches_dense_products(self, mpo_name, request):
        # sf_perturbed8's windows 2-4 have sites left of them, whose free
        # identity-slice entries the reference Jacobian holds as columns of
        # exact zeros and the assembly never visits
        mpo = request.getfixturevalue(mpo_name)
        jacs = dense_window_jacobian(mpo, 5)
        starts = sorted(jacs)
        local = np.random.default_rng(3)
        w = local.uniform(0.5, 2.0, size=(len(starts), 4**5 - 1))
        r = local.normal(size=w.shape)
        # word 0 carries no weight, and window 1 is left out by a zero row
        weights = np.pad(w, ((0, 0), (1, 0)))
        weights[0] = 0.0
        vals, got = _window_values_jacobian(point_state(mpo, 5), weights**2)
        jw = np.vstack([jacs[s] * weights[s - 1][:, None] for s in starts[1:]])
        hess = jw.T @ jw
        assert np.max(np.abs(got - hess)) <= 1e-12 * np.max(np.abs(hess))
        only, none = _window_values_jacobian(point_state(mpo, 5))
        assert none is None
        assert np.array_equal(vals, only)
        jw = dense_jacobian(mpo) * w.ravel()[:, None]
        grad = jw.T @ (w * r).ravel()
        u = np.stack([np.concatenate(([0.0], row)) for row in w * w * r])
        got = _window_pullback(point_state(mpo, 5), u)
        assert np.max(np.abs(got - grad)) <= 1e-12 * np.max(np.abs(grad))

    @pytest.mark.parametrize(
        "bonds, left_out",
        # windows 2 and 4 of the N = 8 chain unweighted
        list(zip(UNEQUAL_BONDS, [(), (2, 4)])),
    )
    def test_assembly_matches_dense_products_unequal_bonds(self, bonds, left_out):
        rng = np.random.default_rng(len(bonds))
        mpo = unequal_bond_chain(bonds)
        jacs = dense_window_jacobian(mpo, 5)
        weights = np.pad(rng.uniform(0.5, 2.0, size=(len(jacs), 4**5 - 1)), ((0, 0), (1, 0)))
        weights[[s - 1 for s in left_out]] = 0.0
        _, got = _window_values_jacobian(point_state(mpo, 5), weights**2)
        jw = np.vstack([jacs[s] * weights[s - 1][:, None] for s in sorted(jacs) if s not in left_out])
        hess = jw.T @ jw
        assert np.max(np.abs(got - hess)) <= 1e-12 * np.max(np.abs(hess))

    @pytest.mark.parametrize("mpo_name", ["sf_noisy6", "sf_perturbed8"])
    def test_pullback_matches_dense_transpose_product(self, mpo_name, request):
        mpo = request.getfixturevalue(mpo_name)
        starts = range(1, mpo.n_qubits - 3)
        local = np.random.default_rng(6)
        # word 0 (all identity) is constant: its cotangent must be ignored
        u = np.stack([local.normal(size=4**5) for s in starts])
        dense = dense_jacobian(mpo)
        want = dense.T @ np.concatenate([row[1:] for row in u])
        got = _window_pullback(point_state(mpo, 5), u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_pullback_is_gradient_of_contraction(self, sf_perturbed8):
        masks = free_masks(sf_perturbed8)
        theta0 = pack(sf_perturbed8.tensors, masks)
        local = np.random.default_rng(9)
        u = np.stack([local.normal(size=4**5) for s in range(1, 5)])

        def contraction(th):
            v, _ = _window_values_jacobian(point_state(unpack(th, sf_perturbed8, masks), 5))
            return sum(u_row @ v_row for u_row, v_row in zip(u, v))

        grad = _window_pullback(point_state(sf_perturbed8, 5), u)
        eps = 1e-6
        fd = np.empty(20)
        picks = local.choice(theta0.size, fd.size, replace=False)
        for k, i in enumerate(picks):
            step = np.zeros(theta0.size)
            step[i] = eps
            fd[k] = (contraction(theta0 + step) - contraction(theta0 - step)) / (2 * eps)
        assert np.max(np.abs(fd - grad[picks])) <= 1e-6 * np.max(np.abs(fd))

    def test_values_match_correlations(self, sf_noisy6):
        vals, _ = _window_values_jacobian(point_state(sf_noisy6, 5))
        truth = window_zshifted_set(sf_noisy6, 5)
        for s in truth.starts:
            assert np.max(np.abs(vals[s - 1] - truth.values[s].ravel())) < 1e-12


class TestPointState:
    """The per-fit plan and the per-point chain state behind every model
    evaluation and pullback."""

    @pytest.mark.parametrize("bonds", [None, *UNEQUAL_BONDS])
    def test_tensors_match_unpack_and_basis_map(self, sf_perturbed8, bonds):
        base = sf_perturbed8 if bonds is None else unequal_bond_chain(bonds)
        plan = _FitPlan(base, 5)
        theta = np.random.default_rng(1).normal(size=plan.offsets[-1])
        point = _Point(plan, theta)
        for s, t in enumerate(unpack(theta, base, plan.masks).tensors):
            mapped = np.einsum("ji,dia->dja", F_MATRIX, t)
            assert np.array_equal(point.tensors[s, : t.shape[0], :, : t.shape[2]], mapped)
            # the padding stays exactly zero
            padded = point.tensors[s].copy()
            padded[: t.shape[0], :, : t.shape[2]] = 0.0
            assert not padded.any()

    @pytest.mark.parametrize("bonds", UNEQUAL_BONDS)
    def test_stacked_values_match_correlations_unequal_bonds(self, bonds):
        mpo = unequal_bond_chain(bonds)
        vals, _ = _window_values_jacobian(point_state(mpo, 5))
        truth = window_zshifted_set(mpo, 5)
        assert len(vals) == len(truth.starts)
        for s in truth.starts:
            assert np.max(np.abs(vals[s - 1] - truth.values[s].ravel())) < 1e-12

    @pytest.mark.parametrize("bonds", UNEQUAL_BONDS)
    def test_identity_suffix_is_e0_at_any_point(self, bonds):
        # the fit reads every window's right edge at bond index 0 and
        # contracts no suffix: at a random point, not only a fitted one, the
        # product of the data-basis identity slices right of each window is
        # exactly e0, and the values equal the generic contraction with it
        base = unequal_bond_chain(bonds)
        plan = _FitPlan(base, 5)
        point = _Point(plan, np.random.default_rng(3).normal(size=plan.offsets[-1]))
        ident = [
            point.tensors[s, : t.shape[0], 0, : t.shape[2]] for s, t in enumerate(base.tensors)
        ]
        for first in range(plan.n_windows):
            suffix = right_environments(ident[first + 5 :])[0]
            assert np.array_equal(suffix, np.eye(len(suffix), 1))
        vals, _ = _window_values_jacobian(point)
        truth = window_zshifted_set(point.mpo, 5)
        assert len(vals) == len(truth.starts)
        for s in truth.starts:
            assert np.max(np.abs(vals[s - 1] - truth.values[s].ravel())) < 1e-12

    def test_state_does_not_go_stale(self, sf_perturbed8):
        # values, JᵀWJ and Jᵀu at A, then B, then A again under one plan
        # equal those of fresh states, bitwise
        local = np.random.default_rng(12)
        plan = _FitPlan(sf_perturbed8, 5)
        theta_a = pack(sf_perturbed8.tensors, plan.masks)
        theta_b = theta_a + local.normal(scale=1e-2, size=theta_a.size)
        omega = local.uniform(0.5, 2.0, size=(4, 4**5)) ** 2
        u = local.normal(size=(4, 4**5))

        def evaluate(point):
            only, _ = _window_values_jacobian(point)
            vals, hess = _window_values_jacobian(point, omega)
            return only, vals, hess, _window_pullback(point, u)

        def fresh(theta):
            return evaluate(_Point(_FitPlan(sf_perturbed8, 5), theta))

        point_a = _Point(plan, theta_a)
        results = [evaluate(point_a), evaluate(_Point(plan, theta_b)), evaluate(point_a)]
        # and a new state of A under the same plan
        results.append(evaluate(_Point(plan, theta_a)))
        for got, theta in zip(results, [theta_a, theta_b, theta_a, theta_a]):
            want = fresh(theta)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestGaussNewton:
    def test_exact_fixed_point(self, sf_noisy6):
        # data equal to the model's own values, to the last bit
        data = window_zshifted_set(sf_noisy6, 5)
        vals, _ = _window_values_jacobian(point_state(sf_noisy6, 5))
        data.values.update({s: vals[s - 1].reshape(data.values[s].shape) for s in data.starts})
        fit = gauss_newton_fit(sf_noisy6, data)
        assert fit.iterations == 0
        assert fit.sse == 0.0
        assert fit.converged

    def test_exact_start_exit_reason(self, sf_noisy6):
        # an exact-data start has an SSE at the rounding level, and δ ≤ SSE
        fit = gauss_newton_fit(sf_noisy6, window_zshifted_set(sf_noisy6, 5))
        assert fit.exit_reason == "decrement"
        assert fit.iterations == 0
        assert fit.trace == []

    def test_max_iter_exit(self, sf_noisy6, caplog):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        with caplog.at_level(logging.DEBUG, logger="mpo_tomo.fitting"):
            fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5), max_iterations=1)
        assert len(caplog.records) == 1  # one debug line per trace row
        assert fit.iterations == 1
        assert not fit.converged
        assert fit.exit_reason == "max_iter"
        (row,) = fit.trace
        assert set(row) == {
            "sse", "lambda", "trials", "d2_over_d1", "model_evals", "assembly_s", "eigh_s",
            "shift_bound", "step_cosine",
        }
        assert row["sse"] == fit.sse
        assert row["assembly_s"] >= 0 and row["eigh_s"] >= 0
        # one Jacobian, then two curvature probes and at most one candidate per trial
        assert row["trials"] * 2 + 1 <= row["model_evals"] <= row["trials"] * 3 + 1

    def test_stop_reasons_are_checked_in_order(self, sf_noisy6):
        # a pass whose decrement is below its bound with max_iterations spent
        # stops by decrement; one pass earlier only max_iter holds
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        data = window_zshifted_set(sf_noisy6, 5)
        fit = gauss_newton_fit(start, data)
        assert fit.exit_reason == "decrement"
        k = fit.iterations
        for max_iterations, reason in [(k, "decrement"), (k - 1, "max_iter")]:
            fit = gauss_newton_fit(start, data, max_iterations=max_iterations)
            assert (fit.exit_reason, fit.iterations) == (reason, max_iterations)

    def test_decrement_never_exceeds_the_sse(self, sf_noisy6):
        # δ is the squared projection of the weighted residual onto the live
        # columns of the weighted Jacobian, so δ ≤ SSE at every point: row k's
        # shift_bound is √δ at the point that row k - 1's step reached
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5))
        assert len(fit.trace) >= 2
        for before, row in zip(fit.trace, fit.trace[1:]):
            assert row["shift_bound"] ** 2 <= before["sse"] * (1 + 1e-9)
        assert fit.shift_bound**2 <= fit.sse * (1 + 1e-9)

    @staticmethod
    def _zshifted_chain(n, seed, eta, eta_se, shots):
        """The aligned Z-shifted data ``reconstruct`` fits, of a chain with
        the baseline uniform errors, built on the library path."""
        from mpo_tomo.correlations import align_phases, correct_inefficiency, moments_to_zshifted

        truth = noisy_cluster_model(n, ErrorModel.uniform(n, 0.098, 0.092))
        corrs = moments_to_zshifted(synthesize_dataset(truth, 5, eta, shots, seed))
        if eta < 1.0 or eta_se > 0.0:
            corrs = correct_inefficiency(corrs, eta, eta_se)
        return align_phases(corrs)[0]

    def test_decrement_stop_keeps_its_bound(self, monkeypatch):
        # √δ bounds the shift one more full step makes, in SEs: fitting on
        # to a bound 1000 times tighter moves the fidelity, every stabilizer
        # and every <Z_s> by at most 0.1 of its SE (N=6 seed 3 stops after
        # 10 passes where the relative-SSE stop took 38)
        from mpo_tomo import fitting
        from mpo_tomo.cli import _stabilizer_table

        corrs = self._zshifted_chain(6, 3, 0.9, 0.005, 10**7)
        fit = fit_chain(corrs)[2]
        assert fit.exit_reason == "decrement" and fit.shift_bound <= 0.1
        # each pass taken started from a point above the bound
        assert fit.trace and all(row["shift_bound"] > 0.1 for row in fit.trace)
        monkeypatch.setattr(fitting, "_SHIFT_BOUND", 1e-4)
        tight = fit_chain(corrs)[2]
        assert tight.exit_reason == "decrement" and tight.iterations > fit.iterations
        values, ses, _ = _stabilizer_table(fit, 6, [])
        tight_values, _, _ = _stabilizer_table(tight, 6, [])
        assert np.all(np.abs(tight_values - values) <= 0.1 * ses)

    def test_low_shot_crawl_stops_on_the_decrement(self):
        # N=8 seed 1 at 1e5 shots lowered its SSE by 7e-3 over passes 80-200
        # and ran out of passes under the relative-SSE stop
        fit = fit_chain(self._zshifted_chain(8, 1, 1.0, 0.0, 10**5))[2]
        assert fit.exit_reason == "decrement"
        assert fit.iterations < 200

    @staticmethod
    def _uphill_rows(start_sse, trace):
        """The trace rows whose SSE exceeds the SSE their pass started from,
        after checking that each meets the uphill rule: its velocity has a
        cosine c > 0 with the last accepted one and (1 − c)·SSE ≤ that SSE."""
        assert trace[0]["step_cosine"] == 0.0 and trace[0]["sse"] <= start_sse
        before = [start_sse] + [row["sse"] for row in trace[:-1]]
        uphill = [(sse, row) for sse, row in zip(before, trace) if row["sse"] > sse]
        for sse, row in uphill:
            assert row["step_cosine"] > 0.0
            assert (1.0 - row["step_cosine"]) * row["sse"] <= sse
        return uphill

    def test_uphill_steps_continue_the_last_step(self, sf_noisy6):
        # a trial that raises the SSE is accepted only when its velocity is
        # at an angle β with the last accepted one such that (1 − cos β)
        # times its SSE is at most the pass's SSE; the first pass has no
        # last velocity, so it never rises
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        data = window_zshifted_set(sf_noisy6, 5)
        fit = gauss_newton_fit(start, data)
        assert fit.exit_reason == "decrement"
        self._uphill_rows(gauss_newton_fit(start, data, max_iterations=0).sse, fit.trace)
        # the short_chains seed-3 data, which goes uphill
        corrs = self._zshifted_chain(6, 3, 0.9, 0.005, 10**7)
        fit = fit_chain(corrs)[2]
        assert fit.exit_reason == "decrement" and fit.iterations <= 20
        assert self._uphill_rows(fit_chain(corrs, max_iterations=0)[2].sse, fit.trace)

    def test_earlier_stall_reaches_the_lower_sse(self):
        # N=12 seed 1 crawled for 115 passes to SSE 7820.547 while each pass
        # rejected the trials that went slightly uphill along the valley
        fit = fit_chain(self._zshifted_chain(12, 1, 1.0, 0.0, 10**7))[2]
        assert fit.exit_reason == "decrement"
        assert fit.iterations <= 40
        assert fit.sse <= 7820.547 - 0.1

    def test_le_exact_chain_fits_in_few_passes(self):
        # the le_exact chain (N=10 seed 7) wandered for 25 passes within 1%
        # of its final SSE when an uphill rise was bounded by a share of it
        fit = fit_chain(self._zshifted_chain(10, 7, 1.0, 0.0, 10**7))[2]
        assert fit.exit_reason == "decrement"
        assert fit.iterations <= 15

    def test_no_acceptable_step_is_not_converged(self, sf_noisy6, reject_every_gn_trial):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5))
        assert fit.exit_reason == "no_acceptable_step"
        assert fit.converged is False
        assert fit.iterations == 1

    def test_peak_memory_holds_one_set_of_blocks(self, sf_perturbed8):
        # JᵀWJ is assembled one window at a time from its slabs: next to a
        # few n_par^2 matrices, the fit holds the summed site-pair Grams of
        # the sites a later window still holds, less than one window's own
        # block of JᵀWJ (itself smaller than the 4**5-row Jacobian block of
        # the window's own columns)
        import tracemalloc

        data = window_zshifted_set(sf_perturbed8, 5)
        masks = free_masks(sf_perturbed8)
        theta = pack(sf_perturbed8.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-3, size=theta.size), sf_perturbed8, masks)
        n_par = theta.size
        n_own = max(sum(int(m.sum()) for m in masks[f : f + 5]) for f in range(len(masks) - 4))
        tracemalloc.start()
        try:
            fit = gauss_newton_fit(start, data, max_iterations=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.iterations >= 1
        assert peak <= 1.25 * (n_own**2 * 8 + 4 * n_par**2 * 8)

    def test_slab_shapes_do_not_depend_on_n(self):
        # every window's slabs are sized by the padded bond D alone; the
        # sites left of it do not reach it
        for n in (8, 12):
            mpo = to_standard_form(noisy_cluster_model(n, ErrorModel.uniform(n, 0.09, 0.06)))
            bond = max(t.shape[0] for t in mpo.tensors)
            n_windows = 0
            for first, slabs in _window_slabs(point_state(mpo, 5)):
                assert [e.shape for e in slabs] == [(4**4, bond**2)] * 5
                n_windows += 1
            assert bond == 4 and n_windows == n - 4

    @pytest.mark.parametrize("seed", range(2, 8))
    def test_perturbed_initial_recovers(self, sf_noisy6, seed):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(seed)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5))
        assert fit.converged
        ideal = ideal_cluster_mpo(6)
        assert abs(fidelity(fit.mpo, ideal) - fidelity(sf_noisy6, ideal)) < 1e-6

    def test_requires_standard_form(self, noisy6):
        with pytest.raises(ValidationError):
            gauss_newton_fit(noisy6, window_zshifted_set(noisy6, 5))

    def test_missing_window_rejected(self, sf_noisy6):
        # the fit's data rows are the chain's windows, every one of them
        data = window_zshifted_set(sf_noisy6, 5)
        del data.values[2], data.ses[2]
        with pytest.raises(CompletenessError, match="all 2 windows"):
            gauss_newton_fit(sf_noisy6, data)

    def test_nan_data_rejected(self, sf_noisy6):
        data = window_zshifted_set(sf_noisy6, 5)
        data.values[1][(1, 1, 1, 1, 1)] = np.nan
        with pytest.raises(DataError):
            gauss_newton_fit(sf_noisy6, data)

    def test_pinned_entries_after_fit(self, fitted_noisy5):
        mpo = fitted_noisy5.mpo
        assert np.allclose(mpo.tensors[-1][:, :, 0], np.eye(4))
        assert mpo.tensors[0][0, 0, 0] == 1.0
        for k in range(1, 4):
            a0 = mpo.tensors[k][:, 0, :]
            assert a0[0, 0] == 1.0
            assert not np.tril(a0, -1).any()

    def test_monotone_sse(self, noisy5, sf_noisy6):
        # the fit never ends above the weighted SSE of its starting point
        table = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=5)
        from mpo_tomo.correlations import moments_to_zshifted

        data = moments_to_zshifted(table)
        start = to_standard_form(noisy5)
        vals, _ = _window_values_jacobian(point_state(start, 5))
        keep = np.ones(4**5, bool)
        keep[0] = False
        y = data.values[1].ravel()[keep]
        w = 1.0 / np.clip(data.ses[1].ravel()[keep], 1e-9, None)
        sse0 = float((((y - vals[0][keep]) * w) ** 2).sum())
        fit = gauss_newton_fit(start, data)
        assert fit.sse <= sse0

    def test_dof_counts_only_identifiable_directions(self, noisy6_fit):
        data, fit = noisy6_fit
        n_par = n_free_parameters(free_masks(fit.mpo))
        rank = np.linalg.matrix_rank(final_jtwj(data, fit))
        rows = len(data.starts) * (4**5 - 1)
        assert rank < n_par  # the standard form keeps gauge null directions
        assert fit.dof == rows - rank

    def test_null_directions_bracket_the_cut(self, noisy6_fit):
        data, fit = noisy6_fit
        n_par = n_free_parameters(free_masks(fit.mpo))
        rows = len(data.starts) * (4**5 - 1)
        null_directions = fit_record(fit)["null_directions"]
        assert null_directions > 0
        assert null_directions == n_par - (rows - fit.dof) == n_par - fit.covariance.shape[1]
        assert fit.largest_null_ratio <= 1e-12 < fit.smallest_live_ratio <= 1.0

    def test_chi_square_consistency(self, fitted_noisy5):
        assert 0.7 <= fitted_noisy5.reduced_sse <= 1.3

    def test_rejects_pauli_data(self, sf_noisy6):
        # the fit runs in the Z-shifted basis only
        with pytest.raises(ValidationError, match="z-shifted"):
            gauss_newton_fit(sf_noisy6, window_correlation_set(sf_noisy6, 5))

    def test_fit_chain_rejects_pauli_data(self, noisy5):
        # the pipeline's entry point refuses Pauli-basis data before any stage
        from mpo_tomo.correlations import moments_to_zshifted, zshifted_to_pauli

        table = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=11)
        with pytest.raises(ValidationError, match="z-shifted"):
            fit_chain(zshifted_to_pauli(moments_to_zshifted(table)))


class TestPassSolver:
    """The solver of a pass, on the final JᵀWJ H of a real all-bond-4 fit,
    checked by what its results satisfy."""

    @pytest.fixture(scope="class")
    def solved(self, noisy6_fit):
        hess = final_jtwj(*noisy6_fit)
        return hess, _PassSolver(hess)

    def test_damped_solve_inverts_h_on_the_live_span(self, solved):
        hess, solver = solved
        # the live projector P from an orthonormal basis of the factor's
        # columns: L·Lᵀ·H is P too, but eigh leaves each eigenpair a
        # residual of rounding order in |H|, which L·Lᵀ scales by up to
        # 1e12 (7e-7 relative on this H)
        basis = np.linalg.qr(solver.factor())[0]
        b = np.random.default_rng(3).normal(size=len(hess))
        pb = basis @ (basis.T @ b)
        damping = 1e-3 * np.linalg.norm(hess, 2)
        x = solver.solve(b, damping)
        assert np.linalg.norm(hess @ x + damping * x - pb) <= 1e-10 * np.linalg.norm(pb)
        assert np.linalg.norm(x - basis @ (basis.T @ x)) <= 1e-10 * np.linalg.norm(x)

    def test_decrement_is_the_factor_norm_and_the_undamped_solve(self, solved):
        hess, solver = solved
        g = np.random.default_rng(4).normal(size=len(hess))
        delta = solver.decrement(g)
        assert delta == pytest.approx(np.sum((solver.factor().T @ g) ** 2), rel=1e-8)
        assert delta == pytest.approx(g @ solver.solve(g, 0.0), rel=1e-8)

    def test_drops_at_least_the_gauge(self, solved):
        # the standard form of an N-site all-bond-4 chain keeps 6(N-2)
        # gauge directions; weak data directions may be dropped with them
        hess, solver = solved
        assert solver.factor().shape == (len(hess), solver.live_count)
        assert len(hess) - solver.live_count >= 6 * (6 - 2)

    def test_template_pins_row_0_of_the_identity_slices(self):
        # row 0 of the identity slice is e0ᵀ at sites 1..N-2: 3 pinned
        # entries per site beyond its unit pivot, so each bond but the last
        # keeps 6 gauge parameters, not 9, of the 813 free entries that the
        # pivot and sub-diagonal zeros alone leave at N = 16
        mpo = to_standard_form(noisy_cluster_model(16, ErrorModel.uniform(16, 0.09, 0.06)))
        assert {t.shape[2] for t in mpo.tensors[:-1]} == {4}
        assert n_free_parameters(free_masks(mpo)) == 813 - 3 * (16 - 2) == 771


@pytest.fixture
def jtwj_evaluations(monkeypatch):
    """The MPO of every model evaluation that forms JᵀWJ (carries weights)."""
    from mpo_tomo import fitting

    real = fitting._window_values_jacobian
    points = []

    def counted(point, omega=None):
        if omega is not None:
            points.append(point.mpo)
        return real(point, omega)

    monkeypatch.setattr(fitting, "_window_values_jacobian", counted)
    return points


class TestFactorOnce:
    """Each Gauss-Newton point is assembled and factored once; the covariance
    reads the final point's factor."""

    def _start(self, sf_noisy6, seed=2):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(seed)
        return unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)

    def test_no_acceptable_step_reuses_the_unmoved_factor(
        self, sf_noisy6, reject_every_gn_trial, jtwj_evaluations
    ):
        start = self._start(sf_noisy6)
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5))
        assert fit.exit_reason == "no_acceptable_step"
        assert fit.iterations == 1
        assert len(jtwj_evaluations) == 1
        assert jtwj_evaluations[0] == start == fit.mpo

    def test_converged_fit_assembles_each_point_once(self, sf_noisy6, jtwj_evaluations):
        fit = gauss_newton_fit(self._start(sf_noisy6), window_zshifted_set(sf_noisy6, 5))
        assert fit.converged and fit.iterations > 1
        assert len(jtwj_evaluations) == fit.iterations + 1
        assert jtwj_evaluations[-1] == fit.mpo

    @pytest.mark.parametrize("rejected", [False, True])
    def test_model_calls_match_the_trace(self, sf_noisy6, monkeypatch, request, rejected):
        # the benchmark's per-layer fitting metrics count calls to
        # fitting._window_values_jacobian, and those that return JᵀWJ
        from mpo_tomo import fitting

        if rejected:
            request.getfixturevalue("reject_every_gn_trial")
        real = fitting._window_values_jacobian
        returned_hess = []

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            returned_hess.append(result[1] is not None)
            return result

        monkeypatch.setattr(fitting, "_window_values_jacobian", counted)
        fit = gauss_newton_fit(self._start(sf_noisy6), window_zshifted_set(sf_noisy6, 5))
        assert fit.converged is not rejected and fit.iterations >= 1
        # one pass per trace row; a fit that stepped and then stopped makes
        # one more pass, which assembles the final point outside the trace
        passes = len(fit.trace) + (not rejected)
        assert sum(returned_hess) == passes == fit.iterations + (not rejected)
        assert len(returned_hess) == sum(row["model_evals"] for row in fit.trace) + (not rejected)
        assert returned_hess[0] and len(returned_hess) > passes

    @pytest.mark.parametrize("max_iterations, start_exact", [(0, False), (200, True)])
    def test_exit_at_the_start_assembles_once(
        self, sf_noisy6, jtwj_evaluations, max_iterations, start_exact
    ):
        start = sf_noisy6 if start_exact else self._start(sf_noisy6)
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5), max_iterations=max_iterations)
        assert fit.iterations == 0
        assert fit.exit_reason == ("decrement" if start_exact else "max_iter")
        assert fit.trace == []
        assert len(jtwj_evaluations) == 1
        assert dense_covariance(fit).shape == (n_free_parameters(free_masks(fit.mpo)),) * 2


class TestInversionFitAgreement:
    def test_exact_data_agreement(self, rng):
        from _oracles import random_protocol
        from mpo_tomo.emission import emit_mpo
        from mpo_tomo.reconstruct import (
            build_corr_matrices,
            compress,
            estimate_bond_dims,
            invert_reconstruct,
        )

        m = emit_mpo(random_protocol(6, 2, seed=77))
        corrs = window_correlation_set(m, 5)
        cm = build_corr_matrices(corrs)
        est = estimate_bond_dims(cm)
        inv = invert_reconstruct(corrs, 5, ranks=est.dims)
        guess = to_standard_form(compress(inv.mpo, cm, est.dims))
        fit = gauss_newton_fit(guess, window_zshifted_set(m, 5))
        for _ in range(200):
            w = tuple(rng.integers(0, 4, 6))
            assert abs(fit.mpo.correlation(w) - inv.mpo.correlation(w)) < 1e-8


class TestCovariancePropagation:
    def test_constant_functional(self, fitted_noisy5):
        def const(mpo):
            return 1.0, [np.zeros(t.shape) for t in mpo.tensors]

        value, se = propagate_covariance(fitted_noisy5, const)
        assert value == 1.0
        assert se == 0.0

    def test_covariance_is_psd_symmetric(self, fitted_noisy5):
        cov = dense_covariance(fitted_noisy5)
        assert np.max(np.abs(cov - cov.T)) < 1e-8
        evals = np.linalg.eigvalsh(cov)
        assert evals.min() > -1e-8 * max(evals.max(), 1.0)

    def test_shape_mismatch(self, fitted_noisy5):
        def bad(mpo):
            return 0.0, [np.zeros((2, 2, 2))] * mpo.n_qubits

        with pytest.raises(ValidationError):
            propagate_covariance(fitted_noisy5, bad)

    def test_joint_product_matches_single_propagations(self, fitted_noisy5):
        # one joint P·Pᵀ: its diagonal is each scalar's own propagated variance,
        # its off-diagonal the packed cross products
        fit = fitted_noisy5
        m = fit.mpo
        functionals = [fidelity_functional(ideal_cluster_mpo(5))]
        for letters in [(3, 0, 0, 0, 0), (1, 3, 0, 0, 0), (0, 3, 1, 3, 0)]:
            functionals.append(
                lambda m, w=letters: (m.correlation(w), correlation_gradient(m, w))
            )
        grads = [functional(m)[1] for functional in functionals]
        ses, joint = propagate_joint(fit, grads)
        assert joint.shape == (4, 4) and ses.shape == (4,)
        assert np.allclose(joint, joint.T, rtol=0, atol=1e-15)
        assert np.allclose(ses**2, np.diag(joint), rtol=1e-12, atol=0)
        for i, functional in enumerate(functionals):
            assert ses[i] == pytest.approx(propagate_covariance(fit, functional)[1], rel=1e-12)
        packed = [pack(g, free_masks(m)) for g in grads]
        assert joint[0, 2] == pytest.approx(packed[0] @ dense_covariance(fit) @ packed[2], rel=1e-10)

    def test_variances_match_the_long_double_eigenbasis_sum(self, noisy6):
        # each variance is the sum of squares of g over the covariance factor,
        # so it keeps the precision of Σ_k (u_kᵀg)²/λ_k over the live
        # eigenpairs of JᵀWJ at the fitted point (the fidelity, stabilizers
        # and <Z_s>, whose gᵀ·cov·g cancels about eight digits)
        from mpo_tomo.cluster import stabilizer_words
        from mpo_tomo.correlations import moments_to_zshifted

        data = moments_to_zshifted(synthesize_dataset(noisy6, 5, 1.0, 10**7, seed=1))
        _, _, fit = fit_chain(data)
        m = fit.mpo
        words = stabilizer_words(6) + [tuple(3 * (t == s) for t in range(6)) for s in range(6)]
        grads = [fidelity_gradient(m, ideal_cluster_mpo(6))]
        grads += [correlation_gradient(m, letters) for letters in words]
        ses, _ = propagate_joint(fit, grads)
        weights = np.stack([1.0 / np.clip(data.ses[s].ravel(), 1e-9, None) for s in data.starts])
        weights[:, 0] = 0.0
        _, hess = _window_values_jacobian(point_state(m, 5), weights**2)
        evals, evecs = np.linalg.eigh(hess)
        live = evals > 1e-12 * evals[-1]
        g = np.stack([pack(grad, free_masks(m)) for grad in grads]).astype(np.longdouble)
        proj = g @ evecs[:, live].astype(np.longdouble)
        want = (proj**2 / evals[live].astype(np.longdouble)).sum(axis=1)
        rel = np.abs(ses.astype(np.longdouble) ** 2 / want - 1)
        assert rel.max() <= 1e-12, rel.max()

    def test_se_does_not_depend_on_the_other_rows(self, fitted_noisy5):
        # the fidelity's SE is the same number alone and propagated next to
        # 20, 39 and 65 other scalars
        fit = fitted_noisy5
        m = fit.mpo
        local = np.random.default_rng(43)
        grads = [fidelity_gradient(m, ideal_cluster_mpo(5))]
        grads += [correlation_gradient(m, local.integers(0, 4, 5)) for _ in range(65)]
        (alone,), _ = propagate_joint(fit, grads[:1])
        for rows in (21, 40, 66):
            ses, _ = propagate_joint(fit, grads[:rows])
            assert ses[0] == alone, rows

    def test_fidelity_se_positive(self, fitted_noisy5):
        ideal = ideal_cluster_mpo(5)
        value, se = propagate_covariance(
            fitted_noisy5, fidelity_functional(ideal)
        )
        assert 0.55 < value < 0.68
        assert 0.0 < se < 0.01


class TestFitChain:
    def test_fit_exposes_stages(self, noisy5_fit_chain):
        estimate, inversion, fit = noisy5_fit_chain
        assert estimate.dims == {1: 4, 2: 4}
        assert inversion.site_residuals
        assert fit.mpo.bonds == (4, 4, 4, 4)

    def test_rejects_four_site_windows(self, noisy6):
        # the bond estimate and the inversion read five-site windows
        with pytest.raises(ValidationError, match="5-qubit windows"):
            fit_chain(window_zshifted_set(noisy6, 4))

    def test_each_fit_setting_has_one_name_and_default(self):
        # FIT_DEFAULTS is fit_chain's keyword parameters, and gauss_newton_fit
        # takes each setting it reads under the same name and default
        import inspect

        def settings(function):
            parameters = inspect.signature(function).parameters.values()
            return {p.name: p.default for p in parameters if p.default is not p.empty}

        assert settings(fit_chain) == FIT_DEFAULTS
        assert settings(gauss_newton_fit) and settings(gauss_newton_fit).items() <= FIT_DEFAULTS.items()


class TestPersistence:
    def test_bundle_round_trip(self, fitted_noisy5, tmp_path):
        fit = fitted_noisy5
        save_fit_bundle(fit, tmp_path / "fit")
        back = load_fit_bundle(tmp_path / "fit")
        assert back.mpo == fit.mpo
        assert np.allclose(back.covariance, fit.covariance)
        assert back.sse == fit.sse
        assert back.dof == fit.dof
        assert back.converged == fit.converged
        # the covariance file is plain row-major float64
        raw = np.fromfile(tmp_path / "fit" / "covariance.bin", dtype=np.float64)
        assert raw.size == fit.covariance.size

    @pytest.mark.parametrize("exit_reason", ["decrement", "no_acceptable_step", "max_iter"])
    def test_record_round_trip_for_every_exit_reason(self, sf_noisy6, request, tmp_path, exit_reason):
        masks = free_masks(sf_noisy6)
        theta = pack(sf_noisy6.tensors, masks)
        local = np.random.default_rng(2)
        start = unpack(theta + local.normal(scale=1e-2, size=theta.size), sf_noisy6, masks)
        if exit_reason == "no_acceptable_step":
            request.getfixturevalue("reject_every_gn_trial")
        max_iterations = 1 if exit_reason == "max_iter" else 200
        fit = gauss_newton_fit(start, window_zshifted_set(sf_noisy6, 5), max_iterations=max_iterations)
        assert fit.exit_reason == exit_reason
        assert fit.converged is (exit_reason == "decrement")
        save_fit_bundle(fit, tmp_path / "fit")
        assert fit_record(load_fit_bundle(tmp_path / "fit")) == fit_record(fit)

    def test_bundle_with_basis_record_loads(self, fitted_noisy5, tmp_path):
        # the report no longer records the data basis; a bundle that does
        # still loads
        import json

        save_fit_bundle(fitted_noisy5, tmp_path / "fit")
        path = tmp_path / "fit" / "fit_report.json"
        report = json.loads(path.read_text())
        assert "basis" not in report
        path.write_text(json.dumps({**report, "basis": "z-shifted"}))
        back = load_fit_bundle(tmp_path / "fit")
        assert back.sse == fitted_noisy5.sse and back.dof == fitted_noisy5.dof

    def test_bundle_null_space_record(self, fitted_noisy5, tmp_path):
        # the count is the factor's missing columns: it is not read back
        import json

        fit = fitted_noisy5
        save_fit_bundle(fit, tmp_path / "fit")
        back = load_fit_bundle(tmp_path / "fit")
        assert fit_record(fit)["null_directions"] > 0
        assert fit_record(back) == fit_record(fit)
        path = tmp_path / "fit" / "fit_report.json"
        report = json.loads(path.read_text())
        path.write_text(json.dumps({**report, "null_directions": 0}))
        assert fit_record(load_fit_bundle(tmp_path / "fit")) == fit_record(fit)
