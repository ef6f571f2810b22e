"""Two-qubit monotones, post-measurement states, localizable entanglement."""

import itertools

import numpy as np
import pytest

from _oracles import (
    TwoQubitState,
    concurrence,
    dense_localizable_entanglement,
    mpo_to_dense,
    negativity,
    pairwise_le_matrix,
    post_measurement_state,
    random_density_matrix,
)

from mpo_tomo.cluster import ErrorModel, ideal_cluster_mpo, noisy_cluster_model
from mpo_tomo.entanglement import (
    le_subset_estimate,
    localizable_entanglement,
    partial_transpose,
)
from mpo_tomo.errors import ValidationError
from mpo_tomo.mpo import Mpo


def bell_state():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return TwoQubitState(np.outer(v, v.conj()), 1.0)


class TestMonotones:
    def test_bell_negativity(self):
        assert negativity(bell_state()) == pytest.approx(0.5, abs=1e-12)

    def test_bell_concurrence(self):
        assert concurrence(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_zero(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        st = TwoQubitState(rho, 1.0)
        assert negativity(st) == pytest.approx(0.0, abs=1e-12)
        assert concurrence(st) == pytest.approx(0.0, abs=1e-12)

    def test_werner_separability_threshold(self):
        psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
        proj = np.outer(psi_m, psi_m.conj())
        w = proj / 3.0 + (2.0 / 3.0) * np.eye(4) / 4.0
        assert negativity(TwoQubitState(w, 1.0)) == pytest.approx(0.0, abs=1e-12)
        above = 0.4 * proj + 0.6 * np.eye(4) / 4.0
        assert negativity(TwoQubitState(above, 1.0)) > 0.0

    def test_partially_entangled_concurrence(self):
        v = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)])
        st = TwoQubitState(np.outer(v, v), 1.0)
        assert concurrence(st) == pytest.approx(0.8, abs=1e-12)

    def test_normalization_required(self):
        st = TwoQubitState(np.eye(4, dtype=complex), 4.0)
        with pytest.raises(ValidationError):
            negativity(st)
        with pytest.raises(ValidationError):
            concurrence(st)

    def test_partial_transpose_convention(self):
        rho = np.arange(16, dtype=complex).reshape(4, 4)
        pt = partial_transpose(rho)
        # (rho^T2)[2i+j, 2k+l] = <i l| rho |k j>
        for i, j, k, l in itertools.product(range(2), repeat=4):
            assert pt[2 * i + j, 2 * k + l] == rho[2 * i + l, 2 * k + j]

    def test_negativity_concurrence_zero_together(self, rng):
        for _ in range(50):
            if rng.random() < 0.5:
                rho = random_density_matrix(4, rng)
            else:  # separable mixtures
                rho = sum(
                    w * np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
                    for w in (0.3, 0.4, 0.3)
                )
            st = TwoQubitState(rho, 1.0)
            n, c = negativity(st), concurrence(st)
            assert (n < 1e-9) == (c < 1e-9)


class TestPostMeasurement:
    def test_bell_branch_on_cluster(self):
        m = ideal_cluster_mpo(4)
        pair = (1, 4)
        st = post_measurement_state(m, pair, [1, 1])
        norm = st.matrix / st.weight
        assert negativity(TwoQubitState(norm, 1.0)) == pytest.approx(0.5, abs=1e-9)
        assert concurrence(TwoQubitState(norm, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_weights_sum_to_one(self, noisy6):
        pair = (2, 5)
        total = sum(
            post_measurement_state(noisy6, pair, bits).weight
            for bits in itertools.product([1, -1], repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_product_state_branches_are_products(self):
        site = np.zeros((1, 4, 1))
        site[0, 0, 0] = 1.0
        site[0, 1, 0] = 0.6  # partially X-polarized qubits
        m = Mpo([site] * 5)
        pair = (2, 4)
        st = post_measurement_state(m, pair, [1, -1, 1])
        rho = st.matrix / st.weight
        single = np.array([[0.5, 0.3], [0.3, 0.5]])
        assert np.max(np.abs(rho - np.kron(single, single))) < 1e-12

    def test_outcome_count_checked(self, noisy6):
        with pytest.raises(ValidationError):
            post_measurement_state(noisy6, (1, 6), [1, 1, 1])


class TestLocalizableEntanglement:
    def test_ideal_cluster_every_pair(self, cluster6):
        results_n = pairwise_le_matrix(cluster6, "negativity")
        results_c = pairwise_le_matrix(cluster6, "concurrence")
        for pair in results_n:
            assert results_n[pair].value == pytest.approx(0.5, abs=1e-9)
            assert results_c[pair].value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("measure", ["negativity", "concurrence"])
    def test_matches_dense_oracle(self, noisy6, measure):
        pair = (2, 5)
        le = localizable_entanglement(noisy6, pair, measure)
        oracle = dense_localizable_entanglement(mpo_to_dense(noisy6), 6, pair, measure)
        assert le.value == pytest.approx(oracle, abs=1e-10)

    def test_upper_bounds(self, rng):
        for _ in range(5):
            model = ErrorModel(rng.uniform(0, 0.3, 6), rng.uniform(0, 0.3, 6))
            m = noisy_cluster_model(6, model)
            pair = (1, 4)
            assert localizable_entanglement(m, pair, "negativity").value <= 0.5 + 1e-9
            assert localizable_entanglement(m, pair, "concurrence").value <= 1.0 + 1e-9

    def test_fixed_separation_independent_of_length(self):
        model = lambda n: noisy_cluster_model(n, ErrorModel.uniform(n, 0.09, 0.06))
        values = []
        for n in (6, 8, 10):
            le = localizable_entanglement(model(n), (2, 5), "negativity")
            values.append(le.value)
        assert np.ptp(values) < 1e-9

    def test_tree_branches_match_outcome_strings(self, noisy6):
        from mpo_tomo.entanglement import _enumerate_branches

        pair = (1, 4)  # no mirror symmetry
        terms, _, _ = _enumerate_branches(noisy6, pair, "negativity")
        assert terms.shape == (16,)
        for index, term in enumerate(terms):
            # bit k set: the k-th measured site gave -1
            outcomes = [-1 if (index >> k) & 1 else 1 for k in range(4)]
            st = post_measurement_state(noisy6, pair, outcomes)
            expected = st.weight * negativity(TwoQubitState(st.matrix / st.weight, 1.0))
            assert term == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("pair", [(4, 2), (3, 3), (0, 4), (2, 7)])
    def test_pair_validated(self, noisy6, pair):
        # a reversed or repeated pair, r = 0 and r' > N
        with pytest.raises(ValidationError, match="pair"):
            localizable_entanglement(noisy6, pair)
        with pytest.raises(ValidationError, match="pair"):
            le_subset_estimate(noisy6, pair, samples=1)

    def test_size_limit_directs_to_subset(self):
        m = noisy_cluster_model(16, ErrorModel.uniform(16, 0.05, 0.05))
        with pytest.raises(ValidationError, match="subset"):
            localizable_entanglement(m, (1, 16))

    @pytest.mark.parametrize(
        "state, measure",
        [
            ("fitted", "negativity"),
            ("fitted", "concurrence"),
            # every branch of the ideal cluster has a degenerate partial-transpose
            # spectrum with no eigenvalue at zero, so the analytic gradient runs;
            # its concurrence (Wootters lambdas at zero) is not differentiable there
            ("ideal", "negativity"),
        ],
        ids=["fitted-negativity", "fitted-concurrence", "ideal-negativity"],
    )
    def test_parameter_se_against_finite_differences(self, request, state, measure):
        from mpo_tomo.fitting import FitResult, propagate_joint
        from mpo_tomo.standard_form import free_masks, n_free_parameters, pack, to_standard_form, unpack

        if state == "fitted":
            fit = request.getfixturevalue("fitted_noisy5")
        else:
            m = to_standard_form(ideal_cluster_mpo(5))
            cov = np.eye(n_free_parameters(free_masks(m)))
            fit = FitResult(m, cov, 0.0, 0, 0, "decrement", None, None, shift_bound=0.0)
        pair = (1, 4)
        le = localizable_entanglement(fit.mpo, pair, measure)
        assert le.fallback_branches == 0 and le.gradient is not None
        (se,), _ = propagate_joint(fit, [le.gradient])
        assert se > 0
        masks = free_masks(fit.mpo)
        grad = pack(le.gradient, masks)
        theta0 = pack(fit.mpo.tensors, masks)
        local = np.random.default_rng(0)
        h = 1e-6
        for i in local.choice(theta0.size, 10, replace=False):
            tp = theta0.copy()
            tp[i] += h
            tm = theta0.copy()
            tm[i] -= h
            vp = localizable_entanglement(unpack(tp, fit.mpo, masks), pair, measure).value
            vm = localizable_entanglement(unpack(tm, fit.mpo, masks), pair, measure).value
            fd = (vp - vm) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=max(1e-6, 1e-4 * abs(fd)))

    @pytest.mark.parametrize("measure, n_fallback", [("negativity", 0), ("concurrence", 8)])
    def test_reverse_sweep_only_without_fallback(self, monkeypatch, measure, n_fallback):
        # the ideal cluster's concurrence branches all have Wootters lambdas at
        # zero: a pair with a fallback branch gets no gradient and runs no
        # reverse sweep
        from mpo_tomo import entanglement
        from mpo_tomo.standard_form import to_standard_form

        m = to_standard_form(ideal_cluster_mpo(5))
        sweeps = []
        real_vjp = entanglement.left_environments_vjp

        def counted_vjp(*args):
            sweeps.append(1)
            return real_vjp(*args)

        monkeypatch.setattr(entanglement, "left_environments_vjp", counted_vjp)
        le = localizable_entanglement(m, (1, 4), measure)
        assert le.fallback_branches == n_fallback
        assert len(sweeps) == (0 if n_fallback else 1)
        assert (le.gradient is None) == bool(n_fallback)


def _all_branches(mpo, pair):
    """Coefficients (2^(N-2), 4, 4) of every outcome branch of the pair."""
    from mpo_tomo.entanglement import _outcome_maps, _string_coefficients

    _, maps, measured = _outcome_maps(mpo, pair)
    return _string_coefficients(maps, measured, np.arange(2 ** len(measured)))


def _value_differences(c, measure, h=1e-6):
    """Central differences of each branch value, an oracle independent of the
    gradient path, with steps relative to the branch weight."""
    from mpo_tomo.entanglement import _branch_terms

    grad = np.zeros(c.shape)
    for i, j in itertools.product(range(4), repeat=2):
        step = np.zeros(c.shape)
        step[:, i, j] = h * np.abs(c[:, 0, 0])
        up = _branch_terms(c + step, measure, False)[0]
        down = _branch_terms(c - step, measure, False)[0]
        grad[:, i, j] = (up - down) / (2.0 * step[:, i, j])
    return grad


class TestBranchGradients:
    """Analytic branch gradients next to fallback branches, which have none."""

    @staticmethod
    def _product_branch(weight):
        a = np.array([1.0, 0.6, 0.0, 0.8])  # pure single-qubit Bloch vectors
        b = np.array([1.0, 0.0, -0.28, 0.96])
        return weight * np.outer(a, b)

    @staticmethod
    def _bell_branch(weight):
        # |Φ+><Φ+| = (II + XX - YY + ZZ) / 4
        return weight * np.diag([1.0, 1.0, -1.0, 1.0])

    @pytest.mark.parametrize(
        "measure, kink",
        [("negativity", "_product_branch"), ("concurrence", "_bell_branch")],
    )
    def test_mixed_batch(self, fitted_noisy5, measure, kink):
        from mpo_tomo.entanglement import _branch_terms

        fitted = _all_branches(fitted_noisy5.mpo, (1, 4))
        c = np.concatenate([fitted[:3], getattr(self, kink)(0.05)[None], fitted[3:]])
        values, grad, fallback = _branch_terms(c, measure, True)
        # a partial-transpose eigenvalue at zero, or Wootters lambdas at zero,
        # make exactly the inserted branch a fallback branch, with NaN rows
        assert fallback.tolist() == [False] * 3 + [True] + [False] * (len(c) - 4)
        assert np.isnan(grad[fallback]).all() and np.isfinite(grad[~fallback]).all()
        analytic = ~fallback & (values > 0.0)
        assert analytic.sum() == len(c) - 1
        oracle = _value_differences(c[analytic], measure)
        np.testing.assert_allclose(grad[analytic], oracle, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("measure", ["negativity", "concurrence"])
    def test_values_match_with_and_without_gradient(self, fitted_noisy5, measure):
        from mpo_tomo.entanglement import _branch_terms

        c = _all_branches(fitted_noisy5.mpo, (2, 5))
        with_grad = _branch_terms(c, measure, True)
        values_only = _branch_terms(c, measure, False)
        np.testing.assert_allclose(with_grad[0], values_only[0], rtol=0.0, atol=1e-15)
        assert values_only[1] is None and not values_only[2].any()


class TestFittedChainEntanglement:
    def test_le_decay_and_significance_at_n10(self):
        """A fitted synthetic 10-qubit chain shows decaying but significant LE.

        Mirrors the experimental observation that entanglement persists over
        long separations: the propagated uncertainty keeps LE(4, 4+k)
        significantly above zero even at k >= 5.
        """
        from mpo_tomo.correlations import moments_to_zshifted
        from mpo_tomo.fitting import fit_chain, propagate_joint
        from mpo_tomo.measurement import synthesize_dataset

        truth = noisy_cluster_model(10, ErrorModel.uniform(10, 0.098, 0.092))
        table = synthesize_dataset(truth, 5, 1.0, 10**7, seed=4)
        _, _, fit = fit_chain(moments_to_zshifted(table))
        assert fit.converged
        values = []
        for k in (1, 3, 5, 6):
            pair = (4, 4 + k)
            le = localizable_entanglement(fit.mpo, pair, "negativity")
            (se,), _ = propagate_joint(fit, [le.gradient])
            values.append((k, le.value, se))
        # decays with distance but stays significantly above zero
        assert values[0][1] > values[1][1] > values[2][1] > values[3][1]
        for k, value, se in values:
            if k >= 5:
                assert value > 3.0 * se
        # and agrees with the underlying truth within a few standard errors
        t_le = localizable_entanglement(truth, (4, 10), "negativity")
        k, value, se = values[-1]
        assert abs(value - t_le.value) < 4.0 * se


class TestSubsetEstimator:
    def test_full_enumeration_equals_exact(self, noisy6):
        pair = (2, 5)
        exact = localizable_entanglement(noisy6, pair, "negativity")
        full = le_subset_estimate(noisy6, pair, "negativity", samples=2**4, seed=3)
        assert full.value == pytest.approx(exact.value, abs=1e-12)
        assert full.se_sampling == 0.0  # finite-population correction

    def test_unbiased_within_sampling_error(self):
        m = noisy_cluster_model(12, ErrorModel.uniform(12, 0.09, 0.06))
        pair = (3, 9)
        exact = localizable_entanglement(m, pair, "negativity")
        for seed in range(20):
            est = le_subset_estimate(m, pair, "negativity", samples=2**8, seed=seed)
            assert abs(est.value - exact.value) <= 3.0 * est.se_sampling

    def test_deterministic(self, noisy6):
        pair = (1, 6)
        a = le_subset_estimate(noisy6, pair, "concurrence", samples=8, seed=5)
        b = le_subset_estimate(noisy6, pair, "concurrence", samples=8, seed=5)
        assert a.value == b.value
        assert a.se_sampling == b.se_sampling

    def test_sample_count_validated(self, noisy6):
        with pytest.raises(ValidationError):
            le_subset_estimate(noisy6, (1, 6), samples=17, seed=0)

    @pytest.mark.parametrize("samples", [8.0, 8.7, True, "8"])
    def test_sample_count_must_be_an_integer(self, noisy6, samples):
        with pytest.raises(ValidationError, match="integer"):
            le_subset_estimate(noisy6, (1, 6), samples=samples, seed=0)

    def test_numpy_integer_sample_count(self, noisy6):
        pair = (1, 6)
        a = le_subset_estimate(noisy6, pair, "concurrence", samples=np.int64(8), seed=5)
        b = le_subset_estimate(noisy6, pair, "concurrence", samples=8, seed=5)
        assert (a.value, a.branches_evaluated) == (b.value, 8)

    def test_long_chain_draws_distinct_branches(self):
        # 2^25 branches: one sampler without replacement for every population
        n = 27
        m = noisy_cluster_model(n, ErrorModel.uniform(n, 0.09, 0.06))
        est = le_subset_estimate(m, (1, 3), "negativity", samples=64, seed=1)
        assert est.branches_evaluated == 64
        assert np.isfinite(est.value) and np.isfinite(est.se_sampling)

    def test_unknown_measure_rejected(self, noisy6):
        with pytest.raises(ValidationError, match="negatvity"):
            le_subset_estimate(noisy6, (1, 6), "negatvity", 16, 0)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 7), (3, 8), (1, 9)])
    def test_batched_strings_match_single_sweeps(self, pair, rng):
        # one sweep over all strings equals one left_environments sweep per
        # string, for strings in any order and with repeats
        from mpo_tomo.entanglement import _outcome_maps, _string_coefficients
        from mpo_tomo.mpo import left_environments

        m = noisy_cluster_model(9, ErrorModel.uniform(9, 0.09, 0.06))
        _, maps, measured = _outcome_maps(m, pair)
        strings = rng.integers(0, 2 ** len(measured), size=40)
        strings = np.concatenate([strings, strings[::-3], [0, 2 ** len(measured) - 1]])
        batched = _string_coefficients(maps, measured, strings)
        for index, c in zip(strings, batched):
            chosen = list(maps)
            for k, s in enumerate(measured):
                chosen[s] = maps[s][:, (index >> k) & 1]
            assert np.array_equal(c, left_environments(chosen)[-1].reshape(4, 4))

    def test_string_blocks_match_one_sweep(self, monkeypatch):
        # strings split into blocks of the batched sweep, the last one
        # partial, give the coefficients of one sweep over all of them
        from mpo_tomo import entanglement
        from mpo_tomo.entanglement import _outcome_maps, _string_coefficients

        m = noisy_cluster_model(9, ErrorModel.uniform(9, 0.09, 0.06))
        _, maps, measured = _outcome_maps(m, (2, 7))
        strings = np.random.default_rng(63).integers(0, 2 ** len(measured), size=50)
        whole = _string_coefficients(maps, measured, strings)
        monkeypatch.setattr(entanglement, "_STRING_BLOCK", 16)
        assert np.array_equal(_string_coefficients(maps, measured, strings), whole)
