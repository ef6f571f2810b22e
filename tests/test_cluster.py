"""Ideal/noisy cluster states, stabilizer bounds, error-model fitting."""

import itertools

import numpy as np
import pytest

from _oracles import (
    PAPER_EPS_AD,
    PAPER_EPS_PD,
    cz_chain_state,
    dense_correlation,
    dense_fidelity,
    ideal_cluster_mps,
    mean_excitations,
    mpo_to_dense,
    mps_to_dense,
    placed,
    stabilizer_concurrence_bound,
    stabilizer_expectations,
)

from mpo_tomo.cluster import (
    ErrorModel,
    fit_error_model,
    ideal_cluster_mpo,
    noisy_cluster_model,
    stabilizer_fidelity_bound,
    write_stabilizer_report,
)
from mpo_tomo.errors import DataError, ValidationError
from mpo_tomo.mpo import fidelity


class TestIdealMps:
    def test_two_qubit_state(self):
        psi = mps_to_dense(ideal_cluster_mps(2))
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        expected = (np.kron([1, 0], plus) + np.kron([0, 1], minus)) / np.sqrt(2)
        assert np.allclose(psi, expected, atol=1e-12)

    def test_three_qubit_stabilizer(self):
        psi = mps_to_dense(ideal_cluster_mps(3))
        rho = np.outer(psi, psi.conj())
        assert dense_correlation(rho, (3, 1, 3)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_normalized(self, n):
        assert np.linalg.norm(mps_to_dense(ideal_cluster_mps(n))) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_cz_circuit(self, n):
        psi = mps_to_dense(ideal_cluster_mps(n))
        assert abs(abs(np.vdot(cz_chain_state(n), psi)) - 1.0) < 1e-12

    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            ideal_cluster_mps(1)


class TestIdealMpo:
    def test_all_stabilizers_one(self, cluster5):
        assert np.allclose(stabilizer_expectations(cluster5), 1.0, atol=1e-12)

    def test_fidelity_to_mps_projector(self, cluster5):
        psi = mps_to_dense(ideal_cluster_mps(5))
        assert dense_fidelity(mpo_to_dense(cluster5), psi) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_qubit_correlations_vanish_except_boundary(self, cluster5):
        nonzero = []
        for s in range(1, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    v = cluster5.correlation(placed((a, b), s, 5))
                    if abs(v) > 1e-12:
                        nonzero.append((s, a, b, v))
        assert nonzero == [(1, 1, 3, 1.0), (4, 3, 1, 1.0)]

    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            ideal_cluster_mpo(2)

    def test_stabilizer_completeness(self):
        # nonzero expectations are exactly the 2^n stabilizer-group words
        n = 5
        m = ideal_cluster_mpo(n)
        rho = mpo_to_dense(m)
        count_one = 0
        for letters in itertools.product(range(4), repeat=n):
            v = m.correlation(letters)
            assert abs(v - dense_correlation(rho, letters)) < 1e-10
            if abs(v) > 1e-10:
                assert abs(abs(v) - 1.0) < 1e-10
                count_one += 1
        assert count_one == 2**n


class TestNoisyModel:
    def test_zero_errors_is_ideal(self, cluster5):
        m = noisy_cluster_model(5, ErrorModel.uniform(5, 0.0, 0.0))
        assert fidelity(m, cluster5) == pytest.approx(1.0, abs=1e-12)

    def test_mean_excitation_anchor(self, noisy5):
        assert np.allclose(mean_excitations(noisy5), 0.451, atol=1e-12)

    def test_fidelity_anchor(self, noisy5, cluster5):
        assert abs(fidelity(noisy5, cluster5) - 0.616) <= 0.05

    def test_model_close_to_dense_oracle(self, noisy5):
        psi = mps_to_dense(ideal_cluster_mps(5))
        f_dense = dense_fidelity(mpo_to_dense(noisy5), psi)
        assert abs(fidelity(noisy5, ideal_cluster_mpo(5)) - f_dense) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            noisy_cluster_model(5, ErrorModel.uniform(4, 0.1, 0.1))

    @pytest.mark.parametrize("n", [*range(3, 13), 35])
    def test_closed_form_matches_contraction(self, n):
        rng = np.random.default_rng(n)
        model = ErrorModel(rng.uniform(0.0, 0.4, n), rng.uniform(0.0, 0.4, n))
        m = noisy_cluster_model(n, model)
        assert np.allclose(model.stabilizers(), stabilizer_expectations(m), rtol=0, atol=1e-14)
        # the mean excitation (1 - eps_ad) / 2 that fit_error_model inverts
        assert np.allclose((1.0 - model.eps_ad) / 2.0, mean_excitations(m), rtol=0, atol=1e-14)

    def test_uniform_model_symmetry(self, noisy5):
        exc = mean_excitations(noisy5)
        assert np.ptp(exc) < 1e-12


class TestFidelityBound:
    def test_perfect_stabilizers(self):
        assert stabilizer_fidelity_bound(np.ones(5)) == pytest.approx(1.0)

    def test_paper_anchor(self, noisy5):
        bound = stabilizer_fidelity_bound(stabilizer_expectations(noisy5))
        assert abs(bound - 0.40) <= 0.10

    def test_bound_below_true_fidelity(self, rng):
        psi_cache = {}
        for _ in range(40):
            n = int(rng.integers(5, 7))
            model = ErrorModel(rng.uniform(0, 0.3, n), rng.uniform(0, 0.3, n))
            m = noisy_cluster_model(n, model)
            bound = stabilizer_fidelity_bound(stabilizer_expectations(m))
            if n not in psi_cache:
                psi_cache[n] = mps_to_dense(ideal_cluster_mps(n))
            f = dense_fidelity(mpo_to_dense(m), psi_cache[n])
            assert bound <= f + 1e-10

    def test_monotone_in_each_value(self, rng):
        v = rng.uniform(0.2, 0.9, 6)
        base = stabilizer_fidelity_bound(v)
        for s in range(6):
            up = v.copy()
            up[s] += 0.05
            assert stabilizer_fidelity_bound(up) >= base - 1e-12

    def test_out_of_range_data(self):
        with pytest.raises(DataError):
            stabilizer_fidelity_bound([1.2, 0.9, 0.9], ses=[0.01, 0.01, 0.01])
        # within 3 sigma is accepted
        stabilizer_fidelity_bound([1.02, 0.9, 0.9], ses=[0.01, 0.01, 0.01])


class TestConcurrenceBound:
    def test_perfect(self):
        clamped, raw = stabilizer_concurrence_bound(np.ones(6), 3)
        assert clamped == raw == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        clamped, raw = stabilizer_concurrence_bound([1.0, 0.9, 1.0], 4)
        assert raw == pytest.approx(0.5)
        assert clamped == pytest.approx(0.5)

    def test_clamping(self):
        clamped, raw = stabilizer_concurrence_bound([0.5, 0.5], 3)
        assert raw == pytest.approx(-1.0)
        assert clamped == 0.0

    def test_bound_below_localizable_concurrence(self, rng):
        from mpo_tomo.entanglement import localizable_entanglement

        n = 6
        for _ in range(50):
            model = ErrorModel(rng.uniform(0, 0.2, n), rng.uniform(0, 0.2, n))
            m = noisy_cluster_model(n, model)
            stabs = stabilizer_expectations(m)
            r, rp = 2, 5
            _, raw = stabilizer_concurrence_bound(stabs, rp - r)
            le = localizable_entanglement(m, (r, rp), "concurrence")
            assert raw <= le.value + 1e-10


class TestErrorModelFit:
    def test_round_trip_identification(self, noisy5):
        exc = mean_excitations(noisy5)
        stabs = stabilizer_expectations(noisy5)
        ses = np.full(5, 1e-4)
        model = fit_error_model(exc, ses, stabs, ses, uniform=True)
        assert model.eps_ad[0] == pytest.approx(PAPER_EPS_AD, abs=1e-8)
        assert model.eps_pd[0] == pytest.approx(PAPER_EPS_PD, abs=1e-8)

    def test_clean_data_gives_zero_errors(self):
        exc = np.full(5, 0.5)
        stabs = np.ones(5)
        ses = np.full(5, 1e-3)
        model = fit_error_model(exc, ses, stabs, ses)
        assert np.allclose(model.eps_ad, 0.0, atol=1e-8)
        assert np.allclose(model.eps_pd, 0.0, atol=1e-6)

    def test_boundary_stabilizers_less_damped(self, noisy5):
        stabs = stabilizer_expectations(noisy5)
        assert stabs[0] > stabs[1]
        assert stabs[-1] > stabs[-2]
        # the first and last stabilizers contain one Z instead of two
        assert stabs[0] == pytest.approx(stabs[-1], abs=1e-12)

    def test_per_site_fit(self):
        model_true = ErrorModel(
            np.array([0.05, 0.1, 0.15, 0.1, 0.05]), np.array([0.02, 0.08, 0.04, 0.06, 0.1])
        )
        m = noisy_cluster_model(5, model_true)
        ses = np.full(5, 1e-5)
        fitted = fit_error_model(
            mean_excitations(m), ses, stabilizer_expectations(m), ses, uniform=False
        )
        assert np.allclose(fitted.eps_ad, model_true.eps_ad, atol=1e-6)
        assert np.allclose(fitted.eps_pd, model_true.eps_pd, atol=1e-4)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_fit_is_bounded_minimiser(self, noisy5, uniform):
        # the dephasing fit against an MPO-contracted grid of eps_pd values
        rng = np.random.default_rng(3)
        ses = rng.uniform(0.005, 0.02, 5)
        exc = mean_excitations(noisy5)
        stabs = stabilizer_expectations(noisy5) + rng.normal(0.0, 0.02, 5)
        stabs[0] = 0.99  # above its zero-dephasing value: clipped to eps_pd = 0
        fitted = fit_error_model(exc, ses, stabs, ses, uniform=uniform)

        def sq_residuals(eps_pd):
            m = noisy_cluster_model(5, ErrorModel(fitted.eps_ad, eps_pd))
            return ((stabilizer_expectations(m) - stabs) / ses) ** 2

        # residual s depends on eps_pd at site s only
        grid = np.array([sq_residuals(np.full(5, pd)) for pd in np.linspace(0, 1, 201)])
        best = grid.sum(axis=1).min() if uniform else grid.min(axis=0).sum()
        assert np.sum(sq_residuals(fitted.eps_pd)) <= best * (1 + 1e-12)
        if not uniform:
            assert fitted.eps_pd[0] == 0.0

    def test_unidentifiable_dephasing_per_site(self):
        # eps_ad = 1 at site 3 zeroes stabilizers 2, 3 and 4
        exc = np.array([0.45, 0.45, 0.0, 0.45, 0.45])
        ses = np.full(5, 1e-3)
        with pytest.raises(DataError, match=r"sites \[2, 3, 4\]"):
            fit_error_model(exc, ses, np.full(5, 0.5), ses, uniform=False)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_unidentifiable_dephasing_everywhere(self, uniform):
        ses = np.full(5, 1e-3)
        with pytest.raises(DataError, match=r"sites \[1, 2, 3, 4, 5\]"):
            fit_error_model(np.zeros(5), ses, np.zeros(5), ses, uniform=uniform)

    def test_too_few_sites(self):
        with pytest.raises(ValidationError):
            fit_error_model([0.4, 0.4], [0.01, 0.01], [0.9, 0.9], [0.01, 0.01])


class TestSerialization:
    def test_error_model_json(self, tmp_path):
        model = ErrorModel(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.05, 0.1]))
        path = tmp_path / "model.json"
        model.to_json(path)
        import json

        doc = json.loads(path.read_text())
        assert set(doc) == {"eps_ad", "eps_pd"}
        back = ErrorModel(doc["eps_ad"], doc["eps_pd"])
        assert np.allclose(back.eps_ad, model.eps_ad)
        assert np.allclose(back.eps_pd, model.eps_pd)

    def test_stabilizer_report(self, tmp_path):
        path = tmp_path / "stab.csv"
        write_stabilizer_report(path, [0.9, 0.8], [0.01, 0.02], [0.91, 0.79])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,value,se,model_value"
        assert lines[1].startswith("1,0.9,")
        assert len(lines) == 3

    def test_phase_flip_conversion(self):
        # dephasing amplitude eps_pd is a phase flip of probability eps_pd / 2:
        # X and Y scale by 1 - 2 (eps_pd / 2)
        channel = ErrorModel.uniform(3, 0.0, PAPER_EPS_PD).channels()[0]
        flip = 1.0 - 2.0 * 0.046
        assert np.allclose(channel, np.diag([1.0, flip, flip, 1.0]))
