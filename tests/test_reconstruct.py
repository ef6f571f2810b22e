"""Bond estimation, explicit inversion, reconstructibility, compression."""

import numpy as np
import pytest

from _oracles import (
    check_reconstructibility,
    dense_to_mpo,
    placed,
    random_density_matrix,
    random_protocol,
    window_correlation_set,
)

from mpo_tomo.cluster import ideal_cluster_mpo
from mpo_tomo.emission import emit_mpo
from mpo_tomo.errors import DataError, ValidationError
from mpo_tomo.measurement import synthesize_dataset
from mpo_tomo.mpo import Mpo, fidelity
from mpo_tomo.reconstruct import (
    build_corr_matrices,
    compress,
    estimate_bond_dims,
    invert_reconstruct,
    singular_value_ses,
)


def product_state_mpo(n):
    site = np.zeros((1, 4, 1))
    site[0, 0, 0] = 1.0
    site[0, 3, 0] = 1.0
    return Mpo([site] * n)


class TestCorrMatrices:
    def test_cluster_b_matrices_have_rank_four(self, cluster6):
        cm = build_corr_matrices(window_correlation_set(cluster6, 5))
        for s, b in cm.b.items():
            sv = np.linalg.svd(b, compute_uv=False)
            assert np.sum(sv > 1e-10) == 4

    def test_product_state_rank_one(self):
        cm = build_corr_matrices(window_correlation_set(product_state_mpo(6), 5))
        for b in cm.b.values():
            sv = np.linalg.svd(b, compute_uv=False)
            assert np.sum(sv > 1e-10) == 1

    def test_entries_match_direct_correlations(self, rng):
        m = emit_mpo(random_protocol(6, 2, seed=31))
        corrs = window_correlation_set(m, 5)
        cm = build_corr_matrices(corrs)
        from mpo_tomo.reconstruct import _corr_matrix

        for s in cm.b:
            for _ in range(10):
                a, b, c, d = rng.integers(0, 4, size=4)
                direct = m.correlation(placed((a, b, c, d), s, 6))
                assert cm.b[s][4 * a + b, 4 * c + d] == pytest.approx(direct, abs=1e-12)
        for s in corrs.starts:
            cmat = _corr_matrix(corrs, s, 2, 2)[0]  # C(s, s+1 | s+2 | s+3, s+4)
            a, b, i, c, d = rng.integers(0, 4, size=5)
            direct = m.correlation(placed((a, b, i, c, d), s, 6))
            assert cmat[i, 4 * a + b, 4 * c + d] == pytest.approx(direct, abs=1e-12)

    def test_unphysical_values_rejected(self, cluster6):
        corrs = window_correlation_set(cluster6, 5)
        corrs.values[1][(1, 1, 1, 1, 1)] = 1.5
        with pytest.raises(DataError):
            build_corr_matrices(corrs)

    def test_normalization_check(self, cluster6):
        corrs = window_correlation_set(cluster6, 5)
        corrs.values[1][(0, 0, 0, 0, 0)] = 0.2
        with pytest.raises(DataError):
            build_corr_matrices(corrs)


class TestBondEstimation:
    def test_ideal_cluster_exact(self, cluster6):
        cm = build_corr_matrices(window_correlation_set(cluster6, 5))
        est = estimate_bond_dims(cm, 5.0)
        assert all(d == 4 for d in est.dims.values())

    def test_product_state(self):
        cm = build_corr_matrices(window_correlation_set(product_state_mpo(6), 5))
        est = estimate_bond_dims(cm, 5.0)
        assert all(d == 1 for d in est.dims.values())

    def test_d3_protocol_gives_nine(self):
        m = emit_mpo(random_protocol(6, 3, seed=2))
        cm = build_corr_matrices(window_correlation_set(m, 5))
        est = estimate_bond_dims(cm, 5.0)
        assert all(d == 9 for d in est.dims.values())

    def test_noisy_dataset(self, noisy5):
        from mpo_tomo.correlations import moments_to_zshifted, zshifted_to_pauli

        table = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=21)
        pauli = zshifted_to_pauli(moments_to_zshifted(table))
        est = estimate_bond_dims(build_corr_matrices(pauli), 5.0)
        assert all(d == 4 for d in est.dims.values())

    def test_singular_value_derivative_matches_fd(self, rng):
        mat = rng.normal(size=(16, 16))
        u, s, vt = np.linalg.svd(mat)
        h = 1e-6
        for n in (0, 3, 10):
            i, j = rng.integers(0, 16, size=2)
            mp = mat.copy()
            mp[i, j] += h
            mm = mat.copy()
            mm[i, j] -= h
            fd = (
                np.linalg.svd(mp, compute_uv=False)[n]
                - np.linalg.svd(mm, compute_uv=False)[n]
            ) / (2 * h)
            assert u[i, n] * vt[n, j] == pytest.approx(fd, abs=1e-6)

    def test_se_propagation_formula(self, rng):
        mat = rng.normal(size=(16, 16))
        se = np.abs(rng.normal(size=(16, 16))) * 0.01
        sv, sv_se = singular_value_ses(mat, se)
        # Monte-Carlo check of the leading singular value's spread
        draws = [
            np.linalg.svd(mat + rng.normal(size=(16, 16)) * se, compute_uv=False)[0]
            for _ in range(300)
        ]
        assert np.std(draws) == pytest.approx(sv_se[0], rel=0.25)


class TestInversion:
    @pytest.mark.parametrize("n", [6, 10])
    def test_cluster_round_trip(self, n):
        m = ideal_cluster_mpo(n)
        inv = invert_reconstruct(window_correlation_set(m, 5), 5)
        assert inv.mpo is not None
        assert fidelity(inv.mpo, m) >= 1.0 - 1e-9

    def test_l3_cluster_fails_on_x_column(self, cluster6):
        inv = invert_reconstruct(window_correlation_set(cluster6, 5), 3)
        assert inv.mpo is None
        assert inv.mpo is None
        for site in (3, 4):
            assert inv.column_residuals[site][1, 3] >= 0.99

    def test_l4_cluster_fails(self, cluster6):
        inv = invert_reconstruct(window_correlation_set(cluster6, 5), 4)
        assert inv.mpo is None

    def test_random_protocol_l5_round_trip(self, rng):
        m = emit_mpo(random_protocol(6, 2, seed=5))
        inv = invert_reconstruct(window_correlation_set(m, 5), 5)
        assert inv.mpo is not None
        for _ in range(200):
            w = tuple(rng.integers(0, 4, 6))
            assert abs(inv.mpo.correlation(w) - m.correlation(w)) < 1e-8

    def test_random_protocol_l3_round_trip(self, rng):
        m = emit_mpo(random_protocol(6, 2, seed=9))
        inv = invert_reconstruct(window_correlation_set(m, 5), 3)
        assert inv.mpo is not None
        for _ in range(200):
            w = tuple(rng.integers(0, 4, 6))
            assert abs(inv.mpo.correlation(w) - m.correlation(w)) < 1e-8

    def test_bond17_beyond_window_capacity(self):
        # a generic state truncated to bond 17 exceeds the five-qubit window
        # capacity.  Its local data is exactly consistent with a bond-16
        # impostor, so the local solves succeed and even reproduce every
        # 5-window; the reconstruction is nevertheless wrong on longer-range
        # correlations, and the rank test against the truth flags it.
        local = np.random.default_rng(517)
        truth17 = dense_to_mpo(random_density_matrix(64, local), max_bond=17)
        assert max(truth17.bonds) == 17
        assert not check_reconstructibility(truth17, 5).reconstructible
        inv = invert_reconstruct(window_correlation_set(truth17, 5), 5)
        assert inv.mpo is not None  # locally consistent: no data-level failure signal
        full_chain_errors = [
            abs(inv.mpo.correlation(w) - truth17.correlation(w))
            for w in (tuple(local.integers(0, 4, 6)) for _ in range(300))
        ]
        assert max(full_chain_errors) > 1e-3  # but it is not the true state

    def test_bond16_reconstructible(self):
        local = np.random.default_rng(616)
        truth16 = dense_to_mpo(random_density_matrix(64, local), max_bond=16)
        assert max(truth16.bonds) == 16
        assert check_reconstructibility(truth16, 5).reconstructible
        inv = invert_reconstruct(window_correlation_set(truth16, 5), 5)
        assert inv.mpo is not None
        for _ in range(100):
            w = tuple(local.integers(0, 4, 6))
            assert abs(inv.mpo.correlation(w) - truth16.correlation(w)) < 1e-8


class TestReconstructibility:
    def test_cluster_l5(self, cluster6):
        rep = check_reconstructibility(cluster6, 5)
        assert rep.reconstructible
        assert all(r == 4 for r in rep.l_ranks.values())
        assert all(r == 4 for r in rep.r_ranks.values())

    @pytest.mark.parametrize("L", [3, 4])
    def test_cluster_small_windows_fail(self, cluster6, L):
        rep = check_reconstructibility(cluster6, L)
        assert not rep.reconstructible
        deficient = [r < 4 for r in rep.l_ranks.values()] + [
            r < 4 for r in rep.r_ranks.values()
        ]
        assert any(deficient)
        if L == 3:  # single-site products are rank 2 on both sides
            assert all(r == 2 for r in rep.l_ranks.values())
        assert all(r == 2 for r in rep.r_ranks.values())

    def test_random_bond4_l3_mostly_reconstructible(self):
        ok = sum(
            check_reconstructibility(
                emit_mpo(random_protocol(6, 2, seed=1000 + k)), 3
            ).reconstructible
            for k in range(100)
        )
        assert ok >= 95


class TestCompression:
    def test_cluster_compress_to_four(self, cluster6):
        corrs = window_correlation_set(cluster6, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        comp = compress(inv.mpo, cm, {s: 4 for s in cm.b})
        assert comp.bonds == (4, 4, 4, 4, 4)
        assert fidelity(comp, cluster6) >= 1.0 - 1e-9

    def test_exact_rank_compression_preserves_correlations(self, rng):
        m = emit_mpo(random_protocol(6, 2, seed=13))
        corrs = window_correlation_set(m, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        est = estimate_bond_dims(cm)
        comp = compress(inv.mpo, cm, est.dims)
        for _ in range(200):
            w = tuple(rng.integers(0, 4, 6))
            assert abs(comp.correlation(w) - m.correlation(w)) < 1e-10

    def test_lossy_compression_below_rank(self, cluster6):
        # all 4**6 words: only a few of them deviate past the bound
        corrs = window_correlation_set(cluster6, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        comp = compress(inv.mpo, cm, {1: 3})
        devs = np.abs(comp.window_correlations(6)[1] - cluster6.window_correlations(6)[1])
        assert devs.max() > 0.1

    def test_guess_keeps_the_inversion_sites(self, cluster6):
        # the projection is linear in every interior site the inversion
        # solved, so no solve is discarded for a rebuild from the data
        corrs = window_correlation_set(cluster6, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        targets = {s: 4 for s in cm.b}
        sites = list(inv.mpo.tensors)
        sites[3] = 2.0 * sites[3]
        base = compress(inv.mpo, cm, targets)
        scaled = compress(Mpo(sites), cm, targets)
        for s in range(1, 7):
            factor = 2.0 if s == 4 else 1.0
            np.testing.assert_allclose(
                scaled.tensors[s - 1], factor * base.tensors[s - 1], atol=1e-12
            )

    def test_zero_singular_value_rejected(self):
        m = product_state_mpo(6)
        corrs = window_correlation_set(m, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        with pytest.raises(ValidationError):
            compress(inv.mpo, cm, {1: 2})

    def test_target_below_one_rejected(self, cluster6):
        # a bond estimate of 0 (no singular value above k_sigma SEs) would
        # read the smallest singular value and build a bond of dimension 0
        corrs = window_correlation_set(cluster6, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        with pytest.raises(ValidationError, match="no singular value of B_2 passed the bond test at bond 2"):
            compress(inv.mpo, cm, {1: 4, 2: 0})

    def test_target_above_bond_rejected(self, cluster6):
        corrs = window_correlation_set(cluster6, 5)
        cm = build_corr_matrices(corrs)
        inv = invert_reconstruct(corrs, 5)
        with pytest.raises(ValidationError):
            compress(inv.mpo, cm, {1: 17})
