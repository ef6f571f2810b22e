"""Core MPO algebra: correlations, dense conversion, gauge, standard form."""

import json

import numpy as np
import pytest

from conftest import random_mpo
from _oracles import (
    apply_kraus_dense,
    cz_chain_state,
    dense_correlation,
    dense_to_mpo,
    gauge_transform,
    loss_kraus,
    mpo_to_dense,
    mps_to_dense,
    placed,
)

from mpo_tomo.channels import amplitude_damping, compose, pure_dephasing, z_rotation
from mpo_tomo.cluster import ideal_cluster_mpo, stabilizer_words
from mpo_tomo.errors import ValidationError
from mpo_tomo.mpo import (
    Mpo,
    apply_local_channels,
    density_corner,
    fidelity,
    fidelity_gradient,
    left_environments,
    left_environments_vjp,
    load_json,
    matrix_element,
    pad_bond,
    save_json,
)
from mpo_tomo.standard_form import is_standard_form, to_standard_form


class TestCorrelation:
    def test_cluster_stabilizer(self, cluster5):
        assert cluster5.correlation((3, 1, 3, 0, 0)) == pytest.approx(1.0)

    def test_identity_word_is_trace(self, cluster5):
        sf = to_standard_form(cluster5)
        assert sf.correlation((0,) * 5) == pytest.approx(1.0, abs=1e-15)

    def test_random_mpo_against_dense(self, rng):
        m = random_mpo(4, 3, rng)
        rho = mpo_to_dense(m)
        for _ in range(50):
            w = tuple(rng.integers(0, 4, size=4))
            assert m.correlation(w) == pytest.approx(
                dense_correlation(rho, w), abs=1e-12
            )

    def test_word_out_of_range(self, cluster5):
        with pytest.raises(ValidationError):
            cluster5.correlation(placed((1, 1), 5, 5))

    def test_dense_oracle_equivalence_larger_chain(self, rng):
        m = random_mpo(8, 2, rng, scale=0.7)
        rho = mpo_to_dense(m)
        for _ in range(200):
            w = tuple(rng.integers(0, 4, size=8))
            assert abs(m.correlation(w) - dense_correlation(rho, w)) < 1e-10

    def test_window_correlations_match_single_words(self, noisy6):
        wc = noisy6.window_correlations(3)
        for start in (1, 2, 4):
            for w in [(1, 0, 3), (2, 2, 1), (3, 3, 3)]:
                assert wc[start][w] == pytest.approx(
                    noisy6.correlation(placed(w, start, 6)), abs=1e-12
                )


class TestDenseConversion:
    def test_ground_state_dense(self):
        # single-site chain: coefficients (1, 0, 0, 1) give |0><0|
        m = Mpo([np.array([1.0, 0, 0, 1]).reshape(1, 4, 1)])
        assert np.allclose(mpo_to_dense(m), np.diag([1.0, 0.0]))

    def test_two_qubit_cluster_projector(self):
        # CZ |++> = (|0+> + |1->)/sqrt(2), checked against the hand-built ket
        psi = cz_chain_state(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        by_hand = (np.kron([1, 0], plus) + np.kron([0, 1], minus)) / np.sqrt(2)
        assert np.allclose(psi, by_hand)
        m = dense_to_mpo(np.outer(psi, psi.conj()), max_bond=4)
        assert np.allclose(
            mpo_to_dense(m), np.outer(by_hand, by_hand.conj()), atol=1e-12
        )

    def test_cluster_diagonal_magnitudes(self, cluster5):
        rho = mpo_to_dense(cluster5)
        assert np.allclose(np.abs(np.diag(rho)), 2**-5, atol=1e-12)

    def test_round_trip_cluster(self):
        psi = cz_chain_state(4)
        rho = np.outer(psi, psi.conj())
        m = dense_to_mpo(rho, max_bond=4)
        assert np.max(np.abs(mpo_to_dense(m) - rho)) < 1e-10

    def test_product_state_bonds_are_one(self):
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 1.0
        m = dense_to_mpo(rho, max_bond=4)
        assert m.bonds == (1, 1, 1)

    def test_ghz_round_trip(self):
        psi = np.zeros(16, dtype=complex)
        psi[0] = psi[-1] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        m = dense_to_mpo(rho, max_bond=4)
        assert np.max(np.abs(mpo_to_dense(m) - rho)) < 1e-10

    def test_size_limit(self):
        with pytest.raises(ValidationError):
            mpo_to_dense(random_mpo(13, 1, np.random.default_rng(0)))

    def test_matrix_element_matches_dense(self, noisy6):
        rho = mpo_to_dense(noisy6)
        n = 6
        rng = np.random.default_rng(1)
        for _ in range(20):
            i, j = rng.integers(0, 2**n, size=2)
            bra = [(i >> (n - 1 - t)) & 1 for t in range(n)]
            ket = [(j >> (n - 1 - t)) & 1 for t in range(n)]
            assert matrix_element(noisy6, bra, ket) == pytest.approx(
                complex(rho[i, j]), abs=1e-12
            )


class TestDensityCorner:
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_matches_matrix_element(self, n):
        m = random_mpo(n, 3, np.random.default_rng(n))
        corner = [*range(16), *range(2**n - 16, 2**n)]
        bits = [[(i >> (n - 1 - t)) & 1 for t in range(n)] for i in corner]
        expected = np.array([[matrix_element(m, bra, ket) for ket in bits] for bra in bits])
        assert np.allclose(density_corner(m), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_short_chain_rejected(self):
        with pytest.raises(ValidationError):
            density_corner(random_mpo(4, 2, np.random.default_rng(0)))


class TestChannels:
    def test_identity_channels(self, cluster5):
        out = apply_local_channels(cluster5, [np.eye(4)] * 5)
        assert out == cluster5

    def test_amplitude_damping_on_excited_state(self):
        eps = 0.3
        excited = Mpo([np.array([1.0, 0, 0, -1]).reshape(1, 4, 1)])
        out = apply_local_channels(excited, [amplitude_damping(eps)])
        assert np.allclose(
            out.tensors[0][0, :, 0], [1.0, 0.0, 0.0, -1.0 + 2 * eps]
        )

    def test_dephasing_on_plus_state(self):
        eps = 0.2
        plus = Mpo([np.array([1.0, 1, 0, 0]).reshape(1, 4, 1)])
        out = apply_local_channels(plus, [pure_dephasing(eps)])
        assert np.allclose(out.tensors[0][0, :, 0], [1.0, 1 - eps, 0.0, 0.0])

    def test_channel_count_mismatch(self, cluster5):
        with pytest.raises(ValidationError):
            apply_local_channels(cluster5, [np.eye(4)] * 4)

    def test_channel_composition(self, noisy6, rng):
        e1 = amplitude_damping(0.1)
        e2 = compose(pure_dephasing(0.2), z_rotation(0.4))
        a = apply_local_channels(apply_local_channels(noisy6, [e1] * 6), [e2] * 6)
        b = apply_local_channels(noisy6, [compose(e2, e1)] * 6)
        for t1, t2 in zip(a.tensors, b.tensors):
            assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_channel_against_kraus_oracle(self, cluster5, rng):
        eps_ad, eps_pd = 0.15, 0.08
        chan = compose(pure_dephasing(eps_pd), amplitude_damping(eps_ad))
        out = apply_local_channels(cluster5, [chan] * 5)
        rho = mpo_to_dense(cluster5)
        from _oracles import dephasing_kraus

        for s in range(5):
            rho = apply_kraus_dense(rho, loss_kraus(eps_ad), s, 5)
            rho = apply_kraus_dense(rho, dephasing_kraus(eps_pd), s, 5)
        assert np.max(np.abs(mpo_to_dense(out) - rho)) < 1e-12


class TestStandardForm:
    def test_cluster_correlations_preserved(self, cluster5):
        sf = to_standard_form(cluster5)
        for w in stabilizer_words(5):
            assert sf.correlation(w) == pytest.approx(1.0, abs=1e-12)
        assert is_standard_form(sf)

    def test_idempotent(self, cluster5):
        sf = to_standard_form(cluster5)
        sf2 = to_standard_form(sf)
        for a, b in zip(sf.tensors, sf2.tensors):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_scaled_input_normalized(self, cluster5):
        ts = [t * (2.0 if k == 0 else 1.0) for k, t in enumerate(cluster5.tensors)]
        sf = to_standard_form(Mpo(ts))
        assert sf.trace() == pytest.approx(1.0, abs=1e-12)

    def test_zero_trace_rejected(self):
        t1 = np.zeros((1, 4, 1))
        t1[0, 1, 0] = 1.0  # pure X component: traceless
        with pytest.raises(ValidationError):
            to_standard_form(Mpo([t1, np.eye(4).reshape(4, 4, 1)[:1].reshape(1, 4, 1)]))

    def test_identity_suffix_property(self, noisy6):
        sf = to_standard_form(noisy6)
        n = sf.n_qubits
        for s in range(2, n + 1):
            v = sf.tensors[-1][:, 0, :]
            for t in reversed(sf.tensors[s - 1 : -1]):
                v = t[:, 0, :] @ v
            expected = np.zeros_like(v)
            expected[0] = 1.0
            assert np.array_equal(v, expected)

    def test_random_mpo_round_trip(self, rng):
        m = random_mpo(5, 5, rng, scale=0.6)
        if abs(m.trace()) < 1e-6:
            m = Mpo([m.tensors[0] + 0.5] + list(m.tensors[1:]))
        sf = to_standard_form(m)
        tr = m.trace()
        for _ in range(100):
            w = tuple(rng.integers(0, 4, size=5))
            assert sf.correlation(w) == pytest.approx(
                m.correlation(w) / tr, abs=1e-9
            )

    def test_small_bond_padding(self):
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 1.0
        m = dense_to_mpo(rho, max_bond=4)  # all bonds 1
        sf = to_standard_form(m)
        assert is_standard_form(sf)
        assert sf.correlation((3, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_pad_bond_preserves_operator(self, cluster5, rng):
        padded = pad_bond(cluster5, 2, 7)
        assert padded.bonds[1] == 7
        for _ in range(50):
            w = tuple(rng.integers(0, 4, size=5))
            assert padded.correlation(w) == pytest.approx(
                cluster5.correlation(w), abs=1e-12
            )


class TestGauge:
    def test_identity_gauge(self, cluster5):
        g = gauge_transform(cluster5, 2, np.eye(4))
        assert g == cluster5

    def test_scalar_gauge(self, cluster5, rng):
        g = gauge_transform(cluster5, 2, 2.0 * np.eye(4))
        for _ in range(30):
            w = tuple(rng.integers(0, 4, size=5))
            assert g.correlation(w) == pytest.approx(
                cluster5.correlation(w), abs=1e-12
            )

    def test_random_invertible_gauges(self, noisy6, rng):
        for _ in range(100):
            bond = int(rng.integers(1, 6))
            d = noisy6.bonds[bond - 1]
            u = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
            cond = np.linalg.cond(u)
            g = gauge_transform(noisy6, bond, u)
            w = tuple(rng.integers(0, 4, size=6))
            tol = 1e-9 * max(cond, 1.0)
            assert abs(g.correlation(w) - noisy6.correlation(w)) < tol

    def test_singular_gauge_rejected(self, cluster5):
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        with pytest.raises(ValidationError):
            gauge_transform(cluster5, 2, u)


class TestFidelity:
    def test_self_fidelity(self, cluster5):
        assert fidelity(cluster5, cluster5) == pytest.approx(1.0, abs=1e-12)

    def test_noisy_model_vs_dense(self, noisy5, cluster5):
        from _oracles import ideal_cluster_mps

        psi = mps_to_dense(ideal_cluster_mps(5))
        dense = float(np.real(psi.conj() @ mpo_to_dense(noisy5) @ psi))
        assert abs(fidelity(noisy5, cluster5) - dense) < 1e-10

    def test_orthogonal_states(self):
        zeros = np.zeros((1, 4, 1))
        zeros[0, 0, 0] = 1.0
        zeros[0, 3, 0] = 1.0
        ones = np.zeros((1, 4, 1))
        ones[0, 0, 0] = 1.0
        ones[0, 3, 0] = -1.0
        m0 = Mpo([zeros] * 3)
        m1 = Mpo([ones] * 3)
        assert fidelity(m0, m1) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self, cluster5, cluster6):
        with pytest.raises(ValidationError):
            fidelity(cluster5, cluster6)

    def test_bounds_on_positive_states(self, rng):
        from _oracles import random_density_matrix

        for _ in range(10):
            n = int(rng.integers(2, 5))
            rho = random_density_matrix(2**n, rng)
            m = dense_to_mpo(rho, max_bond=4**n)
            target = ideal_cluster_mpo(n) if n >= 3 else dense_to_mpo(
                np.outer(cz_chain_state(2), cz_chain_state(2).conj()), 4
            )
            f = fidelity(m, target)
            assert -1e-9 <= f <= 1.0 + 1e-9


class TestFidelityGradient:
    def test_against_finite_differences(self, noisy5, cluster5):
        grads = fidelity_gradient(noisy5, cluster5)
        rng = np.random.default_rng(7)
        f0 = fidelity(noisy5, cluster5)
        eps = 1e-6
        for _ in range(20):
            s = int(rng.integers(0, 5))
            t = noisy5.tensors[s]
            idx = tuple(int(rng.integers(0, d)) for d in t.shape)
            tp = np.array(t)
            tp[idx] += eps
            tm = np.array(t)
            tm[idx] -= eps
            up = list(noisy5.tensors)
            up[s] = tp
            dn = list(noisy5.tensors)
            dn[s] = tm
            fd = (fidelity(Mpo(up), cluster5) - fidelity(Mpo(dn), cluster5)) / (
                2 * eps
            )
            denom = max(abs(fd), 1e-9)
            assert abs(grads[s][idx] - fd) / denom < 1e-6

    def test_zero_influence_parameter(self):
        # |0...0> has vanishing X and Y slices; probe coefficients that only
        # multiply those zero slices of the target get zero gradient
        zero_site = np.zeros((1, 4, 1))
        zero_site[0, 0, 0] = 1.0
        zero_site[0, 3, 0] = 1.0
        target = Mpo([zero_site] * 4)
        probe = random_mpo(4, 3, np.random.default_rng(3))
        grads = fidelity_gradient(probe, target)
        for g in grads:
            assert np.max(np.abs(g[:, 1, :])) < 1e-14
            assert np.max(np.abs(g[:, 2, :])) < 1e-14

    def test_multilinearity(self, cluster5, rng):
        # the gradient w.r.t. site-1 entries does not depend on site-1 values
        a = random_mpo(5, 4, rng)
        b = Mpo([rng.normal(size=(1, 4, 4))] + list(a.tensors[1:]))
        ga = fidelity_gradient(a, cluster5)[0]
        gb = fidelity_gradient(b, cluster5)[0]
        assert np.max(np.abs(ga - gb)) < 1e-12


class TestLeftEnvironmentsVjp:
    def test_against_central_differences(self, rng):
        # 2-D and 3-D maps after a (3, 2) boundary: the last environment is
        # (3 * 4 * 2, 2); its contraction with a cotangent is linear in every
        # entry, so central differences are exact up to rounding
        shapes = [(2, 4, 3), (3, 2), (2, 2, 3), (3, 2)]
        maps = [rng.normal(size=shape) for shape in shapes]
        boundary = rng.normal(size=(3, 2))
        lefts = left_environments(maps, boundary)
        cotangent = rng.normal(size=lefts[-1].shape)
        grads, boundary_grad = left_environments_vjp(maps, lefts, cotangent)
        assert [g.shape for g in grads] == shapes
        assert boundary_grad.shape == boundary.shape

        def objective(ms, b):
            return float(np.sum(cotangent * left_environments(ms, b)[-1]))

        h = 1e-6
        for k, m in enumerate(maps + [boundary]):
            expected = np.zeros(m.shape)
            for idx in np.ndindex(m.shape):
                step = np.zeros(m.shape)
                step[idx] = h
                plus, minus = list(maps), list(maps)
                if k < len(maps):
                    plus[k], minus[k] = m + step, m - step
                    f_p, f_m = objective(plus, boundary), objective(minus, boundary)
                else:
                    f_p, f_m = objective(maps, m + step), objective(maps, m - step)
                expected[idx] = (f_p - f_m) / (2 * h)
            got = grads[k] if k < len(maps) else boundary_grad
            np.testing.assert_allclose(got, expected, atol=1e-8)


class TestBatchedEnvironments:
    """A sweep over a batch of chains, as the fit stacks its windows and the
    LE subset its outcome strings, equals one sweep per chain, bitwise."""

    def test_window_stacked_sweep_and_vjp(self):
        # five (n_windows, D, 4, D) maps from a (n_windows, 1, D) boundary
        rng = np.random.default_rng(61)
        nw, d = 6, 3
        maps = [rng.normal(size=(nw, d, 4, d)) for _ in range(5)]
        boundary = rng.normal(size=(nw, 1, d))
        lefts = left_environments(maps, boundary)
        assert [e.shape for e in lefts] == [(nw, 4**k, d) for k in range(6)]
        cotangent = rng.normal(size=lefts[-1].shape)
        grads, boundary_grad = left_environments_vjp(maps, lefts, cotangent)
        assert [g.shape for g in grads] == [m.shape for m in maps]
        assert boundary_grad.shape == boundary.shape
        for w in range(nw):
            own = [m[w] for m in maps]
            own_lefts = left_environments(own, boundary[w])
            assert all(np.array_equal(a[w], b) for a, b in zip(lefts, own_lefts))
            own_grads, own_boundary = left_environments_vjp(own, own_lefts, cotangent[w])
            assert all(np.array_equal(a[w], b) for a, b in zip(grads, own_grads))
            assert np.array_equal(boundary_grad[w], own_boundary)

    def test_string_batched_sweep_mixes_batched_and_shared_maps(self):
        # per-string (S, D_l, 1, D_r) slices next to maps every string shares:
        # an open (D_l, 4, D_r) tensor and a (D_l, D_r) matrix; the default
        # boundary broadcasts against the batch
        rng = np.random.default_rng(62)
        s = 7
        maps = [
            rng.normal(size=(1, 4, 3)),
            rng.normal(size=(s, 3, 1, 2)),
            rng.normal(size=(2, 3)),
            rng.normal(size=(s, 3, 1, 3)),
            rng.normal(size=(3, 4, 1)),
        ]
        lefts = left_environments(maps)
        assert lefts[-1].shape == (s, 16, 1)
        cotangent = rng.normal(size=lefts[-1].shape)
        grads, boundary_grad = left_environments_vjp(maps, lefts, cotangent)
        # a shared map, and the boundary, get one gradient per string
        assert [g.shape for g in grads] == [(s, *m.shape[-3:]) for m in maps[:2]] + [
            (s, 2, 3),
            (s, 3, 1, 3),
            (s, 3, 4, 1),
        ]
        assert boundary_grad.shape == (s, 1, 1)
        for i in range(s):
            own = [m[i] if m.ndim == 4 else m for m in maps]
            own_lefts = left_environments(own)
            assert np.array_equal(lefts[-1][i], own_lefts[-1])
            own_grads, own_boundary = left_environments_vjp(own, own_lefts, cotangent[i])
            assert all(np.array_equal(g[i], own_g) for g, own_g in zip(grads, own_grads))
            assert np.array_equal(boundary_grad[i], own_boundary)


class TestJsonFormat:
    def test_round_trip(self, noisy6, tmp_path):
        path = tmp_path / "mpo.json"
        save_json(noisy6, path)
        loaded = load_json(path)
        assert loaded == noisy6

    def test_field_names(self, cluster5, tmp_path):
        path = tmp_path / "mpo.json"
        save_json(cluster5, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"n_qubits", "bonds", "sites"}
        assert doc["n_qubits"] == 5
        assert doc["bonds"] == [4, 4, 4, 4]
        assert len(doc["sites"]) == 5
        assert all(isinstance(site, list) for site in doc["sites"])
        assert len(doc["sites"][0]) == 1 * 4 * 4
