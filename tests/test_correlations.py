"""Moment-to-Pauli conversion, inefficiency correction, phase alignment."""

import numpy as np
import pytest

from _oracles import (
    dense_pauli_tensor,
    dense_to_mpo,
    exact_local_moments,
    pauli_to_zshifted,
    placed,
    random_density_matrix,
    window_correlation_set,
)

from mpo_tomo.channels import amplitude_damping, z_rotation
from mpo_tomo.cluster import ideal_cluster_mpo
from mpo_tomo.correlations import (
    F_MATRIX,
    G_MATRIX,
    PAULI_BASIS,
    ZSHIFTED_BASIS,
    align_phases,
    correct_inefficiency,
    inverse_loss_zshifted,
    moments_to_zshifted,
    rotate_sites,
    save_correlation_csv,
    zshifted_to_pauli,
)
from mpo_tomo.errors import CompletenessError, DataError, ValidationError
from mpo_tomo.measurement import MOMENT_BASIS, WindowTable, save_dataset
from mpo_tomo.mpo import apply_local_channels


def single_site_moments(values) -> WindowTable:
    vals = np.asarray(values, dtype=float)
    return WindowTable(1, 1, MOMENT_BASIS, {1: vals}, {1: np.zeros(6)}, shots=0)


class TestZShiftedConversion:
    def test_coherent_x_row(self):
        # <q> = 1/sqrt(2) maps to R1 = <X> = 1
        table = single_site_moments([1, 1, 1 / np.sqrt(2), 0, 0.5, 0.5])
        r = moments_to_zshifted(table)
        assert r.basis == ZSHIFTED_BASIS
        assert r.values[1][(1,)] == pytest.approx(1.0)

    def test_vacuum_z_row(self):
        table = single_site_moments([1, 1, 0, 0, 0.5, 0.5])
        r = moments_to_zshifted(table)
        assert r.values[1][(3,)] == pytest.approx(1.0)  # R3 = 2 - <Z> = 1
        assert r.values[1][(0,)] == pytest.approx(1.0)

    def test_full_pipeline_on_random_state(self, rng):
        # a random 3-mode state confined to the qubit subspace passes through
        # moments -> z-shifted -> pauli to its exact Pauli correlations
        rho = random_density_matrix(8, rng)
        m = dense_to_mpo(rho, max_bond=16)
        table = exact_local_moments(m, 3)
        pauli = zshifted_to_pauli(moments_to_zshifted(table))
        truth = dense_pauli_tensor(rho)
        assert np.max(np.abs(pauli.values[1] - truth)) < 1e-12

    def test_missing_row_fatal(self, noisy5):
        table = exact_local_moments(noisy5, 2)
        table.values[1][(2, 3)] = np.nan
        with pytest.raises(CompletenessError) as err:
            moments_to_zshifted(table)
        assert err.value.missing

    def test_g_matrix_shape_and_rows(self):
        assert G_MATRIX.shape == (4, 6)
        assert np.allclose(G_MATRIX[0], [0.5, 0.5, 0, 0, 0, 0])
        assert np.allclose(G_MATRIX[1], [0, 0, np.sqrt(2), 0, 0, 0])
        assert np.allclose(G_MATRIX[3], [0, 0, 0, 0, 1, 1])


class TestInefficiencyCorrection:
    def test_eta_one_is_identity(self, noisy5):
        r = moments_to_zshifted(exact_local_moments(noisy5, 3))
        out = correct_inefficiency(r, 1.0)
        for s in r.starts:
            assert np.max(np.abs(out.values[s] - r.values[s])) < 1e-14

    def test_single_site_x_scaling(self):
        eta = 0.391
        vals = {1: np.array([1.0, 0.5, 0.0, 1.0])}
        ses = {1: np.zeros(4)}
        corrs = WindowTable(1, 1, ZSHIFTED_BASIS, vals, ses)
        out = correct_inefficiency(corrs, eta)
        assert out.values[1][1] == pytest.approx(0.5 / np.sqrt(eta))

    def test_loss_then_correct_round_trip(self, rng):
        vals = {1: rng.normal(size=(4,) * 4)}
        ses = {1: np.abs(rng.normal(size=(4,) * 4)) * 0.01}
        corrs = WindowTable(4, 4, ZSHIFTED_BASIS, vals, ses)
        eta = 0.55
        fwd = np.linalg.inv(inverse_loss_zshifted(eta))
        lossy_vals = vals[1]
        for _ in range(4):
            lossy_vals = np.tensordot(lossy_vals, fwd, axes=([0], [1]))
        lossy = WindowTable(4, 4, ZSHIFTED_BASIS, {1: lossy_vals}, ses)
        back = correct_inefficiency(lossy, eta)
        assert np.max(np.abs(back.values[1] - vals[1])) < 1e-12

    def test_matches_loss_channel_in_pauli_basis(self, noisy5, rng):
        # the z-shifted inverse equals F E_ad^-1 F
        eta = 0.7
        einv = inverse_loss_zshifted(eta)
        ref = F_MATRIX @ np.linalg.inv(amplitude_damping(1 - eta)) @ F_MATRIX
        assert np.allclose(einv, ref, atol=1e-12)

    def test_se_amplification_pattern(self, noisy5):
        eta = 0.391
        table = exact_local_moments(noisy5, 2, eta=eta)
        r = moments_to_zshifted(table)
        base = {1: np.full((4, 4), 1e-3)}
        r = WindowTable(2, 2, ZSHIFTED_BASIS, {1: r.values[1]}, base)
        out = correct_inefficiency(r, eta)
        # X/Y rows scale as eta^-1/2, the R3 row as eta^-1
        assert out.ses[1][(1, 0)] == pytest.approx(1e-3 / np.sqrt(eta))
        assert out.ses[1][(3, 0)] == pytest.approx(
            1e-3 * np.sqrt((1 - eta) ** 2 + 1) / eta
        )

    def test_eta_se_first_order(self, noisy5):
        table = exact_local_moments(noisy5, 2, eta=0.5)
        r = moments_to_zshifted(table)
        out0 = correct_inefficiency(r, 0.5, eta_se=0.0)
        out1 = correct_inefficiency(r, 0.5, eta_se=0.004)
        # finite-difference sensitivity check on one row
        word = (1, 3)
        vp = correct_inefficiency(r, 0.504).values[1][word]
        vm = correct_inefficiency(r, 0.496).values[1][word]
        expected = np.sqrt(
            out0.ses[1][word] ** 2 + ((vp - vm) / 2.0) ** 2
        )
        assert out1.ses[1][word] == pytest.approx(expected, rel=1e-3)

    def test_invalid_eta(self, noisy5):
        r = moments_to_zshifted(exact_local_moments(noisy5, 2))
        with pytest.raises(ValidationError):
            correct_inefficiency(r, 0.0)

    def test_wrong_basis(self, noisy5):
        p = window_correlation_set(noisy5, 2)
        with pytest.raises(ValidationError):
            correct_inefficiency(p, 0.5)


class TestPauliConversion:
    def test_ground_state_rows(self):
        vals = {1: np.array([1.0, 0, 0, 1.0])}
        corrs = WindowTable(1, 1, ZSHIFTED_BASIS, vals, {1: np.zeros(4)})
        out = zshifted_to_pauli(corrs)
        assert out.basis == PAULI_BASIS
        assert np.allclose(out.values[1], [1.0, 0, 0, 1.0])

    def test_single_photon_row(self):
        # Fock |1>: R3 = 2 - <Z> = 3 maps to <Z> = -1
        vals = {1: np.array([1.0, 0, 0, 3.0])}
        corrs = WindowTable(1, 1, ZSHIFTED_BASIS, vals, {1: np.zeros(4)})
        out = zshifted_to_pauli(corrs)
        assert out.values[1][3] == pytest.approx(-1.0)

    def test_f_involution(self):
        assert np.allclose(F_MATRIX @ F_MATRIX, np.eye(4))

    def test_round_trip(self, noisy6):
        p = window_correlation_set(noisy6, 4)
        back = zshifted_to_pauli(pauli_to_zshifted(p))
        for s in p.starts:
            assert np.max(np.abs(back.values[s] - p.values[s])) < 1e-12

    def test_z_row_variance_combination(self):
        ses = {1: np.array([0.1, 0.0, 0.0, 0.2])}
        corrs = WindowTable(
            1, 1, ZSHIFTED_BASIS, {1: np.zeros(4)}, ses
        )
        out = zshifted_to_pauli(corrs)
        assert out.ses[1][3] == pytest.approx(np.sqrt(4 * 0.1**2 + 0.2**2))

    def test_wrong_tag(self, noisy5):
        p = window_correlation_set(noisy5, 3)
        with pytest.raises(ValidationError):
            zshifted_to_pauli(p)


class TestBasisChecks:
    # one table type holds moments and correlations, so each step checks
    # the basis tag of what it is handed

    def test_unknown_basis_tag(self):
        with pytest.raises(ValidationError, match="unknown basis tag"):
            WindowTable(1, 1, "fock", {1: np.zeros(4)}, {1: np.zeros(4)})

    @pytest.mark.parametrize("basis", [ZSHIFTED_BASIS, PAULI_BASIS])
    def test_moment_steps_refuse_correlations(self, noisy5, tmp_path, basis):
        corrs = window_correlation_set(noisy5, 3)
        if basis == ZSHIFTED_BASIS:
            corrs = pauli_to_zshifted(corrs)
        with pytest.raises(ValidationError):
            moments_to_zshifted(corrs)
        with pytest.raises(ValidationError):
            save_dataset(corrs, tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "step",
        [
            lambda t: correct_inefficiency(t, 0.9),
            zshifted_to_pauli,
            lambda t: rotate_sites(t, np.zeros(t.n_sites)),
        ],
        ids=["correct_inefficiency", "zshifted_to_pauli", "rotate_sites"],
    )
    def test_correlation_steps_refuse_moments(self, noisy5, step):
        with pytest.raises(ValidationError):
            step(exact_local_moments(noisy5, 3))


class TestSyntheticClusterDataset:
    def test_unit_correlations_within_four_se(self):
        """All 43 distinct unit-value correlations of a 10-qubit cluster.

        The ideal chain has 4863 distinct nonzero-support words across the
        six overlapping five-qubit windows; exactly 43 of them (the
        stabilizer-group elements that fit a window) equal one.  The measured
        pipeline values must sit within 4 standard errors of 1.
        """
        from mpo_tomo.cluster import ideal_cluster_mpo
        from mpo_tomo.measurement import synthesize_dataset

        n = 10
        ideal = ideal_cluster_mpo(n)
        table = synthesize_dataset(ideal, 5, 1.0, 10**7, seed=6)
        pauli = zshifted_to_pauli(moments_to_zshifted(table))
        truth = window_correlation_set(ideal, 5)
        seen = set()
        unit_words = []
        for start in truth.starts:
            for word in np.ndindex(*(4,) * 5):
                full = [0] * n
                full[start - 1 : start + 4] = word
                key = tuple(full)
                if key in seen or not any(word):
                    continue
                seen.add(key)
                ideal_value = truth.values[start][word]
                if abs(abs(ideal_value) - 1.0) < 1e-12:
                    unit_words.append((start, word, ideal_value))
        assert len(seen) == 4863
        assert len(unit_words) == 43
        for start, word, ideal_value in unit_words:
            value = pauli.values[start][word]
            se = pauli.ses[start][word]
            assert abs(value - ideal_value) <= 4.0 * se

    def test_iz_zero_correlation_count(self):
        # the companion partition: 111 distinct I/Z-only words, all zero
        from mpo_tomo.cluster import ideal_cluster_mpo

        n = 10
        truth = window_correlation_set(ideal_cluster_mpo(n), 5)
        seen = {}
        for start in truth.starts:
            for word in np.ndindex(*(4,) * 5):
                full = [0] * n
                full[start - 1 : start + 4] = word
                key = tuple(full)
                if key not in seen and any(word):
                    seen[key] = truth.values[start][word]
        iz_zero = [
            k
            for k, v in seen.items()
            if all(a in (0, 3) for a in k) and abs(v) < 1e-12
        ]
        assert len(iz_zero) == 111


class TestPhaseAlignment:
    def _with_ses(self, corrs, se=1e-6):
        return WindowTable(
            corrs.n_sites,
            corrs.window,
            corrs.basis,
            corrs.values,
            {s: np.full(corrs.values[s].shape, se) for s in corrs.starts},
        )

    def test_aligned_data_angles_zero(self, cluster6):
        corrs = self._with_ses(window_correlation_set(cluster6, 5))
        _, angles = align_phases(corrs)
        assert np.max(np.abs(angles)) < 1e-10

    def test_injected_rotation_recovered(self, cluster6):
        rotated = apply_local_channels(
            cluster6,
            [z_rotation(0.3 if s == 3 else 0.0) for s in range(1, 7)],
        )
        corrs = self._with_ses(window_correlation_set(rotated, 5))
        aligned, angles = align_phases(corrs)
        assert angles[2] == pytest.approx(-0.3, abs=1e-10)
        truth = window_correlation_set(cluster6, 5)
        for s in truth.starts:
            assert np.max(np.abs(aligned.values[s] - truth.values[s])) < 1e-10

    def test_post_alignment_zyz_vanishes(self, cluster6, rng):
        angles_in = rng.uniform(-0.5, 0.5, 6)
        rotated = apply_local_channels(
            cluster6, [z_rotation(a) for a in angles_in]
        )
        corrs = self._with_ses(window_correlation_set(rotated, 5))
        aligned, _ = align_phases(corrs)
        for s in range(2, 6):
            zyz, _ = aligned.word_value((3, 2, 3), s - 1)
            assert abs(zyz) < 1e-10

    def test_alignment_increases_zxz(self, cluster6, rng):
        angles_in = rng.uniform(-0.8, 0.8, 6)
        rotated = apply_local_channels(cluster6, [z_rotation(a) for a in angles_in])
        corrs = self._with_ses(window_correlation_set(rotated, 5))
        aligned, _ = align_phases(corrs)
        for s in range(2, 6):
            before, _ = corrs.word_value((3, 1, 3), s - 1)
            after, _ = aligned.word_value((3, 1, 3), s - 1)
            assert after >= before - 1e-12

    def test_undefined_phase_error(self):
        # fully dephased middle qubit: both stabilizer components vanish
        vals = {1: np.zeros((4,) * 5)}
        vals[1][(0,) * 5] = 1.0
        corrs = WindowTable(
            5, 5, PAULI_BASIS, vals, {1: np.full((4,) * 5, 1e-4)}
        )
        with pytest.raises(DataError):
            align_phases(corrs)

    def test_alignment_in_zshifted_basis(self, cluster6):
        rotated = apply_local_channels(
            cluster6, [z_rotation(0.2)] + [z_rotation(0.0)] * 5
        )
        corrs = self._with_ses(
            pauli_to_zshifted(window_correlation_set(rotated, 5))
        )
        aligned, angles = align_phases(corrs)
        assert angles[0] == pytest.approx(-0.2, abs=1e-10)
        truth = pauli_to_zshifted(window_correlation_set(cluster6, 5))
        for s in truth.starts:
            assert np.max(np.abs(aligned.values[s] - truth.values[s])) < 1e-10


class TestCorrelationCsv:
    def test_round_trip_with_metadata(self, noisy5, tmp_path):
        corrs = window_correlation_set(noisy5, 3)
        corrs.meta["eta"] = 0.391
        path = tmp_path / "corrs.csv"
        meta = tmp_path / "corrs.json"
        save_correlation_csv(corrs, path, meta)
        import csv
        import json

        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = corrs.word_names()
        expected = [
            (s, "".join(names[a] for a in word), corrs.values[s][word], corrs.ses[s][word])
            for s in corrs.starts
            for word in np.ndindex(*corrs.values[s].shape)
        ]
        assert len(rows) == len(expected)
        for row, (start, word, value, se) in zip(rows, expected):
            assert int(row["window_start"]) == start
            assert row["word"] == word
            assert float(row["value"]) == value
            assert float(row["se"]) == se

        doc = json.loads(meta.read_text())
        assert doc["basis"] == PAULI_BASIS
        assert doc["eta"] == 0.391

    def test_word_value_identity_padding(self, noisy6):
        corrs = window_correlation_set(noisy6, 5)
        for letters, start in [((3,), 6), ((1, 3), 1), ((3, 1, 3), 4)]:
            value, _ = corrs.word_value(letters, start)
            assert value == pytest.approx(
                noisy6.correlation(placed(letters, start, 6)), abs=1e-12
            )
