"""Quadrature moments: exact evaluation, shot-noise synthesis, sampling."""

import csv
import itertools
import warnings

import numpy as np
import pytest

from _oracles import (
    dense_moment,
    dense_to_mpo,
    exact_local_moments,
    ideal_cluster_mps,
    moment_word_string,
    mpo_to_dense,
    mps_to_dense,
    sample_quadratures,
)

from mpo_tomo._csvio import write_csv
from mpo_tomo.cluster import ErrorModel, noisy_cluster_model
from mpo_tomo.errors import CompletenessError, ValidationError
from mpo_tomo.measurement import (
    load_dataset,
    load_moment_csv,
    save_dataset,
    synthesize_dataset,
)
from mpo_tomo.mpo import Mpo


def single_site_mpo(coeffs) -> Mpo:
    return Mpo([np.asarray(coeffs, dtype=float).reshape(1, 4, 1)])


class TestExactMoments:
    def test_vacuum_variance(self):
        table = exact_local_moments(single_site_mpo([1, 0, 0, 1]), 1)
        assert table.values[1][(4,)] == pytest.approx(0.5)  # <q^2>
        assert table.values[1][(5,)] == pytest.approx(0.5)
        assert table.values[1][(2,)] == pytest.approx(0.0)

    def test_single_photon_energy(self):
        table = exact_local_moments(single_site_mpo([1, 0, 0, -1]), 1)
        total = table.values[1][(4,)] + table.values[1][(5,)]
        assert total == pytest.approx(3.0)  # 2 - <Z> with <Z> = -1

    def test_efficiency_scaling_on_plus_state(self):
        eta = 0.391
        table = exact_local_moments(single_site_mpo([1, 1, 0, 0]), 1, eta=eta)
        assert table.values[1][(2,)] == pytest.approx(np.sqrt(eta) / np.sqrt(2.0))

    def test_eta_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_local_moments(single_site_mpo([1, 0, 0, 1]), 1, eta=0.0)
        with pytest.raises(ValidationError):
            exact_local_moments(single_site_mpo([1, 0, 0, 1]), 1, eta=1.2)

    def test_against_dense_fock_oracle(self, noisy6, rng):
        table = exact_local_moments(noisy6, 3)
        rho = mpo_to_dense(noisy6)
        # reduce to the window's three sites by partial trace
        for start in (1, 3, 4):
            t = rho.reshape((2,) * 12)
            for s in reversed(range(6)):
                if start - 1 <= s <= start + 1:
                    continue
                half = t.ndim // 2
                t = np.trace(t, axis1=s, axis2=s + half)
            red = t.reshape(8, 8)
            for _ in range(25):
                word = tuple(rng.integers(0, 6, size=3))
                assert table.values[start][word] == pytest.approx(
                    dense_moment(red, 3, word), abs=1e-10
                )

    def test_moment_consistency_with_pipeline(self, noisy6):
        # exact moments at eta=1 through the conversion chain reproduce the
        # MPO's Pauli correlations exactly
        from _oracles import window_correlation_set
        from mpo_tomo.correlations import (
            moments_to_zshifted,
            zshifted_to_pauli,
        )

        table = exact_local_moments(noisy6, 5, eta=1.0)
        pauli = zshifted_to_pauli(moments_to_zshifted(table))
        truth = window_correlation_set(noisy6, 5)
        for s in truth.starts:
            assert np.max(np.abs(pauli.values[s] - truth.values[s])) < 1e-12


class TestSynthesizedDataset:
    def test_large_shot_limit(self, noisy5):
        table = synthesize_dataset(noisy5, 2, 1.0, 10**12, seed=1)
        exact = exact_local_moments(noisy5, 2)
        for s in exact.starts:
            assert np.max(np.abs(table.values[s] - exact.values[s])) < 1e-5

    def test_deterministic_under_seed(self, noisy5):
        a = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=42)
        b = synthesize_dataset(noisy5, 5, 1.0, 10**7, seed=42)
        for s in a.starts:
            assert np.array_equal(a.values[s], b.values[s])
            assert np.array_equal(a.ses[s], b.ses[s])

    def test_se_matches_empirical_scatter(self, noisy5):
        word = (2, 4)
        vals = [
            synthesize_dataset(noisy5, 2, 1.0, 10**5, seed=s).values[1][word]
            for s in range(200)
        ]
        se = synthesize_dataset(noisy5, 2, 1.0, 10**5, seed=0).ses[1][word]
        assert abs(np.std(vals) - se) / se < 0.15

    def test_identity_rows_are_exact(self, noisy5):
        table = synthesize_dataset(noisy5, 2, 1.0, 10**5, seed=3)
        assert table.values[1][(0, 0)] == pytest.approx(1.0, abs=1e-14)
        assert table.values[1][(1, 1)] == pytest.approx(1.0, abs=1e-14)
        assert table.ses[1][(0, 1)] == 0.0

    def test_rows_draw_from_fresh_keyed_generators(self, noisy6):
        # row i (windows in order, words in C order) adds the first normal of
        # a fresh Philox(key=[seed, i]) times its SE
        seed = 5
        table = synthesize_dataset(noisy6, 5, 0.9, 10**6, seed)
        exact = exact_local_moments(noisy6, 5, 0.9)
        for start, word in [
            (1, (2, 3, 4, 5, 2)),
            (1, (5, 5, 5, 5, 5)),
            (2, (2, 2, 2, 2, 2)),
            (2, (4, 0, 3, 1, 2)),
            (2, (5, 4, 5, 4, 5)),
        ]:
            row = (start - 1) * 6**5 + np.ravel_multi_index(word, (6,) * 5)
            z = np.random.Generator(np.random.Philox(key=[seed, row])).standard_normal()
            se = table.ses[start][word]
            assert se > 0.0
            assert table.values[start][word] == exact.values[start][word] + z * se

    def test_shot_floor(self, noisy5):
        with pytest.raises(ValidationError):
            synthesize_dataset(noisy5, 2, 1.0, 99, seed=0)


class TestMomentCsv:
    def test_round_trip(self, noisy5, tmp_path):
        table = synthesize_dataset(noisy5, 5, 1.0, 10**6, seed=9)
        save_dataset(table, tmp_path)
        back = load_dataset(tmp_path, 5, 5)
        for s in table.starts:
            assert np.allclose(back.values[s], table.values[s])
            assert np.allclose(back.ses[s], table.ses[s])
        assert back.shots == table.shots

    def test_round_trip_across_window_offsets(self, tmp_path):
        # N=7 has windows starting at 1, 2, 3: each reads the settings at a
        # different offset modulo 5
        m = noisy_cluster_model(7, ErrorModel.uniform(7, 0.09, 0.06))
        table = synthesize_dataset(m, 5, 0.9, 10**6, seed=4)
        save_dataset(table, tmp_path)
        assert len(list(tmp_path.glob("setting_*.csv"))) == 32
        back = load_dataset(tmp_path, 7, 5)
        assert back.starts == [1, 2, 3]
        for s in table.starts:
            assert np.array_equal(back.values[s], table.values[s])
            assert np.array_equal(back.ses[s], table.ses[s])
        assert back.shots == table.shots

    def test_setting_file_is_a_tensor_slice(self, noisy6, tmp_path):
        # in window 2 the label's first character sets the last position
        table = exact_local_moments(noisy6, 5)
        table.shots = 1000
        save_dataset(table, tmp_path)
        with open(tmp_path / "setting_pqqqq.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["window_start"] == "2"]
        letters = [(0, 2, 4), (0, 2, 4), (0, 2, 4), (0, 2, 4), (1, 3, 5)]
        expected = table.values[2][np.ix_(*letters)].ravel()
        assert [r["basis_word"] for r in rows] == [
            moment_word_string(w) for w in itertools.product(*letters)
        ]
        assert [float(r["value"]) for r in rows] == expected.tolist()

    def test_missing_setting_file(self, noisy5, tmp_path):
        table = synthesize_dataset(noisy5, 5, 1.0, 10**6, seed=9)
        save_dataset(table, tmp_path)
        (tmp_path / "setting_qpqpq.csv").unlink()
        with pytest.raises(CompletenessError) as err:
            load_dataset(tmp_path, 5, 5)
        assert len(err.value.missing) == 3**5
        with pytest.raises(CompletenessError):
            load_dataset(tmp_path / "empty", 5, 5)

    def test_rows_shuffled_across_files(self, tmp_path):
        # the reader accepts any row in any file: deal every row of the
        # dataset at random into 32 files and read the same table back
        m = noisy_cluster_model(7, ErrorModel.uniform(7, 0.09, 0.06))
        table = synthesize_dataset(m, 5, 0.9, 10**6, seed=4)
        save_dataset(table, tmp_path / "sorted")
        lines = []
        for path in sorted((tmp_path / "sorted").iterdir()):
            header, *rows = path.read_text().splitlines()
            lines += rows
        np.random.default_rng(0).shuffle(lines)
        (tmp_path / "shuffled").mkdir()
        for k, part in enumerate(np.array_split(np.array(lines), 32)):
            text = "\r\n".join([header, *part]) + "\r\n"
            (tmp_path / "shuffled" / f"setting_{k:02d}.csv").write_text(text)
        back = load_dataset(tmp_path / "shuffled", 7, 5)
        for s in table.starts:
            assert np.array_equal(back.values[s], table.values[s])
            assert np.array_equal(back.ses[s], table.ses[s])
        assert back.shots == table.shots

    @pytest.mark.parametrize("same_file", [False, True], ids=["second-file", "same-file"])
    def test_repeated_row_rejected(self, noisy6, tmp_path, same_file):
        # a row that repeats the window start and word of an earlier row, in
        # another setting file or in its own, is named together with it
        table = synthesize_dataset(noisy6, 5, 1.0, 10**6, seed=4)
        save_dataset(table, tmp_path)
        first, second = sorted(tmp_path.iterdir())[:2]
        assert first.name == "setting_ppppp.csv"  # holds window 1's P0P0P0P0P0
        repeat = first if same_file else second
        with open(repeat, "a", newline="") as fh:
            fh.write("1,P0P0P0P0P0,0.5,0.0,10000000\r\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(tmp_path, 6, 5)
        message = str(err.value)
        assert message.startswith(f"{repeat}, line {3**5 * 2 + 2}: row '1,P0P0P0P0P0")
        assert f"of {first}, line 2" in message

    @staticmethod
    def _edit_third_line(path, edit):
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\r\n".join(lines) + "\r\n")

    @pytest.mark.parametrize(
        "edit",
        [
            # a valid word with letters after it must not be truncated back into it
            lambda cells: [cells[0], cells[1] + "P1", *cells[2:]],
            lambda cells: [*cells, "7"],
            lambda cells: [cells[0], '"Q0Q0Q0Q0Q9"', *cells[2:]],
            # a row fits only with a finite value and a finite SE >= 0
            lambda cells: [*cells[:2], "nan", *cells[3:]],
            lambda cells: [*cells[:2], "inf", *cells[3:]],
            lambda cells: [*cells[:3], "nan", cells[4]],
            lambda cells: [*cells[:3], "inf", cells[4]],
            lambda cells: [*cells[:3], "-0.01", cells[4]],
        ],
        ids=[
            "overlong_word", "extra_field", "quoted_wrong_word",
            "nan_value", "inf_value", "nan_se", "inf_se", "negative_se",
        ],
    )
    def test_bad_row_names_file_and_line(self, noisy5, tmp_path, edit):
        table = exact_local_moments(noisy5, 5)
        table.shots = 1000
        save_dataset(table, tmp_path)
        path = tmp_path / "setting_qqqqq.csv"
        self._edit_third_line(path, edit)
        with pytest.raises(ValidationError, match=f"{path.name}, line 3"):
            load_dataset(tmp_path, 5, 5)

    def test_quoted_word_reads_as_csv(self, noisy5, tmp_path):
        table = exact_local_moments(noisy5, 5)
        table.shots = 1000
        save_dataset(table, tmp_path)
        self._edit_third_line(
            tmp_path / "setting_qqqqq.csv", lambda c: [c[0], f'"{c[1]}"', *c[2:]]
        )
        back = load_dataset(tmp_path, 5, 5)
        assert np.array_equal(back.values[1], table.values[1])

    def test_header_only_file(self, noisy5, tmp_path):
        table = synthesize_dataset(noisy5, 5, 1.0, 10**6, seed=9)
        save_dataset(table, tmp_path)
        extra = tmp_path / "setting_extra.csv"
        extra.write_text("window_start,basis_word,value,se,shots\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_dataset(tmp_path, 5, 5)
            empty = load_moment_csv([extra], 5, 5)
        assert np.array_equal(back.values[1], table.values[1])
        assert np.isnan(empty.values[1]).all() and empty.shots == 0

    def test_word_strings(self):
        assert moment_word_string((0, 3, 4)) == "Q0P1Q2"

    def test_missing_rows_reported(self, noisy5):
        table = synthesize_dataset(noisy5, 2, 1.0, 10**5, seed=0)
        table.values[1][(2, 3)] = np.nan
        with pytest.raises(CompletenessError) as err:
            table.require_complete()
        assert (1, "Q1P1") in err.value.missing


class TestWriteCsv:
    def test_matches_csv_writer(self, tmp_path):
        # csv.writer with repr cells is the oracle for every cell kind written
        floats = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1])
        ints = np.arange(floats.size) - 3
        words = ["", "Q0P1", "", "X", "R0R3", "", "I", "0101", ""]
        write_csv(tmp_path / "new.csv", ["i", "x", "word"], [ints, floats, words])
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "x", "word"])
            for i, x, word in zip(ints.tolist(), floats.tolist(), words):
                writer.writerow([i, repr(x), word])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["a", "b"], [[], np.array([])])
        assert (tmp_path / "a.csv").read_bytes() == b"a,b\r\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "a.csv", ["a", "b"], [[1, 2], [1]])


class TestSampling:
    def test_vacuum_variance(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        x = sample_quadratures(rho, ["q"], shots=10**6, seed=1)
        assert x.shape == (10**6, 1)
        assert abs(np.var(x) - 0.5) < 0.002
        assert abs(np.mean(x)) < 0.003

    def test_single_photon_q2(self):
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        x = sample_quadratures(rho, ["q"], shots=10**6, seed=2)
        assert abs(np.mean(x**2) - 1.5) < 0.005

    def test_p_basis_coherence(self):
        # |+i> = (|0> + i|1>)/sqrt(2) has <p> = 1/sqrt(2)
        v = np.array([1.0, 1j]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        x = sample_quadratures(rho, ["p"], shots=10**6, seed=3)
        assert abs(np.mean(x) - 1 / np.sqrt(2)) < 0.003

    def test_two_mode_cluster_vs_exact_moments(self):
        psi = mps_to_dense(ideal_cluster_mps(2))
        rho = np.outer(psi, psi.conj())
        shots = 10**5
        samples = sample_quadratures(rho, ["q", "q"], shots=shots, seed=4)
        exact = exact_local_moments(dense_to_mpo(rho, 4), 2)
        # <q1 q2^2> is the cluster's X1 Z2 signature in quadrature form
        for word, stat in [
            ((2, 4), samples[:, 0] * samples[:, 1] ** 2),
            ((4, 4), samples[:, 0] ** 2 * samples[:, 1] ** 2),
            ((2, 2), samples[:, 0] * samples[:, 1]),
        ]:
            mean = np.mean(stat)
            se = np.std(stat) / np.sqrt(shots)
            assert abs(mean - exact.values[1][word]) < 4 * se

    def test_sampling_error_scales_with_shots(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        devs = []
        for shots in (10**3, 10**4, 10**5):
            reps = [
                abs(np.mean(sample_quadratures(rho, ["q"], shots, seed=s)) - 1 / np.sqrt(2))
                for s in range(5, 10)
            ]
            devs.append(np.mean(reps))
        # deviation shrinks roughly as 1/sqrt(shots): x10 shots ~ /3.16
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[2] > 4.0

    def test_mode_limit(self):
        with pytest.raises(ValidationError):
            sample_quadratures(np.eye(2**9) / 2**9, ["q"] * 9, 100, seed=0)

    def test_deterministic(self):
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        a = sample_quadratures(rho, ["q"], 1000, seed=7)
        b = sample_quadratures(rho, ["q"], 1000, seed=7)
        assert np.array_equal(a, b)

    def test_mixed_state_sampling(self):
        # equal mixture of |0> and |1>: <q^2> = (0.5 + 1.5)/2 = 1
        rho = np.diag([0.5, 0.5]).astype(complex)
        x = sample_quadratures(rho, ["q"], 10**5, seed=8)
        assert abs(np.mean(x**2) - 1.0) < 0.01
