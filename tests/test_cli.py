"""End-to-end command-line pipeline: file formats, determinism, exit codes."""

import csv
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from mpo_tomo.cli import main

CONFIG = {
    "version": 1,
    "protocol": {"n_qubits": 5, "eps_ad": 0.098, "eps_pd": 0.092},
    "measurement": {"shots": 10**7, "seed": 7},
    "analysis": {"le_pairs": "all"},
}

# a parameter value that stands for a key left out
ABSENT = object()


def write_config(path, cfg=CONFIG):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full simulate/reconstruct/analyze run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "cfg.json")
    out = str(root / "run")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
    assert main(["analyze", "--config", cfg, "--out", out]) == 0
    return cfg, out


def _checksum_tree(path):
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            digest.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _file_list(path):
    return sorted(os.path.relpath(os.path.join(d, f), path) for d, _, fs in os.walk(path) for f in fs)


class TestSimulate:
    def test_setting_files_and_truth(self, pipeline_run):
        _, out = pipeline_run
        files = sorted(os.listdir(os.path.join(out, "dataset")))
        assert len(files) == 32  # 2^5 measurement settings
        assert files[0].startswith("setting_") and files[0].endswith(".csv")
        assert os.path.exists(os.path.join(out, "truth_mpo.json"))
        with open(os.path.join(out, "dataset", files[0])) as fh:
            header = fh.readline().strip()
        assert header == "window_start,basis_word,value,se,shots"

    def test_rows_partition_across_settings(self, pipeline_run):
        _, out = pipeline_run
        total = 0
        for name in os.listdir(os.path.join(out, "dataset")):
            with open(os.path.join(out, "dataset", name)) as fh:
                total += sum(1 for _ in fh) - 1
        assert total == 6**5  # one window at N=5

    def test_files_partition_rows_by_setting(self, pipeline_run):
        # a file's label fixes q (even letter) or p (odd letter) at each qubit
        # position modulo 5, and every (start, word) lies in exactly one file
        from mpo_tomo.measurement import QUAD_LETTERS

        _, out = pipeline_run
        seen = {}
        for name in os.listdir(os.path.join(out, "dataset")):
            label = name[len("setting_") : -len(".csv")]
            with open(os.path.join(out, "dataset", name), newline="") as fh:
                for row in csv.DictReader(fh):
                    start, word = int(row["window_start"]), row["basis_word"]
                    for j in range(5):
                        parity = QUAD_LETTERS.index(word[2 * j : 2 * j + 2]) % 2
                        assert "qp"[parity] == label[(start - 1 + j) % 5]
                    seen[start, word] = seen.get((start, word), 0) + 1
        assert len(seen) == 6**5 and set(seen.values()) == {1}

    def test_deterministic_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        manifests = []
        for out in (out1, out2):
            path = os.path.join(out, "simulate_manifest.json")
            manifests.append(json.load(open(path)))
            os.remove(path)
            # wall times and peak RSS are the manifest's only per-run fields
            del manifests[-1]["timings"], manifests[-1]["peak_rss_mb"]
        assert manifests[0] == manifests[1]
        assert _checksum_tree(out1) == _checksum_tree(out2)

    def test_rotation_offsets_run_the_emission_protocol(self, pipeline_run, tmp_path):
        # zero offsets: the emitted chain is the closed-form noisy cluster
        from mpo_tomo.mpo import load_json

        _, out = pipeline_run
        cfg_doc = json.loads(json.dumps(CONFIG))
        cfg_doc["protocol"]["rotation_offsets"] = [0.0] * 5
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        emitted = load_json(tmp_path / "o" / "truth_mpo.json")
        closed_form = load_json(os.path.join(out, "truth_mpo.json"))
        for word in [(1, 3, 0, 0, 0), (3, 1, 3, 0, 0), (0, 0, 0, 3, 1), (3, 0, 0, 0, 0)]:
            assert emitted.correlation(word) == pytest.approx(closed_form.correlation(word), abs=1e-12)

    def test_zero_shots_rejected(self, tmp_path):
        bad = dict(CONFIG)
        bad["measurement"] = {"shots": 0, "seed": 1}
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("out", ["afile/x", "afile"], ids=["under-a-file", "is-a-file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        # an --out that cannot be created is a validation error, before any write
        (tmp_path / "afile").write_text("kept")
        cfg = write_config(tmp_path / "cfg.json")
        before = _file_list(tmp_path)
        path = str(tmp_path / out)
        assert main(["simulate", "--config", cfg, "--out", path]) == 2
        assert path in capsys.readouterr().err
        assert _file_list(tmp_path) == before
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("command", ["reconstruct", "analyze"])
    def test_out_under_a_file_for_every_command(self, tmp_path, capsys, command):
        # main checks --out before it dispatches, whatever the command
        (tmp_path / "afile").write_text("kept")
        cfg = write_config(tmp_path / "cfg.json")
        path = str(tmp_path / "afile" / "x")
        assert main([command, "--config", cfg, "--out", path]) == 2
        assert path in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "kept"


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(CONFIG)
        bad["extra"] = 1
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_key(self, tmp_path):
        bad = json.loads(json.dumps(CONFIG))
        bad["measurement"]["shotz"] = 5
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    # version is the integer 1: not a bool, a float or a string that equals it
    @pytest.mark.parametrize("version", [ABSENT, True, 1.0, "1", 2], ids=["missing", "true", "1.0", "str", "2"])
    def test_missing_version(self, tmp_path, version):
        bad = {k: v for k, v in CONFIG.items() if k != "version"}
        if version is not ABSENT:
            bad["version"] = version
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {**CONFIG, "protocol": 5},
            {**CONFIG, "fit": [["tol", 1e-10]]},
        ],
    )
    def test_config_and_sections_are_objects(self, tmp_path, doc):
        cfg = write_config(tmp_path / "bad.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_seed_must_be_explicit(self, tmp_path):
        bad = json.loads(json.dumps(CONFIG))
        del bad["measurement"]["seed"]
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_iterations", "10"),
            ("max_iterations", -1),
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("tol", -1.0),
            ("tol", "1e-10"),
            pytest.param("tol", 10**400, id="tol-10^400"),
            # the stop is the Newton decrement: tol, its old default too, is an unknown key
            ("tol", 1e-10),
            ("k_sigma", -1),
            ("k_sigma", 0),
            pytest.param("k_sigma", 10**400, id="k_sigma-10^400"),
            # the SE floor is no setting: any value, its own too, is an unknown key
            ("se_floor", 0.0),
            ("se_floor", None),
            ("se_floor", 1e-9),
        ],
    )
    def test_fit_section_validated(self, tmp_path, key, value):
        bad = json.loads(json.dumps(CONFIG))
        bad["fit"] = {key: value}
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eta", "0.9"),
            ("eta", None),
            ("eta_se", -0.01),
            ("eta_se", float("inf")),
            ("eta_se", float("nan")),
            pytest.param("eta_se", 10**400, id="eta_se-10^400"),
            ("window", 4),
            ("window", 5.0),
            # the dataset's shots column is int64
            pytest.param("shots", 2**63, id="shots-2^63"),
            pytest.param("shots", 2**70, id="shots-2^70"),
            pytest.param("shots", 10**400, id="shots-10^400"),
            ("shots", 99),
        ],
    )
    def test_measurement_section_validated(self, tmp_path, key, value):
        bad = json.loads(json.dumps(CONFIG))
        bad["measurement"][key] = value
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("analysis", "subset_seed", 1.5),
            ("analysis", "subset_seed", -1),
            ("analysis", "subset_seed", 2**63),
            ("analysis", "subset_seed", True),
            ("analysis", "subset_samples", "1024"),
            ("analysis", "subset_samples", 1024.7),
            ("analysis", "subset_samples", True),
            ("analysis", "subset_samples", 0),
            ("analysis", "le_pairs", "some"),
            ("analysis", "le_pairs", []),
            ("analysis", "le_pairs", [[1, 40]]),
            ("analysis", "le_pairs", [[2, 1]]),
            ("analysis", "le_pairs", [[0, 2]]),
            ("analysis", "le_pairs", [[1, 2.0]]),
            ("analysis", "le_pairs", [[1, 2, 3]]),
            ("analysis", "le_measure", "bogus"),
            ("measurement", "seed", 2**64),
            ("measurement", "seed", -1),
            ("measurement", "seed", True),
            ("measurement", "seed", 7.0),
            ("analysis", "le_pairs", [[1, 2], [1, 2]]),
            ("protocol", "eps_ad", "x"),
            ("protocol", "eps_ad", {}),
            ("protocol", "eps_ad", "0.1"),
            ("protocol", "eps_ad", True),
            ("protocol", "eps_ad", -0.1),
            ("protocol", "eps_pd", 1.5),
            ("protocol", "eps_pd", float("nan")),
            pytest.param("protocol", "eps_ad", 10**400, id="protocol-eps_ad-10^400"),
            ("protocol", "eps_pd", [0.1] * 4),
            ("protocol", "eps_pd", [0.1, 0.1, 0.1, 0.1, "0.1"]),
            ("protocol", "rotation_offsets", 5),
            ("protocol", "rotation_offsets", "abc"),
            ("protocol", "rotation_offsets", [0.0] * 4),
            ("protocol", "rotation_offsets", [0.0, 0.0, 0.0, 0.0, True]),
            ("protocol", "rotation_offsets", [0.0, 0.0, 0.0, 0.0, float("inf")]),
            pytest.param(
                "protocol", "rotation_offsets", [0.0] * 4 + [10**400], id="protocol-rotation_offsets-10^400"
            ),
            pytest.param("protocol", "n_qubits", ABSENT, id="protocol-n_qubits-missing"),
            ("protocol", "n_qubits", 4),
            ("protocol", "n_qubits", 5.0),
            ("protocol", "n_qubits", True),
            ("protocol", "n_qubits", "6"),
            # the dataset's window_start column is int64
            pytest.param("protocol", "n_qubits", 2**63, id="protocol-n_qubits-2^63"),
            pytest.param("protocol", "n_qubits", 10**400, id="protocol-n_qubits-10^400"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_malformed_config_writes_nothing(
        self, pipeline_run, tmp_path, section, key, value, command
    ):
        _, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        before = _file_list(run)
        bad = json.loads(json.dumps(CONFIG))
        bad.setdefault(section, {})[key] = value
        if value is ABSENT:
            del bad[section][key]
        cfg = write_config(tmp_path / "bad.json", bad)
        argv = [command, "--config", cfg, "--out", str(run)]
        if key == "n_qubits" and value in (2**63, 10**400):
            # a rule that builds 2^(N-2) runs for minutes and fills memory:
            # a child with a time and address-space limit fails instead
            import subprocess
            import sys

            import mpo_tomo

            code = (
                "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30));"
                " from mpo_tomo.cli import main; sys.exit(main())"
            )
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mpo_tomo.__file__)))
            done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=30)
            assert done.returncode == 2, done.stderr
        else:
            assert main(argv) == 2
        assert _file_list(run) == before

    @pytest.mark.parametrize(
        "analysis",
        [
            {"subset_samples": 1024},  # no subset_seed
            {"subset_seed": 1, "subset_samples": 2**14 + 1},  # more than 2^(N-2)
        ],
    )
    def test_long_chain_subset_settings_checked_first(self, pipeline_run, tmp_path, analysis):
        _, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        before = _file_list(run)
        bad = json.loads(json.dumps(CONFIG))
        bad["protocol"]["n_qubits"] = 16
        bad["analysis"] = {"le_pairs": [[1, 2]], **analysis}
        cfg = write_config(tmp_path / "bad.json", bad)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert _file_list(run) == before

    @pytest.mark.parametrize("n_qubits", [16, 17])
    def test_subset_samples_up_to_the_branch_count(self, tmp_path, n_qubits):
        # 2^(N-2) branches, the largest legal count; one more exits 2 (above)
        from mpo_tomo.cli import load_config

        doc = json.loads(json.dumps(CONFIG))
        doc["protocol"]["n_qubits"] = n_qubits
        doc["analysis"] = {"subset_samples": 2 ** (n_qubits - 2), "subset_seed": 1}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert load_config(cfg)["analysis"]["subset_samples"] == 2 ** (n_qubits - 2)

    def test_the_rule_table_is_the_configs_one_home(self, tmp_path):
        from pathlib import Path

        from mpo_tomo.cli import _CONFIG_RULES, _REQUIRED, load_config
        from mpo_tomo.fitting import FIT_DEFAULTS

        # the fit rows are FIT_DEFAULTS, with its defaults
        assert set(_CONFIG_RULES["fit"]) == set(FIT_DEFAULTS)
        assert {key: row[0] for key, row in _CONFIG_RULES["fit"].items()} == FIT_DEFAULTS
        # every default holds under its own rule
        for section, rules in _CONFIG_RULES.items():
            for key, (default, rule, holds) in rules.items():
                assert default is _REQUIRED or holds(default, 5), f"{section}.{key} = {default!r}, not {rule}"
        # the minimal config loads to the table's defaults, its own values over them
        assert load_config(write_config(tmp_path / "cfg.json")) == {
            "version": 1,
            "protocol": {"n_qubits": 5, "eps_ad": 0.098, "eps_pd": 0.092, "rotation_offsets": None},
            "measurement": {"window": 5, "eta": 1.0, "eta_se": 0.0, "shots": 10**7, "seed": 7},
            "fit": FIT_DEFAULTS,
            "analysis": {"le_pairs": "all", "le_measure": "negativity", "subset_samples": 2**13, "subset_seed": None},
        }
        # the README's config table names every key
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        missing = [f"{s}.{k}" for s, rules in _CONFIG_RULES.items() for k in rules if f"`{s}.{k}`" not in readme]
        assert not missing

    def test_analyze_without_fit(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestReconstruct:
    def test_outputs(self, pipeline_run):
        _, out = pipeline_run
        fit_dir = os.path.join(out, "fit")
        for name in (
            "mpo.json",
            "covariance.bin",
            "covariance_header.json",
            "fit_report.json",
            "stages.json",
            "correlations_pauli.csv",
        ):
            assert os.path.exists(os.path.join(fit_dir, name)), name
        stages = json.load(open(os.path.join(fit_dir, "stages.json")))
        assert stages["bond_dimensions"]["1"]["estimate"] == 4
        assert stages["gauss_newton"]["converged"]
        assert "inversion_residuals" in stages
        header = json.load(open(os.path.join(fit_dir, "covariance_header.json")))
        assert header["order"] == "row-major"
        assert "site-major" in header["parameter_ordering"]
        # the covariance factor L: one row per free parameter, one column per
        # live direction, and no n_par x n_par matrix
        n_par, n_live = header["shape"]
        assert header["form"] == "factor" and 0 < n_live < n_par
        assert os.path.getsize(os.path.join(fit_dir, "covariance.bin")) == 8 * n_par * n_live

    def test_exit_reason_trace_and_timings(self, pipeline_run):
        _, out = pipeline_run
        fit_dir = os.path.join(out, "fit")
        stages = json.load(open(os.path.join(fit_dir, "stages.json")))
        gn = stages["gauss_newton"]
        assert gn["exit_reason"] == "decrement"
        assert len(gn["trace"]) == gn["iterations"]
        assert gn["trace"][-1]["sse"] == gn["sse"]
        assert all(row["assembly_s"] >= 0 and row["eigh_s"] >= 0 for row in gn["trace"])
        assert set(stages["timings"]) == {"load", "moments", "alignment", "fit", "write"}
        assert all(t >= 0 for t in stages["timings"].values())
        report = json.load(open(os.path.join(fit_dir, "fit_report.json")))
        assert report["exit_reason"] == gn["exit_reason"]

    def test_fit_report_has_no_basis(self, pipeline_run):
        # the fit has one data basis, so its report does not record one
        from mpo_tomo.fitting import load_fit_bundle

        _, out = pipeline_run
        fit_dir = os.path.join(out, "fit")
        report = json.load(open(os.path.join(fit_dir, "fit_report.json")))
        assert "basis" not in report
        assert load_fit_bundle(fit_dir).sse == report["sse"]

    def test_null_space_record(self, pipeline_run):
        _, out = pipeline_run
        fit_dir = os.path.join(out, "fit")
        gn = json.load(open(os.path.join(fit_dir, "stages.json")))["gauss_newton"]
        report = json.load(open(os.path.join(fit_dir, "fit_report.json")))
        assert gn["null_directions"] > 0
        assert gn["largest_null_ratio"] <= 1e-12 < gn["smallest_live_ratio"]
        for key in ("null_directions", "largest_null_ratio", "smallest_live_ratio"):
            assert report[key] == gn[key]

    def test_zero_bond_estimate_writes_no_fit(self, pipeline_run, tmp_path, capsys):
        # with k_sigma this large no singular value of B_1 passes the bond
        # test: the bond estimate is 0, and compression rejects it
        _, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "dataset"), run / "dataset")
        cfg = json.loads(json.dumps(CONFIG))
        cfg["fit"] = {"k_sigma": 1e9}
        cfg = write_config(tmp_path / "cfg.json", cfg)
        assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
        assert "passed the bond test at bond 1" in capsys.readouterr().err
        assert not (run / "fit").exists()

    def test_missing_setting_file(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        removed = sorted(os.listdir(broken / "dataset"))[3]
        os.remove(broken / "dataset" / removed)
        code = main(["reconstruct", "--config", cfg, "--out", str(broken)])
        assert code == 3

    def test_unphysical_data_exit_code(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        path = sorted((broken / "dataset").iterdir())[0]
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[1][2] = "50.0"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["reconstruct", "--config", cfg, "--out", str(broken)]) == 5

    @pytest.mark.parametrize(
        "line, cell, text",
        [(0, 1, "word"), (1, 2, "0.5x"), (2, 0, "one"), (3, 4, ""), (4, 1, "Q9")],
    )
    def test_malformed_dataset_file(self, pipeline_run, tmp_path, capsys, line, cell, text):
        # a wrong header, a non-numeric value, start or shots count, a bad word
        cfg, out = pipeline_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        path = sorted((broken / "dataset").iterdir())[0]
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[line][cell] = text
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["reconstruct", "--config", cfg, "--out", str(broken)]) == 2
        assert path.name in capsys.readouterr().err

    def test_end_to_end_exact_recovery(self, tmp_path, monkeypatch):
        # an exact (zero-SE) ideal dataset reconstructs the ideal state
        from _oracles import exact_local_moments
        from mpo_tomo import entanglement
        from mpo_tomo.cluster import ideal_cluster_mpo
        from mpo_tomo.measurement import save_dataset
        from mpo_tomo.mpo import fidelity, load_json

        cfg_doc = {
            "version": 1,
            "protocol": {"n_qubits": 6, "eps_ad": 0.0, "eps_pd": 0.0},
            "measurement": {"shots": 10**9, "seed": 3},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        out = tmp_path / "run"
        table = exact_local_moments(ideal_cluster_mpo(6), 5)
        table.shots = 10**9
        save_dataset(table, out / "dataset")
        dataset_before = _checksum_tree(out / "dataset")
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        mpo = load_json(os.path.join(out, "fit", "mpo.json"))
        assert fidelity(mpo, ideal_cluster_mpo(6)) >= 1 - 1e-9
        # downstream stages never mutate upstream artifacts
        assert _checksum_tree(out / "dataset") == dataset_before
        # ideal truth: analyze reports fidelity 1, bound 1, LE 0.5 everywhere
        reverse_sweeps = []
        real_vjp = entanglement.left_environments_vjp

        def counted_vjp(*args):
            reverse_sweeps.append(1)
            return real_vjp(*args)

        monkeypatch.setattr(entanglement, "left_environments_vjp", counted_vjp)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        # one reverse sweep per pair gives each pair's negativity gradient
        assert len(reverse_sweeps) == 15
        report = json.load(open(out / "report.json"))
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-7)
        assert report["stabilizer_bound"] == pytest.approx(1.0, abs=1e-7)
        with open(out / "le_matrix.csv") as fh:
            for row in csv.DictReader(fh):
                assert float(row["value"]) == pytest.approx(0.5, abs=1e-7)
        # Bell branches: degenerate partial-transpose spectra take the analytic
        # negativity gradient, and Wootters lambdas at zero make every one of
        # the 15 pairs' 16 branches a fallback branch for concurrence
        assert report["le_fallback_branches"] == 0
        for name in ("le_matrix.csv", "le_distance.csv"):
            with open(out / name) as fh:
                for row in csv.DictReader(fh):
                    assert row["fallback_branches"] == "0" and float(row["se_parameter"]) >= 0
        cfg = write_config(
            tmp_path / "cfg_concurrence.json", {**cfg_doc, "analysis": {"le_measure": "concurrence"}}
        )
        reverse_sweeps.clear()
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.load(open(out / "report.json"))
        assert report["le_fallback_branches"] == 15 * 16
        # a fallback branch has no derivative, so no pair runs its reverse
        # sweep: the row has no SE, and says why
        assert reverse_sweeps == []
        for name, n_rows in (("le_matrix.csv", 15), ("le_distance.csv", 5)):
            with open(out / name) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == n_rows
            assert all(r["fallback_branches"] == "16" and r["se_parameter"] == "" for r in rows)

    def test_eta_se_enters_the_ses_at_unit_eta(self, pipeline_run, tmp_path):
        # eta = 1 needs no correction of the values, but its uncertainty
        # still widens every SE
        _, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "dataset"), run / "dataset")
        cfg_doc = json.loads(json.dumps(CONFIG))
        cfg_doc["measurement"].update(eta=1.0, eta_se=0.01)
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 0
        stages = json.load(open(run / "fit" / "stages.json"))
        assert stages["eta_correction"] == {"eta": 1.0, "eta_se": 0.01}
        plain = json.load(open(os.path.join(out, "report.json")))
        widened = json.load(open(run / "report.json"))
        assert widened["fidelity_se"] > 1.5 * plain["fidelity_se"]

    def test_correlations_meta(self, tmp_path):
        # the provenance of the written Pauli table: shots from the dataset,
        # eta and its SE from the correction, the angles from the alignment
        cfg_doc = json.loads(json.dumps(CONFIG))
        cfg_doc["protocol"]["n_qubits"] = 6
        cfg_doc["measurement"].update(seed=1, eta=0.9, eta_se=0.005)
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        stages = json.load(open(os.path.join(out, "fit", "stages.json")))
        meta = json.load(open(os.path.join(out, "fit", "correlations_meta.json")))
        assert meta == {
            "alignment_angles": stages["alignment_angles"],
            "basis": "pauli",
            "n_sites": 6,
            "window": 5,
            "eta": 0.9,
            "eta_se": 0.005,
            "se_independence_assumed": True,
            "shots": cfg_doc["measurement"]["shots"],
        }

    def test_non_convergence_exit_code_with_partial_outputs(self, tmp_path):
        cfg_doc = json.loads(json.dumps(CONFIG))
        cfg_doc["fit"] = {"max_iterations": 1}
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 4
        # partial outputs are still written and flagged as unconverged
        report = json.load(open(os.path.join(out, "fit", "fit_report.json")))
        assert report["converged"] is False
        assert os.path.exists(os.path.join(out, "fit", "mpo.json"))

    def test_no_acceptable_step_exit_code_with_partial_outputs(
        self, pipeline_run, tmp_path, reject_every_gn_trial
    ):
        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "dataset"), run / "dataset")
        assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 4
        report = json.load(open(run / "fit" / "fit_report.json"))
        assert report["converged"] is False
        assert report["exit_reason"] == "no_acceptable_step"
        stages = json.load(open(run / "fit" / "stages.json"))
        assert stages["gauss_newton"]["exit_reason"] == "no_acceptable_step"
        assert os.path.exists(run / "fit" / "mpo.json")


class TestAnalyze:
    @pytest.mark.parametrize(
        "name, damage, code",
        [
            ("covariance.bin", None, 3),
            ("fit_report.json", lambda doc: {k: v for k, v in doc.items() if k != "sse"}, 2),
            ("mpo.json", "not json", 2),
        ],
    )
    def test_damaged_bundle_exit_code(self, pipeline_run, tmp_path, capsys, name, damage, code):
        # a missing file is incomplete data (3), an unreadable one invalid (2)
        cfg, out = pipeline_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        path = broken / "fit" / name
        if damage is None:
            path.unlink()
        elif callable(damage):
            path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        else:
            path.write_text(damage)
        assert main(["analyze", "--config", cfg, "--out", str(broken)]) == code
        assert name in capsys.readouterr().err

    def test_truncated_covariance(self, pipeline_run, tmp_path):
        cfg, out = pipeline_run
        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        path = broken / "fit" / "covariance.bin"
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        assert main(["analyze", "--config", cfg, "--out", str(broken)]) == 2

    def test_covariance_shape_must_match_mpo(self, pipeline_run, tmp_path, capsys):
        cfg, out = pipeline_run
        with open(os.path.join(out, "fit", "covariance_header.json")) as fh:
            n_par, n_live = json.load(fh)["shape"]
        # a dense covariance's shape, the factor's shape as floats, and one
        # bool column (True == 1) beside a factor of one column
        for case, shape in enumerate([[1, n_par**2], [float(n_par), float(n_live)], [n_par, True]]):
            broken = tmp_path / f"broken{case}"
            shutil.copytree(out, broken)
            path = broken / "fit" / "covariance_header.json"
            header = json.loads(path.read_text())
            header["shape"] = shape
            path.write_text(json.dumps(header))
            if shape[1] is True:
                np.ones(n_par).tofile(broken / "fit" / "covariance.bin")
            assert main(["analyze", "--config", cfg, "--out", str(broken)]) == 2, shape
            assert "covariance_header.json: shape" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("form", None),
            ("form", "dense"),
            ("dtype", "float32"),
            ("order", "column-major"),
            ("parameter_ordering", "pauli-major, then site, then row, then column"),
        ],
    )
    def test_covariance_header_must_declare_the_factor(
        self, pipeline_run, tmp_path, capsys, key, value
    ):
        # each header key the loader relies on; None drops the key
        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        path = run / "fit" / "covariance_header.json"
        header = json.loads(path.read_text())
        header[key] = value
        if value is None:
            del header[key]
        path.write_text(json.dumps(header))
        before = _file_list(run)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert f"covariance_header.json: {key} is " in capsys.readouterr().err
        assert _file_list(run) == before

    def test_bundle_of_the_older_standard_form_is_refused_by_its_header(
        self, pipeline_run, tmp_path, capsys
    ):
        # a bundle written while row 0 of the identity slices was free: its
        # factor has 3(N-2) more rows than today's masks give the MPO
        from mpo_tomo.mpo import load_json

        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        path = run / "fit" / "covariance_header.json"
        header = json.loads(path.read_text())
        n_par, n_live = header["shape"]
        n_old = n_par + 3 * (load_json(run / "fit" / "mpo.json").n_qubits - 2)
        np.zeros((n_old, n_live)).tofile(run / "fit" / "covariance.bin")
        old = "site-major, then Pauli index, then row, then column over starred entries"
        path.write_text(json.dumps({**header, "parameter_ordering": old, "shape": [n_old, n_live]}))
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert "covariance_header.json: parameter_ordering is " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sse", "abc"),
            ("sse", -1.0),
            ("sse", float("inf")),
            ("dof", None),
            ("dof", 2.5),
            ("iterations", -3),
            ("iterations", True),
            ("exit_reason", "converged"),
            ("exit_reason", None),
            ("largest_null_ratio", "1e-17"),
            ("smallest_live_ratio", float("nan")),
            # the relative-SSE stop is gone: a bundle written by it no longer loads
            ("exit_reason", "tolerance"),
            # so is the rounding-floor stop, which the decrement covers (δ ≤ SSE)
            ("exit_reason", "rounding_floor"),
            ("shift_bound", -0.1),
            ("shift_bound", float("inf")),
            # every record key is required, the exit reason, ratios and shift bound too
            *[
                pytest.param(key, ABSENT, id=f"{key}-missing")
                for key in ("dof", "iterations", "exit_reason", "largest_null_ratio", "smallest_live_ratio",
                            "shift_bound")
            ],
        ],
    )
    def test_fit_record_values_checked(self, pipeline_run, tmp_path, capsys, key, value):
        # each value of the record the loader reads back
        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        path = run / "fit" / "fit_report.json"
        report = {**json.loads(path.read_text()), key: value}
        if value is ABSENT:
            del report[key]
        path.write_text(json.dumps(report))
        before = _file_list(run)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert f"fit_report.json: {key} is " in capsys.readouterr().err
        assert _file_list(run) == before

    def test_converged_is_read_off_the_exit_reason(self, pipeline_run, tmp_path):
        # a report's own "converged" is not read: it follows from the exit reason
        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        path = run / "fit" / "fit_report.json"
        edited = {**json.loads(path.read_text()), "converged": True, "exit_reason": "max_iter"}
        path.write_text(json.dumps(edited))
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 0
        report = json.load(open(run / "report.json"))
        assert report["fit"]["converged"] is False
        assert report["fit"] == {**edited, "converged": False}

    def test_dense_covariance_bundle_writes_nothing(self, pipeline_run, tmp_path, capsys):
        # a bundle from before the factor form: the square L·Lᵀ under a header
        # that declares no form
        from _oracles import dense_covariance
        from mpo_tomo.fitting import load_fit_bundle

        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        cov = dense_covariance(load_fit_bundle(run / "fit"))
        cov.tofile(run / "fit" / "covariance.bin")
        path = run / "fit" / "covariance_header.json"
        header = json.loads(path.read_text())
        del header["form"]
        path.write_text(json.dumps({**header, "shape": list(cov.shape)}))
        before = _file_list(run)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert "covariance_header.json: form is None, not 'factor'" in capsys.readouterr().err
        assert _file_list(run) == before

    def test_non_finite_covariance_writes_nothing(self, pipeline_run, tmp_path, capsys):
        # a NaN covariance entry would give NaN error bars: the bundle is invalid
        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        path = run / "fit" / "covariance.bin"
        cov = np.fromfile(path)
        cov[1] = np.nan
        cov.tofile(path)
        before = _file_list(run)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert "covariance.bin" in capsys.readouterr().err
        assert _file_list(run) == before

    @pytest.mark.parametrize("n_qubits", [6, 16])
    def test_bundle_qubit_count_must_match_config(self, pipeline_run, tmp_path, capsys, n_qubits):
        _, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        before = _file_list(run)
        other = json.loads(json.dumps(CONFIG))
        other["protocol"]["n_qubits"] = n_qubits
        other["analysis"]["subset_seed"] = 1
        cfg = write_config(tmp_path / "other.json", other)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 2
        assert f"has 5 qubits; protocol.n_qubits is {n_qubits}" in capsys.readouterr().err
        assert _file_list(run) == before

    def test_report_values(self, pipeline_run):
        _, out = pipeline_run
        report = json.load(open(os.path.join(out, "report.json")))
        assert abs(report["fidelity"] - 0.616) < 0.05
        assert abs(report["stabilizer_bound"] - 0.40) < 0.10
        assert 0 < report["fidelity_se"] < 0.01
        assert abs(report["error_model"]["eps_ad"][0] - 0.098) < 0.01
        assert abs(report["error_model"]["eps_pd"][0] - 0.092) < 0.02
        # the fitted chain's branches all take the analytic LE gradient
        assert report["le_fallback_branches"] == 0

    def test_mean_excitation_ses(self, pipeline_run):
        # (1 - <Z_s>) / 2 has half the SE of <Z_s>, propagated from the bundle
        from mpo_tomo.fitting import load_fit_bundle, propagate_joint
        from mpo_tomo.mpo import correlation_gradient

        _, out = pipeline_run
        report = json.load(open(os.path.join(out, "report.json")))
        fit = load_fit_bundle(os.path.join(out, "fit"))
        n = fit.mpo.n_qubits
        words = [tuple(3 if t == s else 0 for t in range(n)) for s in range(n)]
        ses, _ = propagate_joint(fit, [correlation_gradient(fit.mpo, letters) for letters in words])
        assert len(report["mean_excitation_ses"]) == len(report["mean_excitations"]) == n
        assert report["mean_excitation_ses"] == (ses / 2.0).tolist()
        assert all(se > 0 for se in report["mean_excitation_ses"])

    def test_report_fit_section_is_the_fit_record(self, pipeline_run):
        _, out = pipeline_run
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["fit"] == json.load(open(os.path.join(out, "fit", "fit_report.json")))

    def test_report_timings(self, pipeline_run):
        _, out = pipeline_run
        report = json.load(open(os.path.join(out, "report.json")))
        assert set(report["timings"]) == {
            "load",
            "propagation",
            "error_model",
            "le",
            "corner",
        }

    def test_peak_rss_per_stage(self, pipeline_run):
        # one reading per timed stage, taken after it ends: a running maximum
        _, out = pipeline_run
        stages = json.load(open(os.path.join(out, "fit", "stages.json")))
        report = json.load(open(os.path.join(out, "report.json")))
        manifest = json.load(open(os.path.join(out, "simulate_manifest.json")))
        for record, order in (
            (manifest, ["truth", "synthesis", "write"]),
            (stages, ["load", "moments", "alignment", "fit", "write"]),
            (report, ["load", "le", "propagation", "error_model", "corner"]),
        ):
            rss = record["peak_rss_mb"]
            assert set(rss) == set(record["timings"]) == set(order)
            readings = [rss[stage] for stage in order]
            assert readings[0] > 0
            assert readings == sorted(readings)

    def test_every_se_from_one_joint_propagation(self, pipeline_run, tmp_path, monkeypatch):
        # the fidelity, the N stabilizers, the N <Z_s> and the 10 exact-LE
        # pairs of the N=5 chain, all with a gradient
        from mpo_tomo import fitting

        cfg, out = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(os.path.join(out, "fit"), run / "fit")
        real = fitting.propagate_joint
        calls = []

        def counted(fit, gradients):
            calls.append(len(gradients))
            return real(fit, gradients)

        monkeypatch.setattr(fitting, "propagate_joint", counted)
        assert main(["analyze", "--config", cfg, "--out", str(run)]) == 0
        assert calls == [1 + 2 * 5 + 10]

    def test_le_matrix_upper_triangle(self, pipeline_run):
        _, out = pipeline_run
        with open(os.path.join(out, "le_matrix.csv")) as fh:
            rows = list(csv.DictReader(fh))
        n = 5
        pairs = {(int(r["r"]), int(r["r_prime"])) for r in rows}
        assert pairs == {(r, rp) for r in range(1, n) for rp in range(r + 1, n + 1)}
        assert len(rows) == n * (n - 1) // 2
        for row in rows:
            assert 0.0 <= float(row["value"]) <= 0.5 + 1e-9

    def test_stabilizer_csv(self, pipeline_run):
        _, out = pipeline_run
        with open(os.path.join(out, "stabilizers.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row["value"]) - float(row["model_value"])) < 0.05

    def test_density_corner(self, pipeline_run):
        _, out = pipeline_run
        with open(os.path.join(out, "density_corner.csv")) as fh:
            rows = list(csv.DictReader(fh))
        # N=5: first/last 16 basis states cover all 32
        assert len(rows) == 32 * 32
        diag = {r["bra"]: float(r["abs"]) for r in rows if r["bra"] == r["ket"]}
        assert all(abs(v - 2**-5) < 0.02 for v in diag.values())

    def test_le_distance_rows(self, pipeline_run):
        _, out = pipeline_run
        with open(os.path.join(out, "le_distance.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["k"]) for r in rows] == [1, 2, 3, 4]


@pytest.fixture(scope="module")
def fitted_chain6(noisy6):
    """A converged fit of an N=6 noisy-cluster dataset, and the exact
    negativity LE of every pair of its MPO."""
    from mpo_tomo.correlations import moments_to_zshifted
    from mpo_tomo.entanglement import localizable_entanglement
    from mpo_tomo.fitting import fit_chain
    from mpo_tomo.measurement import synthesize_dataset

    _, _, fit = fit_chain(moments_to_zshifted(synthesize_dataset(noisy6, 5, 1.0, 10**7, seed=1)))
    assert fit.converged
    pairs = [(r, rp) for r in range(1, 6) for rp in range(r + 1, 7)]
    return fit, [localizable_entanglement(fit.mpo, p, "negativity") for p in pairs]


def _fallback_pair():
    """An exact-LE result with a fallback branch: the ideal cluster's
    concurrence, whose Wootters lambdas sit at zero."""
    from mpo_tomo.cluster import ideal_cluster_mpo
    from mpo_tomo.entanglement import localizable_entanglement

    res = localizable_entanglement(ideal_cluster_mpo(6), (2, 5), "concurrence")
    assert res.fallback_branches > 0 and res.gradient is None
    return res


class TestJointPropagation:
    """``cli._stabilizer_table``: one joint propagation P·Pᵀ, P = G·L, for every
    SE analyze reports."""

    def test_le_ses_match_their_own_gradients(self, fitted_chain6):
        import numpy as np

        from _oracles import dense_covariance
        from mpo_tomo.cli import _stabilizer_table
        from mpo_tomo.standard_form import free_masks, pack

        fit, rows = fitted_chain6
        assert all(res.gradient is not None for res in rows)
        values, ses, le_ses = _stabilizer_table(fit, 6, rows)
        assert len(le_ses) == len(rows) and len(values) == len(ses) == 1 + 2 * 6
        # the oracle gᵀ(L·Lᵀ)g cancels many digits, so it is formed in long
        # double: in float64 its own rounding reaches 3e-8
        cov = dense_covariance(fit, np.longdouble)
        for res, se in zip(rows, le_ses):
            g = pack(res.gradient, free_masks(fit.mpo)).astype(np.longdouble)
            assert se == pytest.approx(float(np.sqrt(g @ cov @ g)), rel=1e-8, abs=0)
        # the LE rows leave the fidelity, stabilizer and <Z_s> rows as they are
        alone = _stabilizer_table(fit, 6, [])
        assert np.array_equal(alone[0], values) and alone[2] == []
        assert np.allclose(alone[1], ses, rtol=1e-12, atol=0)

    def test_fallback_pair_gets_no_se(self, fitted_chain6):
        from mpo_tomo.cli import _stabilizer_table

        fit, rows = fitted_chain6
        mixed = [rows[0], _fallback_pair(), rows[1]]
        _, _, le_ses = _stabilizer_table(fit, 6, mixed)
        _, _, want = _stabilizer_table(fit, 6, rows[:2])
        assert le_ses[1] is None
        assert [le_ses[0], le_ses[2]] == pytest.approx(want, rel=1e-12)


class TestLogging:
    def test_bad_log_level(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MPO_TOMO_LOG", "chatty")
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2



class TestTooling:
    # bench/tracing.py targets that no CLI run of this chain calls, and why
    NEVER_FIRED = {
        "fitting.propagate_covariance": "analyze propagates through fitting.propagate_joint",
        "mpo.matrix_element": "no src caller",
        "entanglement.le_subset_estimate": "runs only for N > 15",
    }

    def test_traced_pipeline_gives_every_layer_metric(self, tmp_path):
        # bench/run.py --trace 1 runs each command through bench/traced_cli.py;
        # a refactor that breaks a span's info callback fails the command
        import importlib.util
        import math
        import subprocess
        import sys
        import time
        from pathlib import Path

        import mpo_tomo

        bench = Path(__file__).resolve().parent.parent / "bench"
        spec = importlib.util.spec_from_file_location("bench_tracing", bench / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mpo_tomo.__file__)))
        # eta < 1, so the inefficiency correction runs
        cfg_doc = json.loads(json.dumps(CONFIG))
        cfg_doc["measurement"]["eta"] = 0.9
        cfg = write_config(tmp_path / "cfg.json", cfg_doc)
        out = tmp_path / "run"
        commands = []
        for command in ("simulate", "reconstruct", "analyze"):
            trace = tmp_path / f"{command}.trace.json"
            argv = [sys.executable, str(bench / "traced_cli.py"), str(trace), command]
            spawn_t = time.monotonic()
            done = subprocess.run(
                argv + ["--config", cfg, "--out", str(out)], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            doc = json.loads(trace.read_text())
            commands.append({"startup_s": doc["main_t"] - spawn_t, "spans": doc["spans"]})
        dataset_bytes = sum(p.stat().st_size for p in (out / "dataset").iterdir())
        metrics = tracing.chain_metrics(commands, dataset_bytes)
        names = {name for name, _ in tracing.LAYER_METRICS}
        # the overhead compares traced with untraced runs, so run.py adds it
        assert names - set(metrics) == {"trace.overhead_frac"}
        assert all(math.isfinite(metrics[name]) for name in names & set(metrics))
        assert metrics["fitting.gn_iterations"] > 0
        assert metrics["entanglement.branches"] > 0
        # every wrapped binding is the one the pipeline calls through
        fired = {span[0] for command in commands for span in command["spans"]}
        targets = {f"{module}.{attr}" for module, attr, _ in tracing.TARGETS}
        assert targets - fired == set(self.NEVER_FIRED)

    def test_cli_import_loads_no_scipy(self):
        import subprocess
        import sys

        import mpo_tomo

        src = os.path.dirname(os.path.dirname(mpo_tomo.__file__))
        # nor the emission simulator, which only rotation_offsets needs
        code = (
            "import sys, mpo_tomo.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m == 'mpo_tomo.emission'))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_commands(self):
        from mpo_tomo.cli import _COMMANDS

        assert set(_COMMANDS) == {"simulate", "reconstruct", "analyze"}
