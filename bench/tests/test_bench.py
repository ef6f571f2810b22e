"""Tests of the benchmark's own code (not of mpo_tomo)."""

import json
import math
import os
import re
import time

import pytest

import checks
import run
import tracing
import workloads

ROOT = os.path.dirname(run.BENCH)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- spans ---------------------------------------------------------------------


def test_self_times_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 7]; b holds c [2, 3]
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 7.0, 0, None],
        ["e", 11.0, 12.0, -1, None],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_tracer_records_parents_and_info():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, info=lambda args, result: {"got": result})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert tracer.spans[1][4] == {"got": 4}
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_closes_span_when_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[1][3] == -1
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_chain_metrics_cover_every_layer_metric():
    spans = [
        ["cli.cmd_analyze", 0.0, 10.0, -1, None],
        ["entanglement.localizable_entanglement", 1.0, 5.0, 0, {"branches": 64}],
        ["entanglement.localizable_entanglement", 5.0, 9.0, 0, {"branches": 64}],
    ]
    metrics = tracing.chain_metrics([{"startup_s": 0.5, "spans": spans}], 123)
    names = [n for n, _ in tracing.LAYER_METRICS if n != "trace.overhead_frac"]
    assert sorted(metrics) == sorted(names)
    assert metrics["cli.write_report_s"] == 2.0
    assert metrics["entanglement.pairs"] == 2
    assert metrics["entanglement.branches"] == 128
    assert metrics["entanglement.us_per_branch"] == pytest.approx(1e6 * 8.0 / 128)
    assert metrics["cli.dataset_bytes"] == 123


# --- names and units -------------------------------------------------------------


def test_metric_names_and_units_are_valid():
    bench = _benchmark_json()
    entries = bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in entries:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


@pytest.mark.parametrize("bad", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_invalid_names_are_rejected(bad):
    assert not NAME.match(bad)


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [(e["name"], e["unit"]) for e in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"]) for e in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(e for e in bench["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in bench["end_to_end"])
    for name, _ in tracing.LAYER_METRICS:
        assert name.split(".")[0] in tracing.LAYER_MOVES


# --- output check ----------------------------------------------------------------

PAIRS = [[1, 2], [1, 3], [2, 3]]


def _analyze_outputs(tmp_path, fidelity=0.8):
    report = {
        "n_qubits": 5,
        "fidelity": fidelity,
        "fidelity_se": 0.01,
        "stabilizers": [0.9, 0.9],
        "fit": {"sse": 1.0, "dof": 3, "converged": True},
    }
    (tmp_path / "report.json").write_text(json.dumps(report))
    rows = "\n".join(f"{r},{rp},0.5,0.01,0.0" for r, rp in PAIRS)
    (tmp_path / "le_matrix.csv").write_text("r,r_prime,value,se_parameter,se_sampling\n" + rows)
    (tmp_path / "le_distance.csv").write_text(
        "k,value,se_parameter,se_sampling\n1,0.5,0.01,0.0\n2,0.4,0.01,0.0\n"
    )
    return {"n_qubits": 5, "window": 5, "pairs": PAIRS, "truth_fidelity": 0.805}


def test_output_check_passes_good_report(tmp_path):
    expect = _analyze_outputs(tmp_path)
    assert checks.check_command("analyze", 0, str(tmp_path), expect) == []


def test_output_check_fails_nan_fidelity(tmp_path):
    expect = _analyze_outputs(tmp_path, fidelity=math.nan)
    problems = checks.check_command("analyze", 0, str(tmp_path), expect)
    assert any("non-finite" in p for p in problems)


def test_output_check_fails_fidelity_far_from_truth(tmp_path):
    expect = _analyze_outputs(tmp_path, fidelity=0.7)
    assert checks.check_command("analyze", 0, str(tmp_path), expect)


def test_output_check_fails_missing_le_row(tmp_path):
    expect = _analyze_outputs(tmp_path)
    expect["pairs"] = PAIRS + [[2, 4]]
    assert checks.check_command("analyze", 0, str(tmp_path), expect)


@pytest.mark.parametrize("code", [2, 3, 4, -9])
def test_output_check_fails_nonzero_exit(tmp_path, code):
    expect = _analyze_outputs(tmp_path)
    assert checks.check_command("analyze", code, str(tmp_path), expect)


def test_runner_counts_nonzero_exit_as_failure(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(workloads.chains(workloads.WORKLOADS["short_chains"], 1)[0].config))
    runner = run.Runner(deadline=time.monotonic() + 60.0)
    # analyze before reconstruct: the CLI exits 2 (no fit bundle)
    result = runner.run("analyze", str(config), str(tmp_path / "out"), {})
    assert not result["ok"]
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exited with code 2" in runner.problems[0]


# --- summaries, repeats and workloads ----------------------------------------------


@pytest.mark.parametrize("n, tail", [(1, None), (99, None), (100, "p90"), (1000, "p99")])
def test_tail_percentile_needs_ten_samples_beyond(n, tail):
    out = run.summarize([float(i) for i in range(n)])
    assert out["n"] == n
    assert [k for k in out if k.startswith("p")] == ([tail] if tail else [])


def test_check_repeat_flags_drift():
    seen = {}
    assert run.check_repeat("c", {"fitting.gn_iterations": 12}, seen) == []
    assert run.check_repeat("c", {"fitting.gn_iterations": 12, "measurement.rows": 5}, seen) == []
    drift = run.check_repeat("c", {"fitting.gn_iterations": 13}, seen)
    assert len(drift) == 1 and "non-determinism" in drift[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_configs(name):
    workload = workloads.WORKLOADS[name]
    a = workloads.chains(workload, 5)
    assert [c.config for c in a] == [c.config for c in workloads.chains(workload, 5)]
    # the seed moves only the order of chains and pairs; the chains stay pinned
    b = workloads.chains(workload, 6)
    assert sorted(c.label for c in a) == sorted(c.label for c in b)
    for chain in a:
        assert sorted(chain.config["analysis"]["le_pairs"]) == sorted(chain.pairs)


def test_commands_repeat_simulate_and_analyze_after_a_full_round():
    full = ("simulate", "reconstruct", "analyze")
    assert workloads.commands(full, 1) == list(full)
    assert workloads.commands(full, 2) == [*full, "simulate", "analyze"]
    assert workloads.commands(("analyze",), 3) == ["analyze"] * 3
