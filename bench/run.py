"""Benchmark of the mpo-tomo CLI pipeline, end to end and layer by layer.

    python3 bench/run.py --workload short_chains --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the commands are the checkout's own
``mpo-tomo simulate | reconstruct | analyze`` (``src/`` on ``PYTHONPATH``),
run as child processes one at a time (a closed loop with one client) with the
default BLAS threading.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every chain once untraced and once traced and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  bench/README.md describes workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
STATE = os.path.join(BENCH, ".state")

# a run must end within 180 s: commands still running past this are killed
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3
CLI_MAIN = "import sys; from mpo_tomo.cli import main; sys.exit(main())"

END_TO_END = (
    ("setup_s", "s"),
    ("simulate_s", "s"),
    ("reconstruct_s", "s"),
    ("analyze_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


def summarize(values) -> dict:
    """Median and sample count, plus the highest tail percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 90):
        if len(values) * (100 - q) >= 1000:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def check_repeat(label: str, counts: dict, seen: dict) -> list[str]:
    """Counts that differ from an earlier run of the same chain and code.

    ``seen`` maps chain label -> counts and is updated in place.
    """
    earlier = seen.setdefault(label, {})
    drift = [
        f"non-determinism: {label} {key} was {earlier[key]}, now {value}"
        for key, value in counts.items()
        if key in earlier and earlier[key] != value
    ]
    earlier.update(counts)
    return drift


def _openblas_threads():
    """Threads of the OpenBLAS loaded here; children inherit the environment."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:  # no procfs: not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def source_hash() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mpo_tomo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "git_commit": commit,
        "src_sha256": source_hash(),
    }


class Runner:
    """Runs CLI commands one at a time and keeps the run's tallies."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def _wait(self, proc):
        """Exit status and rusage of ``proc``, killing it at the deadline."""
        killer = threading.Timer(
            max(self.deadline - time.monotonic(), 0.0), os.kill, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            # wait without reaping, so the killer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.perf_counter()
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return end, usage

    def run(self, command: str, config: str, out: str, expect: dict, trace: str | None = None):
        """Run one command; returns ``{"ok", "wall_s"}`` plus the trace if any."""
        import checks

        os.makedirs(out, exist_ok=True)
        args = [command, "--config", config, "--out", out]
        if trace is None:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace, *args]
        self.attempted += 1
        with open(os.path.join(out, f"{command}.log"), "w") as log:
            spawn_t = time.monotonic()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            end, usage = self._wait(proc)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss * 1024 / 1e6)
        problems = checks.check_command(command, proc.returncode, out, expect)
        result = {"ok": not problems, "wall_s": end - start}
        if trace is not None and os.path.exists(trace):
            with open(trace) as fh:
                doc = json.load(fh)
            result["startup_s"] = doc["main_t"] - spawn_t
            result["spans"] = doc["spans"]
        if problems:
            self.failed += 1
            self.problems += [f"{os.path.basename(out)}: {p}" for p in problems]
        return result

    def pipeline(self, commands, config, out, expect, traced=False) -> list:
        """Run ``commands`` in order on one chain, stopping at the first failure.

        Returns ``(command, result)`` pairs.
        """
        results = []
        for command in commands:
            trace = os.path.join(out, f"{command}.trace.json") if traced else None
            results.append((command, self.run(command, config, out, expect, trace)))
            if not results[-1][1]["ok"]:
                break
        return results


def chain_counts(out: str) -> dict:
    """Counts read back from a chain's outputs, for the exact-repeat check."""
    dataset = os.path.join(out, "dataset")
    files = [os.path.join(dataset, f) for f in sorted(os.listdir(dataset))]
    rows = 0
    for path in files:
        with open(path) as fh:
            rows += sum(1 for _ in fh) - 1
    with open(os.path.join(out, "fit", "fit_report.json")) as fh:
        iterations = json.load(fh)["iterations"]
    return {
        "cli.dataset_bytes": sum(os.path.getsize(p) for p in files),
        "measurement.rows": rows,
        "fitting.gn_iterations": iterations,
    }


def prepare(workload, seed: int, run_dir: str) -> list:
    """Configs and output-check references of one run, configs written out."""
    import checks
    import workloads

    plan = []
    for chain in workloads.chains(workload, seed):
        p = chain.config["protocol"]
        expect = {
            "n_qubits": p["n_qubits"],
            "window": chain.config["measurement"]["window"],
            "pairs": chain.pairs,
            "truth_fidelity": checks.truth_fidelity(p["n_qubits"], p["eps_ad"], p["eps_pd"]),
        }
        path = os.path.join(run_dir, f"{chain.label}.json")
        with open(path, "w") as fh:
            json.dump(chain.config, fh)
        plan.append((chain.label, path, expect))
    return plan


def _ok(results) -> bool:
    return all(r["ok"] for _, r in results)


def _complete(results) -> bool:
    return _ok(results) and {c for c, _ in results} == {"simulate", "reconstruct", "analyze"}


def _wall(results) -> float:
    return sum(r["wall_s"] for _, r in results)


def measure(args, workload, run_dir: str, import_s: float) -> dict:
    import tracing
    import workloads

    runner = Runner(time.monotonic() - (time.perf_counter() - _START) + RUN_LIMIT_S)
    setup_reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = prepare(workload, args.seed, run_dir)
        setup_reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_reps)

    state_path = os.path.join(STATE, f"{workload.name}-{source_hash()[:16]}.json")
    seen = {}
    if os.path.exists(state_path):
        with open(state_path) as fh:
            seen = json.load(fh)
    # a traced run times one untraced and one traced round per chain
    repeat = 1 if args.trace else workload.repeat
    samples = {label: {c: [] for c in workloads.COMMANDS} for label, _, _ in plan}
    drift, per_chain = [], []
    untraced_wall = traced_wall = 0.0

    def untraced(names, label, config, expect, out):
        results = runner.pipeline(workloads.commands(names, repeat), config, out, expect)
        for command, res in results:
            if res["ok"]:
                samples[label][command].append(res["wall_s"])
        return results

    # set-up ends with the commands that are not timed (the pre-fit of
    # le_exact); it counts one run of each, the median of its repeats
    untimed = [c for c in workloads.COMMANDS if c not in workload.timed]
    prefit = {}
    for label, config, expect in plan if untimed else ():
        out = os.path.join(run_dir, label)
        if args.trace:
            prefit[label] = runner.pipeline(untimed, config, out, expect, True)
        else:
            prefit[label] = untraced(untimed, label, config, expect, out)
        for command in untimed:
            walls = [r["wall_s"] for c, r in prefit[label] if c == command]
            setup_s += statistics.median(walls) if walls else 0.0

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, (label, config, expect) in enumerate(plan):
            before = prefit.get(label, [])
            if not _ok(before):
                continue
            out = os.path.join(run_dir, label)
            # in a traced run, which of the pair runs first alternates over
            # chains and seeds, so order effects cancel in the overhead
            traced_first = args.trace and (index + args.seed) % 2 == 1
            for step in ("traced", "untraced") if traced_first else ("untraced", "traced"):
                if step == "untraced":
                    if not untimed:
                        shutil.rmtree(out, ignore_errors=True)
                    results = untraced(workload.timed, label, config, expect, out)
                    if _complete(before + results):
                        drift.extend(check_repeat(label, chain_counts(out), seen))
                elif args.trace:
                    traced_out = out if untimed else out + "-traced"
                    traced = runner.pipeline(workload.timed, config, traced_out, expect, True)
            if not args.trace:
                continue
            untraced_wall += _wall(results)
            traced_wall += _wall(traced)
            if _complete(before + traced):
                metrics = tracing.chain_metrics(
                    [r for _, r in before + traced],
                    chain_counts(traced_out)["cli.dataset_bytes"],
                )
                drift.extend(
                    check_repeat(label, {k: metrics[k] for k in tracing.EXACT_COUNTS}, seen)
                )
                per_chain.append(metrics)
        now = time.perf_counter()
        # whole passes only, so every chain weighs the same in the medians
        if args.trace or (now - start) + (now - pass_start) > args.seconds:
            break

    os.makedirs(STATE, exist_ok=True)
    tmp = f"{state_path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(seen, fh, sort_keys=True)
    os.replace(tmp, state_path)

    layers = {}
    if per_chain:
        for name in per_chain[0]:
            layers[name] = statistics.median(m[name] for m in per_chain)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    timings = {}
    for command in workloads.COMMANDS:
        values = [x for chain in samples.values() for x in chain[command]]
        if values:
            timings[command] = summarize(values)
    # per chain: its median simulate + reconstruct + analyze
    pipelines = [
        sum(statistics.median(chain[c]) for c in workloads.COMMANDS)
        for chain in samples.values()
        if all(chain.values())
    ]
    if pipelines:
        timings["pipeline"] = summarize(pipelines)
    return {
        "setup": {"setup_s": setup_s, "import_s": import_s, "prepare_s": setup_reps},
        "samples": samples,
        "timings": timings,
        "peak_rss_mb": runner.peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "drift": drift,
        "layers": layers,
        "layers_per_chain": per_chain,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpo_tomo", "cli.py")):
        print(f"error: no mpo_tomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks  # noqa: F401  (imports numpy, scipy and mpo_tomo)
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        run = measure(args, workload, run_dir, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    timings = run["timings"]
    end_to_end = {
        "setup_s": run["setup"]["setup_s"],
        "simulate_s": timings.get("simulate", {}).get("median"),
        "reconstruct_s": timings.get("reconstruct", {}).get("median"),
        "analyze_s": timings.get("analyze", {}).get("median"),
        "pipeline_s": timings.get("pipeline", {}).get("median"),
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_frac": 1.0 - failed / attempted,
    }
    host = machine()
    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s measured, one command at a time")
    print("# machine " + json.dumps(host, sort_keys=True))
    for problem in run["problems"] + run["drift"]:
        print(f"# FAIL {problem}")
    for name, unit in END_TO_END:
        summary = timings.get(name.removesuffix("_s"), {})
        note = "".join(f"  {k} {v:.4f}" for k, v in summary.items() if k[0] == "p")
        if summary:
            note = f"  median of n={summary['n']}" + note
        print(f"{name:<16} {_fmt(end_to_end[name])} {unit}{note}")
    print(f"{'fail_frac':<16} {_fmt(failed / attempted)} ratio  ({failed} of {attempted} commands)")
    if args.trace:
        for name, unit in tracing.LAYER_METRICS:
            layer = name.split(".")[0]
            print(f"{name:<30} {_fmt(run['layers'].get(name))} {unit:<6} "
                  f"should move {tracing.LAYER_MOVES[layer]}")
        table, values = tracing.LAYER_METRICS, run["layers"]
    else:
        table, values = END_TO_END, end_to_end
    result = {
        "correct": failed == 0 and not run["drift"],
        "attempted": attempted,
        "failed": failed,
        # a metric without samples (its command always failed) reads null
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in table},
    }
    if args.record:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": host,
            **run,
            "result": result,
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def _fmt(value) -> str:
    return f"{'-':>14}" if value is None else f"{value:>14.6g}"


if __name__ == "__main__":
    sys.exit(main())
