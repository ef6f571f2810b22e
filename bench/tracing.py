"""Spans around the calls into each mpo_tomo layer, and the layer metrics.

A traced command runs the real ``mpo_tomo.cli.main`` after :func:`install`
has replaced selected functions by wrappers, at the names their callers
resolve: ``cli`` binds the ``correlations`` functions by name, ``fitting``
binds the ``reconstruct`` functions and ``to_standard_form`` by name, and the
rest are reached as module attributes.  Each span is
``[name, start, end, parent, info]`` with ``parent`` the index of the
enclosing span (-1 at the top) and ``info`` a small dict of counts taken from
the call's arguments or result.  Spans stay in memory until the command
ends.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records one span per wrapped call, with its parent span."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _rows(args, table):
    return {"rows": int(sum(np.isfinite(v).sum() for v in table.values.values()))}


def _max_bond(args, estimate):
    return {"max_bond": int(max(estimate.dims.values(), default=1))}


def _gn(args, fit):
    data = args[1]
    return {
        "iterations": fit.iterations,
        "n_params": int(fit.covariance.shape[0]),
        "rows": len(data.starts) * (4**data.window - 1),
    }


def _jacobian_flag(args, result):
    return {"jacobian": result[1] is not None}


def _branches(args, result):
    return {"branches": int(result.branches_evaluated)}


# (module, attribute, info) wrapped in place; the span is named
# "<module>.<attribute>" after the binding the caller resolves
TARGETS = (
    ("cli", "_stabilizer_table", None),
    ("cli", "moments_to_zshifted", None),
    ("cli", "correct_inefficiency", None),
    ("cli", "align_phases", None),
    ("cli", "zshifted_to_pauli", None),
    ("cli", "save_correlation_csv", None),
    ("measurement", "synthesize_dataset", _rows),
    ("measurement", "load_moment_csv", None),
    ("fitting", "zshifted_to_pauli", None),
    ("fitting", "build_corr_matrices", None),
    ("fitting", "estimate_bond_dims", _max_bond),
    ("fitting", "invert_reconstruct", None),
    ("fitting", "compress", None),
    ("fitting", "to_standard_form", None),
    ("fitting", "gauss_newton_fit", _gn),
    ("fitting", "_window_values_jacobian", _jacobian_flag),
    ("fitting", "propagate_covariance", None),
    ("fitting", "load_fit_bundle", None),
    ("fitting", "save_fit_bundle", None),
    ("mpo", "fidelity", None),
    ("mpo", "fidelity_gradient", None),
    ("mpo", "matrix_element", None),
    ("entanglement", "localizable_entanglement", _branches),
    ("entanglement", "le_subset_estimate", _branches),
    ("cluster", "fit_error_model", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target, and the three CLI commands, with ``tracer``."""
    for module, attr, info in TARGETS:
        mod = importlib.import_module(f"mpo_tomo.{module}")
        setattr(mod, attr, tracer.wrap(f"{module}.{attr}", getattr(mod, attr), info))
    cli = importlib.import_module("mpo_tomo.cli")
    # main() dispatches through this table, built at import time
    for name, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = tracer.wrap(f"cli.cmd_{name}", fn)


# the end-to-end metric, and workload, that each layer's metrics should move
LAYER_MOVES = {
    "cli": "simulate_s and pipeline_s on short_chains",
    "measurement": "simulate_s on short_chains and long_chain; not analyze_s on le_exact",
    "correlations": "reconstruct_s on short_chains",
    "reconstruct": "reconstruct_s (all under 30 ms at the seed commit)",
    "mpo": "analyze_s on long_chain",
    "fitting": "reconstruct_s and peak_rss_mb on long_chain; setup_s on le_exact; "
    "not analyze_s on le_exact",
    "entanglement": "analyze_s on le_exact and short_chains; not reconstruct_s anywhere",
    "cluster": "analyze_s on long_chain",
    "trace": "none: wall time of the traced commands over the same commands untraced, minus 1",
}

# (name, unit) of every per-layer metric; lower is better for all of them
LAYER_METRICS = (
    ("cli.startup_s", "s"),
    ("cli.write_dataset_s", "s"),
    ("cli.dataset_bytes", "bytes"),
    ("cli.write_fit_s", "s"),
    ("cli.write_report_s", "s"),
    ("measurement.synthesize_s", "s"),
    ("measurement.rows", "count"),
    ("measurement.load_csv_s", "s"),
    ("correlations.to_zshifted_s", "s"),
    ("correlations.inefficiency_s", "s"),
    ("correlations.align_s", "s"),
    ("correlations.to_pauli_s", "s"),
    ("reconstruct.corr_matrices_s", "s"),
    ("reconstruct.bond_estimate_s", "s"),
    ("reconstruct.invert_s", "s"),
    ("reconstruct.compress_s", "s"),
    ("reconstruct.max_bond", "count"),
    ("mpo.standard_form_s", "s"),
    ("mpo.fidelity_s", "s"),
    ("mpo.matrix_element_s", "s"),
    ("mpo.matrix_element_calls", "count"),
    ("fitting.gn_s", "s"),
    ("fitting.gn_iterations", "count"),
    ("fitting.value_evals", "count"),
    ("fitting.jacobian_evals", "count"),
    ("fitting.evals_per_iteration", "count"),
    ("fitting.s_per_iteration", "s"),
    ("fitting.model_s", "s"),
    ("fitting.solve_s", "s"),
    ("fitting.n_params", "count"),
    ("fitting.jacobian_mb", "MB"),
    ("fitting.propagate_s", "s"),
    ("fitting.propagate_calls", "count"),
    ("fitting.load_bundle_s", "s"),
    ("entanglement.le_s", "s"),
    ("entanglement.pairs", "count"),
    ("entanglement.branches", "count"),
    ("entanglement.us_per_branch", "us"),
    ("cluster.error_model_s", "s"),
    ("cluster.stabilizers_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# counts that must repeat exactly for the same code and chain
EXACT_COUNTS = (
    "fitting.gn_iterations",
    "fitting.value_evals",
    "fitting.jacobian_evals",
    "entanglement.branches",
    "measurement.rows",
    "cli.dataset_bytes",
)


def chain_metrics(commands, dataset_bytes: int) -> dict:
    """Layer metrics of one traced chain.

    Args:
        commands: one ``{"startup_s": float, "spans": [...]}`` per traced
            command of the chain.
        dataset_bytes: size of the chain's dataset CSVs on disk.

    Times are inclusive sums over the chain's calls, except the ``cli.write_*``
    entries, which are self times of the CLI command bodies.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    info = defaultdict(list)
    for command in commands:
        spans = command["spans"]
        for (name, start, end, _, extra), self_t in zip(spans, self_times(spans)):
            total[name] += end - start
            own[name] += self_t
            info[name].append(extra)

    def calls(*names):
        return sum(len(info[name]) for name in names)

    def summed(key, *names):
        return sum(extra[key] for name in names for extra in info[name])

    def peak(key, name):
        return max((extra[key] for extra in info[name]), default=0)

    iterations = summed("iterations", "fitting.gauss_newton_fit")
    model = "fitting._window_values_jacobian"
    jacobian_evals = summed("jacobian", model)
    le = ("entanglement.localizable_entanglement", "entanglement.le_subset_estimate")
    le_s = sum(total[name] for name in le)
    branches = summed("branches", *le)
    n_params = peak("n_params", "fitting.gauss_newton_fit")
    return {
        "cli.startup_s": statistics.median(c["startup_s"] for c in commands),
        "cli.write_dataset_s": own["cli.cmd_simulate"],
        "cli.dataset_bytes": dataset_bytes,
        "cli.write_fit_s": total["fitting.save_fit_bundle"] + total["cli.save_correlation_csv"],
        "cli.write_report_s": own["cli.cmd_analyze"],
        "measurement.synthesize_s": total["measurement.synthesize_dataset"],
        "measurement.rows": summed("rows", "measurement.synthesize_dataset"),
        "measurement.load_csv_s": total["measurement.load_moment_csv"],
        "correlations.to_zshifted_s": total["cli.moments_to_zshifted"],
        "correlations.inefficiency_s": total["cli.correct_inefficiency"],
        "correlations.align_s": total["cli.align_phases"],
        "correlations.to_pauli_s": total["cli.zshifted_to_pauli"] + total["fitting.zshifted_to_pauli"],
        "reconstruct.corr_matrices_s": total["fitting.build_corr_matrices"],
        "reconstruct.bond_estimate_s": total["fitting.estimate_bond_dims"],
        "reconstruct.invert_s": total["fitting.invert_reconstruct"],
        "reconstruct.compress_s": total["fitting.compress"],
        "reconstruct.max_bond": peak("max_bond", "fitting.estimate_bond_dims"),
        "mpo.standard_form_s": total["fitting.to_standard_form"],
        "mpo.fidelity_s": total["mpo.fidelity"] + total["mpo.fidelity_gradient"],
        "mpo.matrix_element_s": total["mpo.matrix_element"],
        "mpo.matrix_element_calls": calls("mpo.matrix_element"),
        "fitting.gn_s": total["fitting.gauss_newton_fit"],
        "fitting.gn_iterations": iterations,
        "fitting.value_evals": calls(model) - jacobian_evals,
        "fitting.jacobian_evals": jacobian_evals,
        "fitting.evals_per_iteration": calls(model) / max(iterations, 1),
        "fitting.s_per_iteration": total["fitting.gauss_newton_fit"] / max(iterations, 1),
        "fitting.model_s": total[model],
        "fitting.solve_s": total["fitting.gauss_newton_fit"] - total[model],
        "fitting.n_params": n_params,
        "fitting.jacobian_mb": peak("rows", "fitting.gauss_newton_fit") * n_params * 8 / 1e6,
        "fitting.propagate_s": total["fitting.propagate_covariance"],
        "fitting.propagate_calls": calls("fitting.propagate_covariance"),
        "fitting.load_bundle_s": total["fitting.load_fit_bundle"],
        "entanglement.le_s": le_s,
        "entanglement.pairs": calls(*le),
        "entanglement.branches": branches,
        "entanglement.us_per_branch": 1e6 * le_s / max(branches, 1),
        "cluster.error_model_s": total["cluster.fit_error_model"],
        "cluster.stabilizers_s": total["cli._stabilizer_table"],
    }
