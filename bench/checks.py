"""Output check of every benchmarked command.

A command passes when it exits 0 and its outputs hold up:

- simulate: one CSV per setting, and ``truth_mpo.json`` encodes the
  configured truth (its fidelity to the ideal cluster matches the reference);
- reconstruct: the fit bundle reports ``converged`` with a finite SSE;
- analyze: every number in ``report.json`` is finite, the fit converged, the
  fitted fidelity lies within 5 SE of the truth fidelity, and the LE CSVs
  have one row per requested pair.
"""

from __future__ import annotations

import csv
import json
import math
import os

from mpo_tomo import cluster, mpo

FIDELITY_SIGMAS = 5.0


def truth_fidelity(n_qubits: int, eps_ad: float, eps_pd: float) -> float:
    """Fidelity of the configured noisy chain to the ideal cluster state."""
    truth = cluster.noisy_cluster_model(
        n_qubits, cluster.ErrorModel.uniform(n_qubits, eps_ad, eps_pd)
    )
    return mpo.fidelity(truth, cluster.ideal_cluster_mpo(n_qubits))


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_simulate(out, expect):
    problems = []
    settings = [f for f in os.listdir(os.path.join(out, "dataset")) if f.endswith(".csv")]
    if len(settings) != 2 ** expect["window"]:
        problems.append(f"{len(settings)} setting CSVs, expected {2 ** expect['window']}")
    n = expect["n_qubits"]
    written = mpo.fidelity(
        mpo.load_json(os.path.join(out, "truth_mpo.json")), cluster.ideal_cluster_mpo(n)
    )
    if not abs(written - expect["truth_fidelity"]) <= 1e-9:
        problems.append(
            f"truth_mpo.json fidelity {written!r} != configured {expect['truth_fidelity']!r}"
        )
    return problems


def _check_reconstruct(out, expect):
    with open(os.path.join(out, "fit", "fit_report.json")) as fh:
        report = json.load(fh)
    problems = []
    if report.get("converged") is not True:
        problems.append("fit_report.json: converged is not true")
    if not _finite(report.get("sse")):
        problems.append("fit_report.json: sse is not finite")
    return problems


def _check_analyze(out, expect):
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    problems = []
    if not _finite(report):
        problems.append("report.json holds a non-finite number")
    if report.get("fit", {}).get("converged") is not True:
        problems.append("report.json: fit.converged is not true")
    fidelity, se = report.get("fidelity"), report.get("fidelity_se")
    if not (
        isinstance(fidelity, float)
        and isinstance(se, float)
        and math.isfinite(fidelity)
        and math.isfinite(se)
        and se > 0.0
        and abs(fidelity - expect["truth_fidelity"]) <= FIDELITY_SIGMAS * se
    ):
        problems.append(
            f"fidelity {fidelity!r} +- {se!r} is not within {FIDELITY_SIGMAS:g} SE "
            f"of the truth {expect['truth_fidelity']!r}"
        )
    pairs = sorted(tuple(p) for p in expect["pairs"])
    rows = _csv_rows(os.path.join(out, "le_matrix.csv"))
    got = sorted((int(r["r"]), int(r["r_prime"])) for r in rows)
    if got != pairs:
        problems.append(f"le_matrix.csv has pairs {got}, expected {pairs}")
    distance = _csv_rows(os.path.join(out, "le_distance.csv"))
    want = sum(1 for r, _ in pairs if r == 1)
    if len(distance) != want:
        problems.append(f"le_distance.csv has {len(distance)} rows, expected {want}")
    return problems


_CHECKS = {
    "simulate": _check_simulate,
    "reconstruct": _check_reconstruct,
    "analyze": _check_analyze,
}


def check_command(command: str, exit_code: int, out: str, expect: dict) -> list[str]:
    """Problems with one command's run; an empty list means it passed.

    Args:
        exit_code: the command's exit code (4 is non-convergence: a failure).
        out: the command's ``--out`` directory.
        expect: ``n_qubits``, ``window``, ``pairs`` and ``truth_fidelity``.
    """
    if exit_code != 0:
        return [f"{command} exited with code {exit_code}"]
    try:
        return _CHECKS[command](out, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command} outputs unreadable: {exc!r}"]
