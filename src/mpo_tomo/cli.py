"""Command-line pipeline: simulate -> reconstruct -> analyze.

Each command reads a JSON config (with explicit seeds; unknown keys are
rejected) and writes its artifacts under the output directory:

    mpo-tomo simulate   --config cfg.json --out run/
    mpo-tomo reconstruct --config cfg.json --out run/
    mpo-tomo analyze    --config cfg.json --out run/

Exit codes: 0 success, 2 validation error, 3 data-completeness error,
4 numerical non-convergence (partial outputs are still written), 5 unphysical
data.
The MPO_TOMO_LOG environment variable (error | info | debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import cluster, entanglement, fitting, measurement, mpo as mpo_mod
from ._csvio import write_csv, write_json
from .correlations import (
    align_phases,
    correct_inefficiency,
    moments_to_zshifted,
    save_correlation_csv,
    zshifted_to_pauli,
)
from .errors import CompletenessError, DataError, ValidationError

log = logging.getLogger("mpo_tomo")

_CONFIG_SCHEMA = {
    "version": None,
    "protocol": {"n_qubits", "eps_ad", "eps_pd", "rotation_offsets"},
    "measurement": {"window", "eta", "eta_se", "shots", "seed"},
    "fit": {"k_sigma", "max_iterations", "tol", "se_floor"},
    "analysis": {"le_pairs", "le_measure", "subset_samples", "subset_seed"},
}

_DEFAULTS = {
    "protocol": {"eps_ad": 0.0, "eps_pd": 0.0, "rotation_offsets": None},
    "measurement": {"window": 5, "eta": 1.0, "eta_se": 0.0},
    "fit": fitting.FIT_DEFAULTS,
    "analysis": {
        "le_pairs": "all",
        "le_measure": "negativity",
        "subset_samples": 2**13,
        "subset_seed": None,
    },
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_SCHEMA)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("version") != 1:
        raise ValidationError("config must declare \"version\": 1")
    for section, allowed in _CONFIG_SCHEMA.items():
        if allowed is None or section not in cfg:
            continue
        if not isinstance(cfg[section], dict):
            raise ValidationError(f"config section {section} must be a JSON object")
        extra = set(cfg[section]) - allowed
        if extra:
            raise ValidationError(f"unknown keys in {section}: {sorted(extra)}")
    for section, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        merged.update(cfg.get(section, {}))
        cfg[section] = merged
    protocol = cfg["protocol"]
    if "n_qubits" not in protocol:
        raise ValidationError("config needs protocol.n_qubits")
    n = protocol["n_qubits"]
    if not isinstance(n, int) or n < 5:
        raise ValidationError("protocol.n_qubits must be an integer >= 5")
    for key in ("eps_ad", "eps_pd"):
        eps = protocol[key]
        if not (_is_probability(eps) or _is_list(eps, n) and all(map(_is_probability, eps))):
            raise ValidationError(f"protocol.{key} must be a number in [0, 1] or a list of {n} of them")
    offsets = protocol["rotation_offsets"]
    if offsets is not None and not (_is_list(offsets, n) and all(map(_is_finite, offsets))):
        raise ValidationError(f"protocol.rotation_offsets must be null or a list of {n} finite numbers")
    m = cfg["measurement"]
    if "shots" not in m or "seed" not in m:
        raise ValidationError("measurement.shots and measurement.seed are required")
    if not _is_seed(m["seed"]):
        raise ValidationError("measurement.seed must be an explicit integer in [0, 2^63)")
    if not isinstance(m["shots"], int) or m["shots"] < 100:
        raise ValidationError("measurement.shots must be an integer >= 100")
    if not _is_int(m["window"]) or m["window"] != 5:
        raise ValidationError("measurement.window must be 5")
    if not _is_finite(m["eta"]) or not 0.0 < m["eta"] <= 1.0:
        raise ValidationError("measurement.eta must be a number in (0, 1]")
    if not _is_finite(m["eta_se"]) or m["eta_se"] < 0:
        raise ValidationError("measurement.eta_se must be a finite number >= 0")
    f = cfg["fit"]
    if not _is_int(f["max_iterations"]) or f["max_iterations"] < 0:
        raise ValidationError("fit.max_iterations must be an integer >= 0")
    if not _is_finite(f["tol"]) or f["tol"] < 0:
        raise ValidationError("fit.tol must be a finite number >= 0")
    for key in ("se_floor", "k_sigma"):
        if not _is_finite(f[key]) or f[key] <= 0:
            raise ValidationError(f"fit.{key} must be a finite number > 0")
    a = cfg["analysis"]
    if a["le_measure"] not in ("negativity", "concurrence"):
        raise ValidationError('analysis.le_measure must be "negativity" or "concurrence"')
    pairs = a["le_pairs"]
    if pairs != "all" and not (isinstance(pairs, list) and pairs and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) and 1 <= p[0] < p[1] <= n
        for p in pairs
    ) and len({tuple(p) for p in pairs}) == len(pairs)):
        raise ValidationError(
            f"analysis.le_pairs must be \"all\" or distinct integer pairs 1 <= r < r' <= {n}"
        )
    # beyond exact enumeration, LE samples subset_samples of the 2^(N-2) branches
    limit = entanglement.EXACT_ENUMERATION_LIMIT
    samples, seed = a["subset_samples"], a["subset_seed"]
    if not _is_int(samples) or samples < 1 or (n > limit and samples > 2 ** (n - 2)):
        raise ValidationError(f"analysis.subset_samples must be an integer >= 1 (<= 2^(N-2) if N > {limit})")
    if (seed is None and n > limit) or not (seed is None or _is_seed(seed)):
        raise ValidationError(f"analysis.subset_seed must be an integer in [0, 2^63) (null if N <= {limit})")
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_seed(x) -> bool:
    return _is_int(x) and 0 <= x < 2**63


def _is_finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_probability(x) -> bool:
    return _is_finite(x) and 0.0 <= x <= 1.0


def _is_list(x, length: int) -> bool:
    return isinstance(x, list) and len(x) == length


@contextmanager
def _timed(record: dict, stage: str):
    """Record the wall time of the enclosed block as ``record["timings"][stage]``
    (s) and the process's peak RSS when it ends as
    ``record["peak_rss_mb"][stage]`` (MB; ``ru_maxrss`` is in KiB on Linux)."""
    start = perf_counter()
    yield
    record.setdefault("timings", {})[stage] = perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.setdefault("peak_rss_mb", {})[stage] = maxrss * 1024 / 1e6


def _truth_mpo(cfg) -> mpo_mod.Mpo:
    p = cfg["protocol"]
    n = p["n_qubits"]
    # a number holds for every site
    model = cluster.ErrorModel(np.full(n, p["eps_ad"], dtype=float), np.full(n, p["eps_pd"], dtype=float))
    offsets = p["rotation_offsets"]
    if offsets is None:
        return cluster.noisy_cluster_model(n, model)
    from .emission import ProtocolImperfections, build_cluster_protocol, emit_mpo

    imp = ProtocolImperfections(
        rotation_offsets=tuple(offsets),
        photon_channels=tuple(model.channels()),
    )
    return emit_mpo(build_cluster_protocol(n, imp))


def _dataset_dir(out):
    return os.path.join(out, "dataset")


def cmd_simulate(cfg, out: str) -> int:
    n = cfg["protocol"]["n_qubits"]
    m = cfg["measurement"]
    window = m["window"]
    truth = _truth_mpo(cfg)
    table = measurement.synthesize_dataset(
        truth, window, m["eta"], m["shots"], m["seed"]
    )
    measurement.save_dataset(table, _dataset_dir(out))
    mpo_mod.save_json(truth, os.path.join(out, "truth_mpo.json"))
    manifest = {
        "n_qubits": n,
        "window": window,
        "shots": m["shots"],
        "seed": m["seed"],
        "eta": m["eta"],
        "settings": 2**window,
    }
    write_json(os.path.join(out, "simulate_manifest.json"), manifest)
    log.info("wrote %d setting files under %s", 2**window, _dataset_dir(out))
    return 0


def cmd_reconstruct(cfg, out: str) -> int:
    m = cfg["measurement"]
    record: dict = {}
    with _timed(record, "load"):
        table = measurement.load_dataset(
            _dataset_dir(out), cfg["protocol"]["n_qubits"], m["window"]
        )
    stages: dict = {}
    with _timed(record, "moments"):
        corrs = moments_to_zshifted(table)
    # at eta = 1 the correction still carries eta_se into every SE
    if m["eta"] < 1.0 or m["eta_se"] > 0.0:
        with _timed(record, "eta_correction"):
            corrs = correct_inefficiency(corrs, m["eta"], m["eta_se"])
        stages["eta_correction"] = {"eta": m["eta"], "eta_se": m["eta_se"]}
    with _timed(record, "alignment"):
        corrs, angles = align_phases(corrs)
    stages["alignment_angles"] = angles.tolist()
    with _timed(record, "fit"):
        estimate, inversion, fr = fitting.fit_chain(corrs, **cfg["fit"])
    stages["bond_dimensions"] = {
        str(s): {
            "estimate": estimate.dims[s],
            "singular_values": estimate.singular_values[s].tolist(),
            "singular_value_ses": estimate.singular_value_ses[s].tolist(),
        }
        for s in sorted(estimate.dims)
    }
    stages["inversion_residuals"] = {
        str(s): r for s, r in sorted(inversion.site_residuals.items())
    }
    stages["gauss_newton"] = {**fitting.fit_record(fr), "trace": fr.trace}
    fit_dir = os.path.join(out, "fit")
    with _timed(record, "write"):
        fitting.save_fit_bundle(fr, fit_dir)
        save_correlation_csv(
            zshifted_to_pauli(corrs),
            os.path.join(fit_dir, "correlations_pauli.csv"),
            os.path.join(fit_dir, "correlations_meta.json"),
        )
    stages.update(record)
    write_json(os.path.join(fit_dir, "stages.json"), stages)
    if not fr.converged:
        log.error(
            "fit did not converge (%s) after %d iterations", fr.exit_reason, fr.iterations
        )
        return 4
    log.info(
        "fit converged in %d iterations (%s), sse/dof=%.3f",
        fr.iterations,
        fr.exit_reason,
        fr.reduced_sse,
    )
    return 0


def _stabilizer_table(fit, n, le_rows):
    """The fidelity to the ideal cluster, the N stabilizers and the N ⟨Z_s⟩
    of the fit, in that order, with their SEs, and the parameter SE of each
    LE result in ``le_rows`` (None for one without a gradient), all from one
    joint propagation (:func:`mpo_tomo.fitting.propagate_joint`)."""
    m, ideal = fit.mpo, cluster.ideal_cluster_mpo(n)
    words = cluster.stabilizer_words(n)
    words += [tuple(3 if t == s else 0 for t in range(n)) for s in range(n)]
    values = [mpo_mod.fidelity(m, ideal), *(m.correlation(letters) for letters in words)]
    grads = [mpo_mod.fidelity_gradient(m, ideal)]
    grads += [mpo_mod.correlation_gradient(m, letters) for letters in words]
    grads += [res.gradient for res in le_rows if res.gradient is not None]
    ses, _ = fitting.propagate_joint(fit, grads)
    le_ses = iter(ses[len(values) :].tolist())
    return (
        np.array(values),
        ses[: len(values)],
        [None if res.gradient is None else next(le_ses) for res in le_rows],
    )


def _write_le_csv(path, key_header, keys, rows) -> None:
    """LE results, each paired with its parameter SE, after their key
    columns; se_parameter is empty without a parameter gradient, which a
    subset estimate or ``fallback_branches`` > 0 explains."""
    write_csv(
        path,
        [*key_header, "value", "se_parameter", "se_sampling", "fallback_branches"],
        [
            *keys,
            [res.value for res, _ in rows],
            ["" if se is None else se for _, se in rows],
            [res.se_sampling for res, _ in rows],
            [res.fallback_branches for res, _ in rows],
        ],
    )


def cmd_analyze(cfg, out: str) -> int:
    n = cfg["protocol"]["n_qubits"]
    ana = cfg["analysis"]
    fit_dir = os.path.join(out, "fit")
    if not os.path.isdir(fit_dir):
        raise ValidationError(f"no fit bundle under {fit_dir}; run reconstruct first")
    record: dict = {}
    with _timed(record, "load"):
        fit = fitting.load_fit_bundle(fit_dir)
    if fit.mpo.n_qubits != n:
        raise ValidationError(f"fit bundle has {fit.mpo.n_qubits} qubits; protocol.n_qubits is {n}")

    # localizable entanglement, with the gradients its SEs propagate
    measure = ana["le_measure"]
    pairs = ana["le_pairs"]
    if pairs == "all":
        pairs = [(r, rp) for r in range(1, n) for rp in range(r + 1, n + 1)]
    else:
        pairs = [tuple(p) for p in pairs]
    with _timed(record, "le"):
        le_rows = []
        for pair in pairs:
            if n <= entanglement.EXACT_ENUMERATION_LIMIT:
                res = entanglement.localizable_entanglement(fit.mpo, pair, measure)
            else:
                res = entanglement.le_subset_estimate(
                    fit.mpo, pair, measure, ana["subset_samples"], ana["subset_seed"]
                )
            le_rows.append(res)

    with _timed(record, "propagation"):
        # one propagation for the fidelity, stabilizer, excitation and LE SEs
        values, ses, le_ses = _stabilizer_table(fit, n, le_rows)
        fidelity, fidelity_se = float(values[0]), float(ses[0])
    with _timed(record, "error_model"):
        stab_values, stab_ses = values[1 : n + 1], ses[1 : n + 1]
        bound = cluster.stabilizer_fidelity_bound(stab_values, stab_ses)
        z_values, z_ses = values[n + 1 :], ses[n + 1 :]
        # mean excitation (1 - <Z_s>) / 2
        excitations, exc_ses = (1.0 - z_values) / 2.0, z_ses / 2.0
        model = cluster.fit_error_model(
            excitations, exc_ses, stab_values, stab_ses, uniform=True
        )
        cluster.write_stabilizer_report(
            os.path.join(out, "stabilizers.csv"), stab_values, stab_ses, model.stabilizers()
        )
        model.to_json(os.path.join(out, "error_model.json"))

    le_table = list(zip(le_rows, le_ses))
    le_matrix = os.path.join(out, "le_matrix.csv")
    _write_le_csv(le_matrix, ["r", "r_prime"], zip(*(res.pair for res in le_rows)), le_table)
    profile = [(res, se) for res, se in le_table if res.pair[0] == 1]
    le_distance = os.path.join(out, "le_distance.csv")
    _write_le_csv(le_distance, ["k"], [[res.pair[1] - 1 for res, _ in profile]], profile)

    # density-matrix corner dump (first/last 16 basis states)
    corner = [*range(16), *range(2**n - 16, 2**n)]
    labels = [format(i, f"0{n}b") for i in corner]
    with _timed(record, "corner"):
        # per-entry abs and angle: np.abs on the block can differ in the last bit
        entries = mpo_mod.density_corner(fit.mpo).ravel().tolist()
        write_csv(
            os.path.join(out, "density_corner.csv"),
            ["bra", "ket", "abs", "arg"],
            [
                np.repeat(labels, len(labels)),
                np.tile(labels, len(labels)),
                [abs(z) for z in entries],
                [float(np.angle(z)) for z in entries],
            ],
        )

    report = {
        "n_qubits": n,
        "fidelity": fidelity,
        "fidelity_se": fidelity_se,
        "stabilizer_bound": bound,
        "stabilizers": stab_values.tolist(),
        "stabilizer_ses": stab_ses.tolist(),
        "mean_excitations": excitations.tolist(),
        "error_model": {
            "eps_ad": model.eps_ad.tolist(),
            "eps_pd": model.eps_pd.tolist(),
        },
        "le_measure": measure,
        "le_fallback_branches": sum(res.fallback_branches for res in le_rows),
        "fit": fitting.fit_record(fit),
        **record,
    }
    write_json(os.path.join(out, "report.json"), report)
    log.info("fidelity %.4f +- %.4f, bound %.4f", fidelity, fidelity_se, bound)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "analyze": cmd_analyze,
}

# failures that end a command, with their documented exit codes
_EXIT_CODES = {
    ValidationError: 2,
    CompletenessError: 3,
    DataError: 5,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpo-tomo",
        description="MPO tomography of sequentially emitted photonic qubit chains",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    level = os.environ.get("MPO_TOMO_LOG", "error").upper()
    if level not in ("ERROR", "INFO", "DEBUG"):
        print(f"MPO_TOMO_LOG must be error, info or debug (got {level.lower()})", file=sys.stderr)
        return 2
    logging.basicConfig(level=getattr(logging, level))

    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {args.out}: {exc.strerror}") from exc
        return _COMMANDS[args.command](cfg, args.out)
    except tuple(_EXIT_CODES) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
