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
import os
import resource
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import cluster, entanglement, fitting, measurement, mpo as mpo_mod
from ._csvio import write_csv, write_json
from ._validation import is_finite, is_int
from .correlations import (
    align_phases,
    correct_inefficiency,
    moments_to_zshifted,
    save_correlation_csv,
    zshifted_to_pauli,
)
from .errors import CompletenessError, DataError, ValidationError

log = logging.getLogger("mpo_tomo")

_REQUIRED = object()
_LIMIT = entanglement.EXACT_ENUMERATION_LIMIT
_FIT = fitting.FIT_DEFAULTS


def _is_seed(x, n=None) -> bool:
    return is_int(x) and 0 <= x < 2**63


def _is_probability(x) -> bool:
    return is_finite(x) and 0.0 <= x <= 1.0


def _is_list(x, n: int, holds) -> bool:
    return isinstance(x, list) and len(x) == n and all(map(holds, x))


def _is_pairs(x, n: int) -> bool:
    return isinstance(x, list) and bool(x) and all(
        isinstance(p, list) and len(p) == 2 and all(map(is_int, p)) and 1 <= p[0] < p[1] <= n for p in x
    ) and len({tuple(p) for p in x}) == len(x)


#: section -> key -> (default, or _REQUIRED for a key every config sets; rule;
#: holds(value, N)): the one list of the config's sections, keys, defaults and rules
_CONFIG_RULES = {
    "protocol": {
        "n_qubits": (_REQUIRED, "an integer in [5, 2^63)", lambda x, n: is_int(x) and 5 <= x < 2**63),
        "eps_ad": (0.0, "a number in [0, 1] or a list of N of them",
                   lambda x, n: _is_probability(x) or _is_list(x, n, _is_probability)),
        "eps_pd": (0.0, "a number in [0, 1] or a list of N of them",
                   lambda x, n: _is_probability(x) or _is_list(x, n, _is_probability)),
        "rotation_offsets": (None, "null or a list of N finite numbers",
                             lambda x, n: x is None or _is_list(x, n, is_finite)),
    },
    "measurement": {
        "window": (5, "5", lambda x, n: is_int(x) and x == 5),
        "eta": (1.0, "a number in (0, 1]", lambda x, n: is_finite(x) and 0.0 < x <= 1.0),
        "eta_se": (0.0, "a finite number >= 0", lambda x, n: is_finite(x) and x >= 0),
        "shots": (_REQUIRED, "an integer in [100, 2^63)", lambda x, n: is_int(x) and 100 <= x < 2**63),
        "seed": (_REQUIRED, "an explicit integer in [0, 2^63)", _is_seed),
    },
    "fit": {
        "k_sigma": (_FIT["k_sigma"], "a finite number > 0", lambda x, n: is_finite(x) and x > 0),
        "max_iterations": (_FIT["max_iterations"], "an integer >= 0", lambda x, n: is_int(x) and x >= 0),
    },
    "analysis": {
        "le_pairs": ("all", "\"all\" or distinct integer pairs 1 <= r < r' <= N",
                     lambda x, n: x == "all" or _is_pairs(x, n)),
        "le_measure": ("negativity", "\"negativity\" or \"concurrence\"",
                       lambda x, n: x in ("negativity", "concurrence")),
        # beyond exact enumeration, LE samples subset_samples of the 2^(N-2)
        # branches; (s - 1).bit_length() <= N - 2 is s <= 2^(N-2), never built
        "subset_samples": (2**13, f"an integer >= 1 (<= 2^(N-2) if N > {_LIMIT})",
                           lambda x, n: is_int(x) and x >= 1 and (n <= _LIMIT or (x - 1).bit_length() <= n - 2)),
        "subset_seed": (None, f"an integer in [0, 2^63) (or null if N <= {_LIMIT})",
                        lambda x, n: _is_seed(x) or x is None and n <= _LIMIT),
    },
}


def load_config(path) -> dict:
    """The config at ``path``, each section merged over its defaults and each key checked."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - {"version", *_CONFIG_RULES}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if not (is_int(cfg.get("version")) and cfg["version"] == 1):
        raise ValidationError("config must declare \"version\": 1")
    for section, rules in _CONFIG_RULES.items():
        given = cfg.get(section, {})
        if not isinstance(given, dict):
            raise ValidationError(f"config section {section} must be a JSON object")
        extra = set(given) - set(rules)
        if extra:
            raise ValidationError(f"unknown keys in {section}: {sorted(extra)}")
        cfg[section] = {key: row[0] for key, row in rules.items()} | given
    # n_qubits first: the rules that take N need it checked
    n = cfg["protocol"]["n_qubits"]
    for section, key in [("protocol", "n_qubits"), *((s, k) for s in _CONFIG_RULES for k in _CONFIG_RULES[s])]:
        _, rule, holds = _CONFIG_RULES[section][key]
        if cfg[section][key] is _REQUIRED or not holds(cfg[section][key], n):
            raise ValidationError(f"{section}.{key} must be {rule}")
    return cfg


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
    m = cfg["measurement"]
    window = m["window"]
    manifest = {"n_qubits": cfg["protocol"]["n_qubits"], "window": window, "settings": 2**window}
    manifest.update({key: m[key] for key in ("shots", "seed", "eta")})
    with _timed(manifest, "truth"):
        truth = _truth_mpo(cfg)
    with _timed(manifest, "synthesis"):
        table = measurement.synthesize_dataset(truth, window, m["eta"], m["shots"], m["seed"])
    with _timed(manifest, "write"):
        measurement.save_dataset(table, _dataset_dir(out))
        mpo_mod.save_json(truth, os.path.join(out, "truth_mpo.json"))
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
        "mean_excitation_ses": exc_ses.tolist(),
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
