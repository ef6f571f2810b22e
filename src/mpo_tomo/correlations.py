"""Conversion of quadrature moments to Pauli correlations with uncertainties.

The pipeline works in the Z-shifted Pauli basis ``R = (I, X, Y, 2I - Z)``
wherever possible: those correlations are reachable from the measured
moments by pure per-site scaling, which keeps their statistical errors
independent.  Conversion to the plain Pauli basis mixes rows and is done
only where needed.

Every basis change, the inefficiency correction and the phase rotation go
through one step, :func:`_mapped`: a linear map per chain site applied to a
:class:`~mpo_tomo.measurement.WindowTable`, its SEs propagated through the
squared maps.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ._csvio import word_strings, write_csv, write_json
from ._validation import check_efficiency
from .channels import z_rotation
from .errors import DataError, ValidationError
from .measurement import MOMENT_BASIS, PAULI_BASIS, ZSHIFTED_BASIS, WindowTable
from .pauli import apply_site_maps

#: 4x6 per-site map from moment letters (q^0, p^0, q, p, q^2, p^2) to the
#: Z-shifted basis (I, X, Y, 2I - Z); the first row averages the duplicated
#: identity measurements.
G_MATRIX = np.array(
    [
        [0.5, 0.5, 0, 0, 0, 0],
        [0, 0, np.sqrt(2.0), 0, 0, 0],
        [0, 0, 0, np.sqrt(2.0), 0, 0],
        [0, 0, 0, 0, 1.0, 1.0],
    ]
)

#: Involutive per-site map between the Z-shifted and plain Pauli bases.
F_MATRIX = np.array(
    [
        [1.0, 0, 0, 0],
        [0, 1.0, 0, 0],
        [0, 0, 1.0, 0],
        [2.0, 0, 0, -1.0],
    ]
)

def _mapped(table: WindowTable, maps, basis: str, **meta) -> WindowTable:
    """``table`` with each window contracted with the linear maps of its sites
    (``maps`` holds one per chain site, site s at ``maps[s - 1]``), relabelled
    ``basis``, and ``meta`` merged into its meta.  Variances are propagated
    under the independence assumption."""
    values, ses = {}, {}
    for start, v in table.values.items():
        site_maps = maps[start - 1 : start - 1 + v.ndim]
        values[start] = apply_site_maps(v, site_maps)
        ses[start] = np.sqrt(apply_site_maps(table.ses[start] ** 2, [m**2 for m in site_maps]))
    return replace(table, basis=basis, values=values, ses=ses, meta={**table.meta, **meta})


def moments_to_zshifted(table: WindowTable) -> WindowTable:
    """Convert a complete moment table to Z-shifted-Pauli correlations.

    Applies the per-site matrix G; standard errors are propagated assuming
    independent moment errors.  Any missing row is fatal.
    """
    if table.basis != MOMENT_BASIS:
        raise ValidationError(f"expected a moment table, got a {table.basis} table")
    table.require_complete()
    return _mapped(table, [G_MATRIX] * table.n_sites, ZSHIFTED_BASIS)


def inverse_loss_zshifted(eta: float) -> np.ndarray:
    """Per-site inverse of the loss channel in the Z-shifted basis.

    Lower triangular: rescales X and Y by eta^-1/2 and unmixes the identity
    component from the 2I - Z row.
    """
    eta = check_efficiency(eta)
    return np.array(
        [
            [1.0, 0, 0, 0],
            [0, eta**-0.5, 0, 0],
            [0, 0, eta**-0.5, 0],
            [-(1.0 - eta) / eta, 0, 0, 1.0 / eta],
        ]
    )


def _inverse_loss_deta(eta: float) -> np.ndarray:
    return np.array(
        [
            [0.0, 0, 0, 0],
            [0, -0.5 * eta**-1.5, 0, 0],
            [0, 0, -0.5 * eta**-1.5, 0],
            [1.0 / eta**2, 0, 0, -1.0 / eta**2],
        ]
    )


def correct_inefficiency(corrs: WindowTable, eta: float, eta_se: float = 0.0) -> WindowTable:
    """Undo the measurement-efficiency loss channel on Z-shifted correlations.

    The tensor product of per-site inverse loss maps is applied; input SEs
    are propagated as independent, and the uncertainty of eta itself is
    folded in by first-order sensitivity.
    """
    if corrs.basis != ZSHIFTED_BASIS:
        raise ValidationError("inefficiency correction expects z-shifted input")
    eta = check_efficiency(eta)
    einv = inverse_loss_zshifted(eta)
    out = _mapped(corrs, [einv] * corrs.n_sites, ZSHIFTED_BASIS, eta=eta, eta_se=eta_se)
    if eta_se > 0.0:
        deinv = _inverse_loss_deta(eta)
        for start, v in corrs.values.items():
            dv = np.zeros_like(v)
            for site in range(v.ndim):
                dv += apply_site_maps(
                    v, [deinv if k == site else einv for k in range(v.ndim)]
                )
            out.ses[start] = np.sqrt(out.ses[start] ** 2 + (dv * eta_se) ** 2)
    return out


def zshifted_to_pauli(corrs: WindowTable) -> WindowTable:
    """Convert Z-shifted correlations to the plain Pauli basis (F per site).

    F is its own inverse.  SEs are propagated under the independence
    assumption, which overstates nothing on the X/Y rows but ignores the
    correlation introduced on Z rows; the assumption is recorded in meta.
    """
    if corrs.basis != ZSHIFTED_BASIS:
        raise ValidationError("expected z-shifted input")
    return _mapped(corrs, [F_MATRIX] * corrs.n_sites, PAULI_BASIS, se_independence_assumed=True)


# --- phase alignment --------------------------------------------------------


def _stabilizer_components(as_pauli: WindowTable, site: int):
    """(Y-component, X-component) of the stabilizer pattern around a site."""
    n = as_pauli.n_sites
    if site == 1:
        num = as_pauli.word_value((2, 3), 1)  # <Y1 Z2>
        den = as_pauli.word_value((1, 3), 1)  # <X1 Z2>
    elif site == n:
        num = as_pauli.word_value((3, 2), n - 1)
        den = as_pauli.word_value((3, 1), n - 1)
    else:
        num = as_pauli.word_value((3, 2, 3), site - 1)
        den = as_pauli.word_value((3, 1, 3), site - 1)
    return num, den


#: standard errors a stabilizer component must reach to define a site's phase
_MIN_SIGNIFICANCE = 5.0


def estimate_phase_angles(corrs: WindowTable):
    """Per-site rotation angles that zero the Y-flavoured stabilizer patterns.

    The angle for site s is ``-atan2(<Z Y Z>, <Z X Z>)`` (two-argument form,
    so anti-aligned qubits are handled); boundary sites use the two-qubit
    stabilizers.

    Raises:
        DataError: if both components are below ``_MIN_SIGNIFICANCE``
            standard errors for some site, leaving the phase undefined.
    """
    as_pauli = corrs if corrs.basis == PAULI_BASIS else zshifted_to_pauli(corrs)
    angles = np.zeros(corrs.n_sites)
    for site in range(1, corrs.n_sites + 1):
        (num, num_se), (den, den_se) = _stabilizer_components(as_pauli, site)
        if abs(num) < _MIN_SIGNIFICANCE * num_se and abs(den) < _MIN_SIGNIFICANCE * den_se:
            raise DataError(
                f"phase of site {site} is undefined: stabilizer components "
                f"{num:.3g}+-{num_se:.3g}, {den:.3g}+-{den_se:.3g}"
            )
        angles[site - 1] = -np.arctan2(num, den)
    return angles


def rotate_sites(corrs: WindowTable, angles) -> WindowTable:
    """Apply per-site Z-rotations to all words (X/Y components mix)."""
    if corrs.basis == MOMENT_BASIS:
        raise ValidationError("phase rotation expects correlations, got a moment table")
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (corrs.n_sites,):
        raise ValidationError(f"need one angle per site, got {angles.shape}")
    maps = [z_rotation(th) for th in angles]
    return _mapped(corrs, maps, corrs.basis, alignment_angles=angles.tolist())


def align_phases(corrs: WindowTable):
    """Estimate and apply the per-qubit phase correction.

    Returns:
        (rotated correlation set, angles) where the rotation maximizes every
        stabilizer's X component and zeroes its Y companion.
    """
    angles = estimate_phase_angles(corrs)
    return rotate_sites(corrs, angles), angles


# --- file formats ------------------------------------------------------------


def save_correlation_csv(corrs: WindowTable, path, meta_path) -> None:
    starts = corrs.starts
    words = word_strings(corrs.word_names(), corrs.window).ravel()
    columns = [
        np.repeat(starts, words.size),
        np.tile(words, len(starts)),
        np.concatenate([corrs.values[s].ravel() for s in starts]),
        np.concatenate([corrs.ses[s].ravel() for s in starts]),
    ]
    write_csv(path, ["window_start", "word", "value", "se"], columns)
    doc = {key: getattr(corrs, key) for key in ("basis", "n_sites", "window", "shots")}
    write_json(meta_path, {**doc, **corrs.meta})
