"""Conversion of quadrature moments to Pauli correlations with uncertainties.

The pipeline works in the Z-shifted Pauli basis ``R = (I, X, Y, 2I - Z)``
wherever possible: those correlations are reachable from the measured
moments by pure per-site scaling, which keeps their statistical errors
independent.  Conversion to the plain Pauli basis mixes rows and is done
only where needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._csvio import word_strings, write_csv, write_json
from ._validation import check_efficiency
from .channels import z_rotation
from .errors import DataError, ValidationError
from .measurement import MomentTable
from .pauli import apply_site_maps

PAULI_BASIS = "pauli"
ZSHIFTED_BASIS = "z-shifted"

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

_PAULI_NAMES = ("I", "X", "Y", "Z")
_R_NAMES = ("R0", "R1", "R2", "R3")


@dataclass
class PauliCorrelationSet:
    """Local correlations with standard errors, keyed by window start and word.

    ``values[start]`` is a ``(4,)*window`` tensor over per-site letters in
    the basis given by ``basis`` ("pauli" or "z-shifted").
    """

    n_sites: int
    window: int
    basis: str
    values: dict[int, np.ndarray] = field(repr=False)
    ses: dict[int, np.ndarray] = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in (PAULI_BASIS, ZSHIFTED_BASIS):
            raise ValidationError(f"unknown basis tag {self.basis!r}")

    @property
    def starts(self) -> list[int]:
        return sorted(self.values)

    def marginal(self, first: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and SEs of the correlations at sites ``first .. first+length-1``.

        The only rule for which measured window supplies a marginal: the one
        that starts at ``first``, else the last window; its other sites are
        set to the identity.  Returns ``(4,)*length`` views into the table.
        """
        end = first + length - 1
        if length > self.window or first < 1 or end > self.n_sites:
            raise ValidationError(f"sites {first}..{end} do not fit the table")
        w0 = min(first, self.n_sites - self.window + 1)
        idx = [0] * self.window
        idx[first - w0 : first - w0 + length] = [slice(None)] * length
        idx = tuple(idx)
        return self.values[w0][idx], self.ses[w0][idx]

    def word_value(self, letters, start_site: int) -> tuple[float, float]:
        """Value and SE of a (sub-window) word via identity padding."""
        letters = tuple(int(a) for a in letters)
        values, ses = self.marginal(start_site, len(letters))
        return float(values[letters]), float(ses[letters])

    def word_names(self):
        return _PAULI_NAMES if self.basis == PAULI_BASIS else _R_NAMES


def _apply_site_map(values, ses, maps):
    """Contract each window with the linear maps of its sites (``maps`` holds
    one per chain site, site s at ``maps[s - 1]``), propagating variances
    under the independence assumption."""
    out_v, out_s = {}, {}
    for start, v in values.items():
        site_maps = maps[start - 1 : start - 1 + v.ndim]
        out_v[start] = apply_site_maps(v, site_maps)
        out_s[start] = np.sqrt(apply_site_maps(ses[start] ** 2, [m**2 for m in site_maps]))
    return out_v, out_s


def moments_to_zshifted(table: MomentTable) -> PauliCorrelationSet:
    """Convert a complete moment table to Z-shifted-Pauli correlations.

    Applies the per-site matrix G; standard errors are propagated assuming
    independent moment errors.  Any missing row is fatal.
    """
    table.require_complete()
    out_v, out_s = _apply_site_map(table.values, table.ses, [G_MATRIX] * table.n_sites)
    return PauliCorrelationSet(
        n_sites=table.n_sites,
        window=table.window,
        basis=ZSHIFTED_BASIS,
        values=out_v,
        ses=out_s,
        meta={"shots": table.shots},
    )


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


def correct_inefficiency(
    corrs: PauliCorrelationSet, eta: float, eta_se: float = 0.0
) -> PauliCorrelationSet:
    """Undo the measurement-efficiency loss channel on Z-shifted correlations.

    The tensor product of per-site inverse loss maps is applied; input SEs
    are propagated as independent, and the uncertainty of eta itself is
    folded in by first-order sensitivity.
    """
    if corrs.basis != ZSHIFTED_BASIS:
        raise ValidationError("inefficiency correction expects z-shifted input")
    eta = check_efficiency(eta)
    einv = inverse_loss_zshifted(eta)
    out_v, out_s = _apply_site_map(corrs.values, corrs.ses, [einv] * corrs.n_sites)
    if eta_se > 0.0:
        deinv = _inverse_loss_deta(eta)
        for start, v in corrs.values.items():
            dv = np.zeros_like(v)
            for site in range(v.ndim):
                dv += apply_site_maps(
                    v, [deinv if k == site else einv for k in range(v.ndim)]
                )
            out_s[start] = np.sqrt(out_s[start] ** 2 + (dv * eta_se) ** 2)
    meta = dict(corrs.meta)
    meta.update({"eta": eta, "eta_se": eta_se})
    return PauliCorrelationSet(
        corrs.n_sites, corrs.window, ZSHIFTED_BASIS, out_v, out_s, meta
    )


def zshifted_to_pauli(corrs: PauliCorrelationSet) -> PauliCorrelationSet:
    """Convert Z-shifted correlations to the plain Pauli basis (F per site).

    F is its own inverse.  SEs are propagated under the independence
    assumption, which overstates nothing on the X/Y rows but ignores the
    correlation introduced on Z rows; the assumption is recorded in meta.
    """
    if corrs.basis != ZSHIFTED_BASIS:
        raise ValidationError("expected z-shifted input")
    out_v, out_s = _apply_site_map(corrs.values, corrs.ses, [F_MATRIX] * corrs.n_sites)
    meta = dict(corrs.meta)
    meta["se_independence_assumed"] = True
    return PauliCorrelationSet(
        corrs.n_sites, corrs.window, PAULI_BASIS, out_v, out_s, meta
    )


# --- phase alignment --------------------------------------------------------


def _stabilizer_components(as_pauli: PauliCorrelationSet, site: int):
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


def estimate_phase_angles(corrs: PauliCorrelationSet):
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


def rotate_sites(corrs: PauliCorrelationSet, angles) -> PauliCorrelationSet:
    """Apply per-site Z-rotations to all words (X/Y components mix)."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (corrs.n_sites,):
        raise ValidationError(f"need one angle per site, got {angles.shape}")
    out_v, out_s = _apply_site_map(corrs.values, corrs.ses, [z_rotation(th) for th in angles])
    meta = dict(corrs.meta)
    meta["alignment_angles"] = angles.tolist()
    return replace(corrs, values=out_v, ses=out_s, meta=meta)


def align_phases(corrs: PauliCorrelationSet):
    """Estimate and apply the per-qubit phase correction.

    Returns:
        (rotated correlation set, angles) where the rotation maximizes every
        stabilizer's X component and zeroes its Y companion.
    """
    angles = estimate_phase_angles(corrs)
    return rotate_sites(corrs, angles), angles


# --- file formats ------------------------------------------------------------


def save_correlation_csv(corrs: PauliCorrelationSet, path, meta_path) -> None:
    starts = corrs.starts
    words = word_strings(corrs.word_names(), corrs.window).ravel()
    columns = [
        np.repeat(starts, words.size),
        np.tile(words, len(starts)),
        np.concatenate([corrs.values[s].ravel() for s in starts]),
        np.concatenate([corrs.ses[s].ravel() for s in starts]),
    ]
    write_csv(path, ["window_start", "word", "value", "se"], columns)
    doc = {"basis": corrs.basis, "n_sites": corrs.n_sites, "window": corrs.window}
    doc.update(corrs.meta)
    write_json(meta_path, doc)
