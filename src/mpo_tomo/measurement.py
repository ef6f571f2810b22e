"""Per-window tables, quadrature-moment observables and synthetic datasets.

One type, :class:`WindowTable`, holds the per-window data from the moment
file to the fit: measured moments, Z-shifted correlations and Pauli
correlations differ only in their ``basis`` tag and per-site letters.  Also
the on-disk dataset layout: one moment CSV per measurement setting.

The per-mode observable alphabet is ``q^0, p^0, q^1, p^1, q^2, p^2``
(letters ``Q0, P0, Q1, P1, Q2, P2``, indices 0..5).  ``q^0`` and ``p^0``
both equal the identity but are tracked separately because they come from
different measurement settings.  For a state confined to the 0/1-photon
subspace every moment is a linear image of the window's Pauli correlations.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

import numpy as np

from ._csvio import word_strings, write_csv
from ._validation import check_efficiency
from .channels import measurement_loss
from .errors import CompletenessError, ValidationError
from .mpo import Mpo, apply_local_channels
from .pauli import PAULIS, apply_site_maps

QUAD_LETTERS = ("Q0", "P0", "Q1", "P1", "Q2", "P2")

_FOCK_CUTOFF = 4  # q^2 couples |1> to |3>, so fourth moments need 4 levels


def _fock_ops():
    a = np.zeros((_FOCK_CUTOFF, _FOCK_CUTOFF))
    for n in range(1, _FOCK_CUTOFF):
        a[n - 1, n] = np.sqrt(n)
    q = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    eye = np.eye(_FOCK_CUTOFF)
    return [eye, eye, q, p, q @ q, p @ p]


def _pauli_embedded():
    out = np.zeros((4, _FOCK_CUTOFF, _FOCK_CUTOFF), dtype=complex)
    out[:, :2, :2] = PAULIS
    return out


def _site_tables():
    """First- and second-moment tables t[pauli, letter] = Tr[P Q]/2, Tr[P Q^2]/2."""
    ops = _fock_ops()
    emb = _pauli_embedded()
    t1 = np.real(np.stack([[np.trace(emb[i] @ op) for op in ops] for i in range(4)])) / 2.0
    t2 = (
        np.real(np.stack([[np.trace(emb[i] @ op @ op) for op in ops] for i in range(4)]))
        / 2.0
    )
    return t1, t2


_T1, _T2 = _site_tables()


MOMENT_BASIS = "moments"
ZSHIFTED_BASIS = "z-shifted"
PAULI_BASIS = "pauli"

#: the per-site letters of each basis a window table holds; index 0 is the
#: identity in all three (q^0, R0 = I, I)
_BASIS_LETTERS = {
    MOMENT_BASIS: QUAD_LETTERS,
    ZSHIFTED_BASIS: ("R0", "R1", "R2", "R3"),
    PAULI_BASIS: ("I", "X", "Y", "Z"),
}


@dataclass
class WindowTable:
    """Per-window data with standard errors, keyed by window start and word.

    ``values[start]`` is a ``(k,)*window`` tensor over the per-site letters
    of ``basis``: k = 6 moment letters, or k = 4 Z-shifted or Pauli letters.
    Missing rows are NaN; ``ses`` holds matching standard errors.  ``meta``
    keeps the provenance of the basis changes, ``shots`` the dataset's count.
    """

    n_sites: int
    window: int
    basis: str
    values: dict[int, np.ndarray] = field(repr=False)
    ses: dict[int, np.ndarray] = field(repr=False)
    meta: dict = field(default_factory=dict)
    shots: int = 0

    def __post_init__(self):
        if self.basis not in _BASIS_LETTERS:
            raise ValidationError(f"unknown basis tag {self.basis!r}")

    @property
    def starts(self) -> list[int]:
        return sorted(self.values)

    def word_names(self):
        return _BASIS_LETTERS[self.basis]

    def missing_rows(self):
        words = word_strings(self.word_names(), self.window)
        return [
            (s, w) for s in self.starts for w in words[~np.isfinite(self.values[s])].tolist()
        ]

    def require_complete(self):
        missing = self.missing_rows()
        if missing:
            kind = "moment" if self.basis == MOMENT_BASIS else self.basis
            raise CompletenessError(
                f"{kind} table is missing {len(missing)} rows "
                f"(first: start={missing[0][0]} word={missing[0][1]})",
                missing=missing,
            )

    def marginal(self, first: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and SEs at sites ``first .. first+length-1``.

        The only rule for which measured window supplies a marginal: the one
        that starts at ``first``, else the last window; its other sites are
        set to letter 0, the identity.  Returns ``(k,)*length`` views into
        the table.
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


def _lossy_correlations(mpo: Mpo, window: int, eta: float) -> dict[int, np.ndarray]:
    """Pauli correlations of every window after a per-site loss of ``1 - eta``."""
    eta = check_efficiency(eta)
    lossy = apply_local_channels(mpo, [measurement_loss(eta)] * mpo.n_qubits)
    return lossy.window_correlations(window)


def synthesize_dataset(
    mpo: Mpo, window: int, eta: float, shots: int, seed: int
) -> WindowTable:
    """Exact moments perturbed by shot noise with the matching standard errors.

    Every row receives independent zero-mean Gaussian noise of variance
    ``Var[O] / shots``, with ``Var[O]`` the single-shot variance from the
    first and second moments; the reported standard error is the square root
    of the same quantity.  Row ``i`` (windows in order, words in C order)
    draws the first normal of a counter-based generator keyed by
    ``(seed, i)``, so the table is reproducible row by row.
    """
    if shots < 100:
        raise ValidationError(f"shots must be >= 100, got {shots}")
    corrs = _lossy_correlations(mpo, window, eta)
    # one generator re-keyed per row draws what a fresh Philox(key=[seed, i])
    # would: the state setter resets the counter and empties the buffer
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    noise = np.empty(len(corrs) * 6**window)
    for row in range(noise.size):
        key[1] = row
        bitgen.state = state
        noise[row] = gen.standard_normal()
    noise = noise.reshape(len(corrs), *(6,) * window)
    values = {}
    ses = {}
    for i, (start, c) in enumerate(sorted(corrs.items())):
        first = apply_site_maps(c, [_T1.T] * window)
        second = apply_site_maps(c, [_T2.T] * window)
        se = np.sqrt(np.clip(second - first**2, 0.0, None) / shots)
        values[start] = first + noise[i] * se
        ses[start] = se
    return WindowTable(mpo.n_qubits, window, MOMENT_BASIS, values, ses, shots=shots)


_CSV_HEADER = ["window_start", "basis_word", "value", "se", "shots"]


def load_moment_csv(paths, n_sites: int, window: int) -> WindowTable:
    """Merge a list of moment CSV files into a single table.

    Each file is read column-wise; its rows may come in any order and in
    any file.  ``shots`` is the largest count in the files.

    Raises:
        ValidationError: naming the file and line of a wrong header, a
            non-numeric, missing or extra field, a row whose word or window
            start does not fit the table, whose value or SE is not finite or
            whose SE or shots count is negative, or that repeats the window
            start and word of an earlier one (and naming that one).
    """
    # a word one character too long cannot be truncated into a valid one
    dtype = [("start", np.int64), ("word", f"U{2 * window + 1}"), ("value", float),
             ("se", float), ("shots", np.int64)]
    words = word_strings(QUAD_LETTERS, window).ravel()
    order = np.argsort(words)
    known = words[order]
    n_starts = n_sites - window + 1

    def parse(lines):
        if not lines:  # np.loadtxt would warn
            return np.empty(0, dtype)
        return np.loadtxt(lines, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)

    def locate(rows):
        """Flat word index of each row, and whether the row fits the table:
        a known word and window start, a finite value and SE, SE ≥ 0, shots ≥ 0."""
        pos = np.minimum(np.searchsorted(known, rows["word"]), known.size - 1)
        starts, se, shots = rows["start"], rows["se"], rows["shots"]
        fits = (known[pos] == rows["word"]) & (starts >= 1) & (starts <= n_starts) & (shots >= 0)
        return order[pos], fits & np.isfinite(rows["value"]) & np.isfinite(se) & (se >= 0)

    def reject(path, lines):
        # the error path only: find the first bad line by parsing one at a time
        for line_num, line in enumerate(lines, start=2):
            try:
                row = parse([line] if line.strip() else [])
                good = row.size == 1 and locate(row)[1][0]
            except ValueError:
                good = False
            if not good:
                raise ValidationError(
                    f"{path}, line {line_num}: row {line.rstrip()!r} is malformed, "
                    "has a non-finite value or SE or a negative SE or shots count, "
                    f"or does not fit an N={n_sites}, L={window} table"
                )
        raise ValidationError(f"{path}: malformed rows")

    def reject_repeat():
        # the error path only: name the first row whose window start and word
        # an earlier row, in the same file or another, already has
        seen = {}
        for path in paths:
            with open(path) as fh:
                lines = fh.readlines()[1:]
            for line_num, (line, row) in enumerate(zip(lines, parse(lines)), start=2):
                key = row["start"], row["word"]
                if key in seen:
                    raise ValidationError(
                        f"{path}, line {line_num}: row {line.rstrip()!r} repeats the "
                        f"window start and word of {seen[key]}"
                    )
                seen[key] = f"{path}, line {line_num}"
        raise ValidationError("repeated rows")

    values = np.full((n_starts, *(6,) * window), np.nan)
    ses = np.full_like(values, np.nan)
    filled = np.zeros((n_starts, 6**window), dtype=bool)
    n_rows = shots = 0
    for path in paths:
        with open(path) as fh:
            header = fh.readline()
            lines = fh.readlines()
        if header.rstrip("\n") != ",".join(_CSV_HEADER):
            raise ValidationError(f"{path}: header is not {','.join(_CSV_HEADER)}")
        try:
            rows = parse(lines)
        except ValueError:
            reject(path, lines)
        flat, fits = locate(rows)
        # a blank line is skipped by the parser but is a malformed row
        if rows.size != len(lines) or not fits.all():
            reject(path, lines)
        index = rows["start"] - 1, flat
        values.reshape(n_starts, -1)[index] = rows["value"]
        ses.reshape(n_starts, -1)[index] = rows["se"]
        filled[index] = True
        n_rows += rows.size
        shots = max(shots, int(rows["shots"].max(initial=0)))
    if np.count_nonzero(filled) != n_rows:
        reject_repeat()
    values, ses = dict(enumerate(values, 1)), dict(enumerate(ses, 1))
    return WindowTable(n_sites, window, MOMENT_BASIS, values, ses, shots=shots)


# --- dataset layout: one CSV per measurement setting -------------------------

_SETTING_LETTERS = {"q": (0, 2, 4), "p": (1, 3, 5)}  # (Q0, Q1, Q2), (P0, P1, P2)


def save_dataset(table: WindowTable, directory) -> None:
    """Write ``table`` as one ``setting_<label>.csv`` file per setting.

    A setting fixes q or p for each qubit position modulo the window, so
    there are 2**window of them and each (start, word) row lies in exactly
    one.  In window ``start``, position j takes the q or p letters of
    ``label[(start - 1 + j) % window]``: the setting's rows are the
    ``np.ix_`` slice of the moment tensor on those letters, in C order.
    """
    if table.basis != MOMENT_BASIS:
        raise ValidationError(f"a dataset holds moments, got a {table.basis} table")
    os.makedirs(directory, exist_ok=True)
    window = table.window
    starts = table.starts
    words = word_strings(QUAD_LETTERS, window)
    for label in word_strings("qp", window).ravel():
        slices = [
            np.ix_(*(_SETTING_LETTERS[label[(s - 1 + j) % window]] for j in range(window)))
            for s in starts
        ]
        columns = [
            np.repeat(starts, 3**window),
            np.concatenate([words[i].ravel() for i in slices]),
            np.concatenate([table.values[s][i].ravel() for s, i in zip(starts, slices)]),
            np.concatenate([table.ses[s][i].ravel() for s, i in zip(starts, slices)]),
            [table.shots] * (len(starts) * 3**window),
        ]
        write_csv(os.path.join(directory, f"setting_{label}.csv"), _CSV_HEADER, columns)


def load_dataset(directory, n_sites: int, window: int) -> WindowTable:
    """Merge every setting file under ``directory`` into one table.

    Raises:
        CompletenessError: no setting file, or a missing row.
        ValidationError: a malformed file (see :func:`load_moment_csv`).
    """
    paths = sorted(glob.glob(os.path.join(directory, "setting_*.csv")))
    if not paths:
        raise CompletenessError(f"no dataset files under {directory}")
    table = load_moment_csv(paths, n_sites, window)
    table.require_complete()
    return table
