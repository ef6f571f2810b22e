"""The one CSV cell format and the one JSON format of every artifact the
pipeline writes."""

from __future__ import annotations

import itertools
import json

import numpy as np


def write_csv(path, header, columns) -> None:
    """Write ``header``, then one row per entry of the equally long ``columns``.

    Each cell is ``str`` of the Python value (arrays go through ``tolist``,
    so a float prints as its shortest round-trip repr); rows end in CRLF and
    nothing is quoted.  For the numbers, words and empty cells written here
    that is byte for byte what ``csv.writer`` writes.  All rows go through
    one ``%`` format over the flattened cells.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    cells = tuple(itertools.chain.from_iterable(zip(*columns, strict=True)))
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    n_rows = len(cells) // len(columns) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + row * n_rows % cells)


def write_json(path, doc) -> None:
    """Write ``doc`` as one line of JSON with its keys sorted."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def word_strings(letters, window: int) -> np.ndarray:
    """``(len(letters),) * window`` table of every word's string, in C order."""
    words = ["".join(w) for w in itertools.product(letters, repeat=window)]
    return np.array(words).reshape((len(letters),) * window)
