"""Pauli-basis constants and per-site basis maps.

Sites are numbered 1..N in all public interfaces; Pauli letters are encoded
as integers 0=I, 1=X, 2=Y, 3=Z throughout the package, and a Pauli word is
a full-chain tuple of letters.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

#: Stack of the four Pauli matrices, indexed by letter.
PAULIS = np.stack([I2, X2, Y2, Z2])


def apply_site_maps(tensor: np.ndarray, mats) -> np.ndarray:
    """Apply one linear map per axis: ``mats[k]`` (shape ``(out, in)``) to axis k.

    The workhorse of every per-site basis change of a window tensor (moment
    tables, the Z-shifted/Pauli conversion, loss inversion, phase rotation);
    squared maps applied to variances propagate independent errors.
    """
    for mat in mats:
        # contract the leading axis; its image is appended last, so after
        # one map per axis the site order is restored
        tensor = np.tensordot(tensor, mat, axes=([0], [1]))
    return tensor
