"""Pauli-basis constants and word utilities.

Sites are numbered 1..N in all public interfaces; Pauli letters are encoded
as integers 0=I, 1=X, 2=Y, 3=Z throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PAULI_LETTERS = "IXYZ"

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

#: Stack of the four Pauli matrices, indexed by letter.
PAULIS = np.stack([I2, X2, Y2, Z2])


@dataclass(frozen=True)
class PauliWord:
    """A contiguous Pauli string placed on a chain.

    Attributes:
        indices: Pauli letters of the word, one per covered site.
        start_site: 1-based site of the first letter.
    """

    indices: tuple[int, ...]
    start_site: int = 1

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if any(i not in (0, 1, 2, 3) for i in self.indices):
            raise ValidationError(f"Pauli letters must be in 0..3, got {self.indices}")
        if self.start_site < 1:
            raise ValidationError(f"start_site must be >= 1, got {self.start_site}")

    def __len__(self):
        return len(self.indices)

    @property
    def end_site(self) -> int:
        return self.start_site + len(self.indices) - 1

    def __str__(self):
        return "".join(PAULI_LETTERS[i] for i in self.indices)

    def padded(self, n_sites: int) -> tuple[int, ...]:
        """Full-chain letter tuple with identities outside the word."""
        if self.end_site > n_sites:
            raise ValidationError(
                f"word covering sites {self.start_site}..{self.end_site} does not "
                f"fit a chain of {n_sites} qubits"
            )
        out = [0] * n_sites
        out[self.start_site - 1 : self.end_site] = self.indices
        return tuple(out)


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
