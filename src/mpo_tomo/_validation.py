"""Small input-validation helpers used across the public API."""

from __future__ import annotations

import sys

import numpy as np

from .errors import ValidationError


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """A JSON number within float range: no bool, NaN, infinity or too large an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def check_real_array(a, name: str, shape=None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    if shape is not None and a.shape != tuple(shape):
        raise ValidationError(f"{name} must have shape {tuple(shape)}, got {a.shape}")
    return a


def check_probability(x, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {x}")
    return x


def check_efficiency(eta) -> float:
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    return eta


def check_positive_int(x, name: str, minimum: int = 1) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if x < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {x}")
    return x


def check_process_matrix(e, dim: int = 4) -> np.ndarray:
    """A process matrix acts on coefficient vectors; trace preservation pins row 0."""
    e = check_real_array(e, "process matrix", (dim, dim))
    row0 = np.zeros(dim)
    row0[0] = 1.0
    if not np.allclose(e[0], row0, atol=1e-10):
        raise ValidationError(
            "process matrix is not trace preserving (first row must be [1, 0, ...])"
        )
    return e
