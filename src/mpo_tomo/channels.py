"""Single-qubit error channels as 4x4 process matrices on Pauli coefficients.

A process matrix ``E`` maps the coefficient vector ``(rho_0, rho_1, rho_2,
rho_3)`` of ``rho = (rho_0 I + rho_1 X + rho_2 Y + rho_3 Z) / 2``; trace
preservation pins its first row to ``[1, 0, 0, 0]``.
"""

from __future__ import annotations

import numpy as np

from ._validation import check_probability

IDENTITY = np.eye(4)


def amplitude_damping(eps_ad: float) -> np.ndarray:
    """Photon-loss channel with excitation-loss probability ``eps_ad``."""
    e = check_probability(eps_ad, "eps_ad")
    s = np.sqrt(1.0 - e)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, s, 0.0, 0.0],
            [0.0, 0.0, s, 0.0],
            [e, 0.0, 0.0, 1.0 - e],
        ]
    )


def pure_dephasing(eps_pd: float) -> np.ndarray:
    """Dephasing channel; equivalent to a phase flip with probability eps_pd/2."""
    e = check_probability(eps_pd, "eps_pd")
    return np.diag([1.0, 1.0 - e, 1.0 - e, 1.0])


def z_rotation(theta: float) -> np.ndarray:
    """Rotation about Z by ``theta``: mixes the X and Y coefficients."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def measurement_loss(eta: float) -> np.ndarray:
    """Loss channel equivalent to measuring with efficiency ``eta``."""
    return amplitude_damping(1.0 - eta)


def compose(*channels) -> np.ndarray:
    """Process matrix of channels applied left-to-last: compose(E2, E1) = E2 E1."""
    out = IDENTITY
    for e in channels:
        out = out @ np.asarray(e, dtype=float)
    return out
