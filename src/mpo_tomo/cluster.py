"""Ideal and noise-modelled linear cluster states and stabilizer bounds.

A linear cluster state is the graph state of the line graph: qubits prepared
in ``|+>`` entangled by controlled-Z gates between neighbours.  It is
stabilized by ``X_1 Z_2``, ``Z_{s-1} X_s Z_{s+1}`` and ``Z_{N-1} X_N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv, write_json
from ._validation import check_positive_int
from .channels import amplitude_damping, compose, pure_dephasing
from .errors import DataError, ValidationError
from .mpo import Mpo, apply_local_channels


def ideal_cluster_mpo(n: int) -> Mpo:
    """Bond-dimension-4 MPO of the ideal linear cluster state (n >= 3)."""
    check_positive_int(n, "n", minimum=3)
    first = np.zeros((1, 4, 4))
    first[0, 0, 0] = 1.0  # I
    first[0, 1, 1] = 1.0  # X
    first[0, 2, 2] = -1.0  # -Y
    first[0, 3, 3] = 1.0  # Z
    # interior operator-valued matrix:
    #   [I  0   0  Z]
    #   [Z  0   0  I]
    #   [0 -Y  -X  0]
    #   [0  X  -Y  0]
    interior = np.zeros((4, 4, 4))
    interior[0, 0, 0] = 1.0
    interior[0, 3, 3] = 1.0
    interior[1, 3, 0] = 1.0
    interior[1, 0, 3] = 1.0
    interior[2, 2, 1] = -1.0
    interior[2, 1, 2] = -1.0
    interior[3, 1, 1] = 1.0
    interior[3, 2, 2] = -1.0
    last = np.zeros((4, 4, 1))
    last[0, 0, 0] = 1.0  # I
    last[1, 3, 0] = 1.0  # Z
    last[2, 2, 0] = -1.0  # -Y
    last[3, 1, 0] = 1.0  # X
    return Mpo([first] + [interior] * (n - 2) + [last])


def stabilizer_words(n: int) -> list[tuple[int, ...]]:
    """The N stabilizer generators S_1 .. S_N of the linear cluster state, as
    full-chain letter tuples: X at site s, Z at its neighbours."""
    check_positive_int(n, "n", minimum=2)
    return [tuple(1 if t == s else 3 if abs(t - s) == 1 else 0 for t in range(n)) for s in range(n)]


@dataclass(frozen=True)
class ErrorModel:
    """Per-site photon-loss and dephasing probabilities.

    ``eps_pd`` is the dephasing amplitude; the equivalent phase-flip
    probability is ``eps_pd / 2``.
    """

    eps_ad: np.ndarray
    eps_pd: np.ndarray

    def __post_init__(self):
        ad = np.atleast_1d(np.asarray(self.eps_ad, dtype=float))
        pd = np.atleast_1d(np.asarray(self.eps_pd, dtype=float))
        if ad.shape != pd.shape:
            raise ValidationError("eps_ad and eps_pd must have equal lengths")
        if np.any((ad < 0) | (ad > 1)) or np.any((pd < 0) | (pd > 1)):
            raise ValidationError("error probabilities must lie in [0, 1]")
        object.__setattr__(self, "eps_ad", ad)
        object.__setattr__(self, "eps_pd", pd)

    @classmethod
    def uniform(cls, n: int, eps_ad: float, eps_pd: float) -> "ErrorModel":
        return cls(np.full(n, eps_ad), np.full(n, eps_pd))

    @property
    def n_sites(self) -> int:
        return len(self.eps_ad)

    def stabilizers(self) -> np.ndarray:
        """Stabilizer expectations of the noisy cluster, in closed form.

        Dephasing scales the X (and Y) coefficients by ``1 - eps_pd``, loss
        scales them by ``sqrt(1 - eps_ad)`` and maps Z to
        ``eps_ad I + (1 - eps_ad) Z``; every non-stabilizer word of the ideal
        cluster has expectation 0, so
        ``<S_s> = sqrt(1 - eps_ad,s) (1 - eps_pd,s) prod_{t = s +- 1} (1 - eps_ad,t)``
        over the neighbours ``t`` inside the chain.  Equals the expectations
        of :func:`stabilizer_words` on ``noisy_cluster_model(n, self)``.
        """
        keep = 1.0 - self.eps_ad
        z = np.pad(keep, 1, constant_values=1.0)
        return np.sqrt(keep) * (1.0 - self.eps_pd) * z[:-2] * z[2:]

    def channels(self) -> list[np.ndarray]:
        """Per-site process matrices, dephasing applied after loss."""
        return [
            compose(pure_dephasing(pd), amplitude_damping(ad))
            for ad, pd in zip(self.eps_ad, self.eps_pd)
        ]

    def to_json(self, path) -> None:
        write_json(path, {"eps_ad": self.eps_ad.tolist(), "eps_pd": self.eps_pd.tolist()})


def noisy_cluster_model(n: int, model: ErrorModel) -> Mpo:
    """Ideal cluster MPO with per-site loss and dephasing channels applied."""
    if model.n_sites != n:
        raise ValidationError(
            f"error model covers {model.n_sites} sites, chain has {n}"
        )
    return apply_local_channels(ideal_cluster_mpo(n), model.channels())


def stabilizer_fidelity_bound(stab_values, ses=None) -> float:
    """Fidelity lower bound from the N stabilizer expectation values.

    Computes ``prod_odd (1+<S>)/2 + prod_even (1+<S>)/2 - 1``; the result may
    be negative, in which case it carries no information.
    """
    v = np.asarray(stab_values, dtype=float)
    se = np.zeros_like(v) if ses is None else np.asarray(ses, dtype=float)
    if np.any(np.abs(v) > 1.0 + 3.0 * se):
        raise DataError("stabilizer values outside [-1, 1] beyond 3 sigma")
    odd = np.prod((1.0 + v[0::2]) / 2.0)
    even = np.prod((1.0 + v[1::2]) / 2.0)
    return float(odd + even - 1.0)


def fit_error_model(
    mean_exc,
    mean_exc_se,
    stab_values,
    stab_se,
    uniform: bool = True,
) -> ErrorModel:
    """Fit loss and dephasing probabilities to summary statistics.

    The fit is nested: mean excitations determine the loss probabilities
    (model ``excitation = (1 - eps_ad) / 2``; they are insensitive to
    dephasing), then the dephasing probabilities are fit to the stabilizer
    expectations with the loss held fixed.  Residuals are weighted by
    reciprocal standard errors.  Both models are linear in the unknown
    (``<S_s> = a_s (1 - eps_pd,s)``, see :meth:`ErrorModel.stabilizers`), so
    each step is a closed-form weighted least-squares solution clipped to
    ``[0, 1]``, the exact bounded minimiser in one variable (per site).

    Args:
        mean_exc, mean_exc_se: per-site mean excitations and standard errors.
        stab_values, stab_se: stabilizer expectations and standard errors.
        uniform: fit a single (eps_ad, eps_pd) pair instead of per-site values.

    Raises:
        DataError: if the fitted loss leaves a stabilizer at zero for every
            dephasing value (a mean excitation <= 0 at or next to the site),
            so that dephasing there cannot be identified; names the sites.
    """
    exc = np.asarray(mean_exc, dtype=float)
    stab = np.asarray(stab_values, dtype=float)
    n = len(exc)
    if n < 3 or len(stab) != n:
        raise ValidationError("need at least 3 sites of excitation and stabilizer data")
    w_exc = 1.0 / np.clip(np.asarray(mean_exc_se, dtype=float), 1e-12, None)
    w_stab = 1.0 / np.clip(np.asarray(stab_se, dtype=float), 1e-12, None)

    ad_point = np.clip(1.0 - 2.0 * exc, 0.0, 1.0)
    if uniform:
        # weighted least squares of a constant
        eps_ad = np.full(n, np.sum(w_exc**2 * ad_point) / np.sum(w_exc**2))
    else:
        eps_ad = ad_point
    # a_s: the stabilizers at zero dephasing; fit x = 1 - eps_pd to a x
    a = ErrorModel(eps_ad, np.zeros(n)).stabilizers()
    blind = np.flatnonzero(a == 0.0) + 1
    if len(blind):
        raise DataError(
            f"dephasing cannot be identified at sites {blind.tolist()}: the fitted "
            "loss removes their stabilizers (mean excitation <= 0 at or next to the site)"
        )
    if uniform:
        x = np.sum(w_stab**2 * a * stab) / np.sum(w_stab**2 * a**2)
    else:
        x = stab / a
    return ErrorModel(eps_ad, np.full(n, 1.0 - np.clip(x, 0.0, 1.0)))


def write_stabilizer_report(path, values, ses, model_values) -> None:
    """CSV report with columns (s, value, se, model_value)."""
    columns = [np.asarray(c, dtype=float) for c in (values, ses, model_values)]
    sites = range(1, len(columns[0]) + 1)
    write_csv(path, ["s", "value", "se", "model_value"], [sites, *columns])
