"""MPO reconstruction from local correlations: rank analysis and inversion.

Every matrix here is a marginal of the measured correlations cut into row
sites | an optional open site | column sites.  From L-qubit windows the
inversion takes r = (L-1)//2 column sites and l = L-1-r row sites: site s
solves ``B(s-l..s-1 | s..s+r-1) A_s = C(s-l..s-1 | s | s+1..s+r)`` (fewer
column sites at the right edge), and site 2 is read directly as
``C(1 | 2 | 3..2+r)``.  For L = 5 the four-qubit matrix ``B_s`` (rows
``4a+b`` over sites s, s+1, columns ``4c+d`` over sites s+2, s+3)
factorizes through the bond between sites s+1 and s+2, so its rank equals
the bond dimension required there; the same singular value decompositions
compress the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlations import PAULI_BASIS, PauliCorrelationSet
from .errors import DataError, ValidationError
from .mpo import Mpo

_SE_FLOOR_REL = 1e-11  # absolute floor on singular-value SEs, relative to sigma_max
_SIGMA_CHECK = 5.0  # standard errors a correlation may exceed 1 by before it is unphysical


@dataclass
class CorrMatrices:
    """Four-qubit correlation matrices for bond analysis and compression.

    Attributes:
        b: per window start s (1..N-3), the 16x16 four-qubit matrix B_s.
        b_se: the standard errors of its entries.
    """

    b: dict[int, np.ndarray] = field(repr=False)
    b_se: dict[int, np.ndarray] = field(repr=False)


def _split(L: int) -> tuple[int, int]:
    """(l, r): the row and column sites of the inversion from L-qubit windows."""
    r = (L - 1) // 2
    return L - 1 - r, r


def _corr_matrix(corrs, first: int, rows: int, cols: int, open_site: bool = True):
    """Marginal at sites ``first ..`` cut into a matrix, and its SEs.

    Rows run over the first ``rows`` sites and columns over the last
    ``cols``.  With ``open_site`` the site between them stays a leading Pauli
    axis, giving ``C(rows | open | cols)`` of shape (4, 4**rows, 4**cols);
    without, ``B(rows | cols)`` of shape (4**rows, 4**cols).
    """
    v, se = corrs.marginal(first, rows + int(open_site) + cols)

    def cut(t):
        if not open_site:
            return t.reshape(4**rows, 4**cols)
        # contiguous, so every Pauli slice reaches BLAS in the same layout
        return np.ascontiguousarray(t.reshape(4**rows, 4, 4**cols).transpose(1, 0, 2))

    return cut(v), cut(se)


def build_corr_matrices(corrs: PauliCorrelationSet) -> CorrMatrices:
    """Assemble the B_s and their SEs from five-qubit correlations.

    Four-qubit entries are obtained from the five-qubit windows by identity
    marginalization.  Values outside [-1, 1] beyond ``_SIGMA_CHECK`` standard
    errors raise a :class:`DataError`.
    """
    if corrs.basis != PAULI_BASIS:
        raise ValidationError("correlation matrices require the pauli basis")
    if corrs.window != 5:
        raise ValidationError(f"need 5-qubit windows, got L={corrs.window}")
    n = corrs.n_sites
    if n < 5:
        raise ValidationError("need at least 5 sites")
    for start in corrs.starts:
        v = corrs.values[start]
        se = corrs.ses[start]
        if np.any(np.abs(v) > 1.0 + _SIGMA_CHECK * se + 1e-9):
            raise DataError(
                f"correlations at window {start} exceed 1 beyond "
                f"{_SIGMA_CHECK} sigma"
            )
    ell, r = _split(corrs.window)
    b, b_se = {}, {}
    for s in range(1, n - ell - r + 2):
        b[s], b_se[s] = _corr_matrix(corrs, s, ell, r, open_site=False)
        if abs(b[s][0, 0] - 1.0) > max(0.3, 5 * b_se[s][0, 0]):
            raise DataError(f"B_{s}[0, 0] should be 1 after normalization")
    return CorrMatrices(b, b_se)


def singular_value_ses(mat: np.ndarray, mat_se: np.ndarray):
    """Singular values of a measured matrix and their propagated SEs.

    Uses ``d sigma_n / d B_ij = U_in V_jn`` with the full SVD.
    """
    u, s, vt = np.linalg.svd(mat)
    var = np.einsum("in,ij,jn->n", u**2, np.asarray(mat_se) ** 2, (vt.T) ** 2)
    return s, np.sqrt(var)


@dataclass
class BondEstimate:
    """Estimated bond dimension per analyzed bond.

    ``dims[s]`` is the bond between sites s+1 and s+2, for s = 1..N-3.
    """

    dims: dict[int, int]
    singular_values: dict[int, np.ndarray]
    singular_value_ses: dict[int, np.ndarray]


def estimate_bond_dims(cm: CorrMatrices, k_sigma: float = 5.0) -> BondEstimate:
    """Count singular values of each B_s significantly above their SEs."""
    dims, svs, ses = {}, {}, {}
    for s, mat in cm.b.items():
        sv, sv_se = singular_value_ses(mat, cm.b_se[s])
        floor = _SE_FLOOR_REL * max(sv[0], 1e-300)
        dims[s] = int(np.sum(sv > np.maximum(k_sigma * sv_se, floor)))
        svs[s] = sv
        ses[s] = sv_se
    return BondEstimate(dims, svs, ses)


def _truncated_pinv(mat: np.ndarray, rank: int | None):
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if rank is None:
        rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
    rank = max(1, min(rank, len(s)))
    return (vt[:rank].T / s[:rank]) @ u[:, :rank].T


@dataclass
class InversionResult:
    """Outcome of the explicit inversion; a failed solve is data, not a crash.

    Attributes:
        mpo: the reconstructed chain, or None when some site's residual or
            the worst deviation of the rebuilt windows from the input
            correlations exceeds the tolerance.  A bond dimension beyond the
            window's capacity leaves every local equation solvable, so the
            rebuilt windows are the signal that catches it.
        site_residuals: Frobenius residual ``|B A - C|`` per solved site.
        column_residuals: per site, a (4, n_cols) array of per-Pauli-slice,
            per-column least-squares residual norms.
    """

    mpo: Mpo | None
    site_residuals: dict[int, float]
    column_residuals: dict[int, np.ndarray]


def _boundary_site(first: bool) -> np.ndarray:
    t = np.eye(4)
    return t.reshape(1, 4, 4) if first else t.reshape(4, 4, 1)


def invert_reconstruct(
    corrs: PauliCorrelationSet,
    L: int = 5,
    ranks: dict[int, int] | None = None,
    residual_tol: float = 1e-6,
) -> InversionResult:
    """Reconstruct an MPO from L-qubit local correlations by pseudoinversion.

    Boundary sites are pinned to the Pauli row/column and site 2 is read
    directly from the data; sites s = 3..N-1 solve ``B A = C`` (see the
    module docstring for the one row/column rule) in least squares via a
    Moore-Penrose pseudoinverse whose truncation is either a relative cut of 1e-10 (exact
    data) or the externally estimated per-bond ranks (measured data).

    Args:
        corrs: pauli-basis correlations with window length >= L.
        L: 3, 4 or 5 consecutive qubits used by the inversion.
        ranks: optional pseudoinverse rank per B-matrix index (its first
            row site).
        residual_tol: per-site Frobenius residual, and deviation of the
            rebuilt windows, above which no MPO is returned; ``inf`` skips
            the rebuild.
    """
    if corrs.basis != PAULI_BASIS:
        raise ValidationError("inversion requires the pauli basis")
    if L not in (3, 4, 5):
        raise ValidationError(f"L must be 3, 4 or 5, got {L}")
    if corrs.window < min(L, corrs.n_sites):
        raise ValidationError(f"window {corrs.window} too short for L={L}")
    n = corrs.n_sites
    ell, r = _split(L)
    ranks = ranks or {}
    sites: list[np.ndarray | None] = [None] * n
    sites[0] = _boundary_site(True)
    sites[-1] = _boundary_site(False)
    sites[1] = _corr_matrix(corrs, 1, 1, r)[0].transpose(1, 0, 2)
    site_res: dict[int, float] = {}
    col_res: dict[int, np.ndarray] = {}
    for s in range(3, n):
        first = s - ell
        bmat = _corr_matrix(corrs, first, ell, r, open_site=False)[0]
        cstack = _corr_matrix(corrs, first, ell, min(r, n - s))[0]
        pinv = _truncated_pinv(bmat, ranks.get(first))
        slices = np.stack([pinv @ cstack[i] for i in range(4)])
        resid = np.stack([bmat @ slices[i] - cstack[i] for i in range(4)])
        col_res[s] = np.linalg.norm(resid, axis=1)
        site_res[s] = float(np.linalg.norm(resid))
        sites[s - 1] = np.transpose(slices, (1, 0, 2))

    if any(res > residual_tol for res in site_res.values()):
        return InversionResult(None, site_res, col_res)
    candidate = Mpo(sites)
    if np.isfinite(residual_tol):
        # every local equation can be solvable and the chain still wrong (a
        # bond dimension beyond the window capacity); verify globally
        rebuilt = candidate.window_correlations(corrs.window)
        if any(np.max(np.abs(rebuilt[s] - corrs.values[s])) > residual_tol for s in corrs.starts):
            return InversionResult(None, site_res, col_res)
    return InversionResult(candidate, site_res, col_res)


def compress(mpo: Mpo, cm: CorrMatrices, targets: dict[int, int]) -> Mpo:
    """Compress the bonds of an inversion-output MPO via SVDs of the B_s.

    For each bond s (between sites s+1 and s+2) the first ``target`` right
    singular vectors V of ``B_s ~ U S V*`` project the bond: site s+1 becomes
    site s+1 · V and site s+2 becomes V* · site s+2.  The inversion solved
    site s+2 as the pseudo-inverse solution ``B_s^+ C_s``, which already lies
    in the span of those vectors when the target is the rank it inverted
    with, so the projection keeps it and is exact when that rank is
    rank(B_s); a smaller target keeps the leading singular directions.  The
    input must be the (uncompressed) inversion output aligned with ``cm``.
    """
    ts = [np.array(t) for t in mpo.tensors]
    for s in range(1, mpo.n_qubits - 2):
        target = targets.get(s)
        if target is None:
            continue
        if target < 1:
            raise ValidationError(f"no singular value of B_{s} passed the bond test at bond {s}")
        if target > ts[s].shape[2]:
            raise ValidationError(
                f"target {target} exceeds bond {ts[s].shape[2]} at bond {s}"
            )
        _, sv, vt = np.linalg.svd(cm.b[s])
        if sv[target - 1] <= 1e-14 * max(sv[0], 1e-300):
            raise ValidationError(
                f"singular value {target} of B_{s} vanishes; cannot compress"
            )
        v = vt[:target].T
        ts[s] = np.einsum("dix,xr->dir", ts[s], v)
        ts[s + 1] = np.einsum("xr,xiy->riy", v, ts[s + 1])
    return Mpo(ts)
