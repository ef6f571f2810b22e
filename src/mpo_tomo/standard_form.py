"""The standard-form gauge of an MPO and its free-parameter bookkeeping.

One template (:func:`_template`) pins the standard form's entries; the fit
parameters are exactly the unpinned ("starred") ones, in the order that
:func:`free_entries` gives.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .mpo import Mpo, pad_bond

_TRACE_TOL = 1e-14  # smallest trace, and pivot, that standard form divides by


def _template(shapes):
    """Per site, the mask of the free standard-form entries and the value of
    every pinned entry (0 at the free ones).

    Pinned: site N's Pauli column, the unit (0, 0) and sub-diagonal zeros of
    the identity slices of sites 1..N-1, and the rest of row 0 of those of
    sites 1..N-2, so that each of those rows is e0ᵀ (site N-1 keeps its
    row 0 free, as site N is fully pinned).  Every product of identity
    slices from the chain's left end is then exactly e0ᵀ.
    """
    out = []
    for k, (dl, _, dr) in enumerate(shapes):
        mask = np.zeros((dl, 4, dr), dtype=bool)
        values = np.zeros((dl, 4, dr))
        if k < len(shapes) - 1:
            mask[:, 1:, :] = True
            mask[:, 0, :] = np.triu(np.ones((dl, dr), dtype=bool))
            mask[0, 0, 0] = False
            if k < len(shapes) - 2:
                mask[0, 0, :] = False  # row 0 of the identity slice is e0ᵀ
            values[0, 0, 0] = 1.0
        else:
            values[:, :, 0] = np.eye(dl, 4)  # the Pauli column [I, X, Y, Z]^T
        out.append((mask, values))
    return out


def free_masks(mpo: Mpo) -> list[np.ndarray]:
    """Boolean mask per site tensor marking the free standard-form entries."""
    return [mask for mask, _ in _template([t.shape for t in mpo.tensors])]


def is_standard_form(mpo: Mpo) -> bool:
    """Whether every pinned entry is within 1e-9 of its standard-form value."""
    if mpo.tensors[-1].shape != (4, 4, 1):
        return False
    template = _template([t.shape for t in mpo.tensors])
    return all(
        np.all(np.abs(t - values)[~mask] <= 1e-9)
        for t, (mask, values) in zip(mpo.tensors, template)
    )


def _signed_qr(a: np.ndarray):
    """Complete QR with the R diagonal forced nonnegative (deterministic)."""
    q, r = np.linalg.qr(a, mode="complete")
    m = min(a.shape)
    signs = np.sign(np.diag(r)[:m])
    signs[signs == 0] = 1.0
    q = q.copy()
    r = r.copy()
    q[:, :m] *= signs
    r[:m, :] *= signs[:, None]
    return q, r


def to_standard_form(mpo: Mpo) -> Mpo:
    """Gauge-fix an MPO into the unit-trace standard form.

    The result has site N pinned to the Pauli column ``[I, X, Y, Z]^T``,
    upper-triangular identity slices with unit (0, 0) entries at sites
    1..N-1, and row 0 of the identity slice e0ᵀ at sites 1..N-2 (see
    :func:`_template`); the represented operator is unchanged up to overall
    normalization to trace 1.  The gauge left is one upper-triangular
    matrix with row 0 e0ᵀ per bond but the last: 6(N-2) parameters for an
    all-bond-4 chain.
    """
    tr = mpo.trace()
    if abs(tr) < _TRACE_TOL:
        raise ValidationError("cannot normalize an MPO with (near-)zero trace")
    n = mpo.n_qubits
    if n < 2:
        raise ValidationError("standard form needs at least 2 sites")
    ts = [np.array(t) for t in mpo.tensors]

    # Pin the last site to [I, X, Y, Z]^T by absorbing it into site N-1.
    last = ts[-1][:, :, 0]  # (D, 4); column b is A_N^(b)
    ts[-2] = np.einsum("diy,yb->dib", ts[-2], last)
    ts[-1] = np.eye(4).reshape(4, 4, 1)

    if ts[-2].shape[0] < 4 and n >= 3:
        padded = pad_bond(Mpo(ts), n - 2, 4)
        ts = [np.array(t) for t in padded.tensors]

    # Triangularize identity slices from the right.
    for k in range(n - 2, 0, -1):
        q, r = _signed_qr(ts[k][:, 0, :])
        ts[k - 1] = np.einsum("dix,xy->diy", ts[k - 1], q)
        ts[k] = np.einsum("xy,yiz->xiz", q.T, ts[k])

    # Rescale so every pinned (0, 0) identity entry is 1; this also absorbs
    # any overall trace factor.
    for k in range(n - 1):
        pivot = ts[k][0, 0, 0]
        if abs(pivot) < _TRACE_TOL:
            raise ValidationError(
                f"standard-form pivot vanished at site {k + 1}; input is degenerate"
            )
        ts[k] = ts[k] / pivot
    # One shear per bond zeroes row 0 of the identity slices of sites
    # 1..N-2 past its unit: g = I - e0 rᵀ is unit upper-triangular, so the
    # slices stay triangular with unit pivots.
    for k in range(n - 2):
        g = np.eye(ts[k].shape[2])
        g_inv = g.copy()
        g[0, 1:] = -ts[k][0, 0, 1:]
        g_inv[0, 1:] = ts[k][0, 0, 1:]
        ts[k] = np.einsum("dix,xy->diy", ts[k], g)
        ts[k + 1] = np.einsum("xy,yiz->xiz", g_inv, ts[k + 1])
    # write the pinned values exactly (QR leaves ~1e-17 in the zeros)
    for t, (mask, values) in zip(ts, _template([t.shape for t in ts])):
        np.copyto(t, values, where=~mask)
    return Mpo(ts)


# names the pinned set too, so a bundle of another standard form is refused by its header
PARAMETER_ORDERING = (
    "site-major, then Pauli index, then row, then column over starred entries;"
    " identity-slice row 0 pinned to e0 at sites 1..N-2"
)


def free_entries(masks) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per site, the (pauli, row, column) indices of its free entries in
    packing order (see ``PARAMETER_ORDERING``)."""
    return [np.nonzero(m.transpose(1, 0, 2)) for m in masks]


def n_free_parameters(masks) -> int:
    return int(sum(m.sum() for m in masks))


def pack(site_arrays, masks) -> np.ndarray:
    """Extract the free entries of per-site arrays into one parameter vector."""
    if len(site_arrays) != len(masks):
        raise ValidationError("site count mismatch between arrays and masks")
    parts = []
    for arr, mask, (i, x, y) in zip(site_arrays, masks, free_entries(masks)):
        arr = np.asarray(arr)
        if arr.shape != mask.shape:
            raise ValidationError(
                f"gradient shape {arr.shape} does not match mask {mask.shape}"
            )
        parts.append(arr[x, i, y])
    return np.concatenate(parts) if parts else np.zeros(0)


def unpack(theta: np.ndarray, template: Mpo, masks) -> Mpo:
    """Rebuild an MPO from a parameter vector, keeping pinned entries."""
    theta = np.asarray(theta, dtype=float)
    out = []
    pos = 0
    for t, (i, x, y) in zip(template.tensors, free_entries(masks)):
        t = np.array(t)
        t[x, i, y] = theta[pos : pos + len(i)]
        pos += len(i)
        out.append(t)
    if pos != theta.size:
        raise ValidationError(
            f"parameter vector length {theta.size} does not match masks ({pos})"
        )
    return Mpo(out)
