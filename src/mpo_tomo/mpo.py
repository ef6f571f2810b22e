"""Matrix product operators in the Pauli basis.

An ``Mpo`` stores one real tensor per site with index order
``(bond_left, pauli, bond_right)``; site 1 has ``bond_left = 1`` and site N
has ``bond_right = 1``.  The represented operator is

    rho = 2^-N * sum_w  (A_1^(w1) ... A_N^(wN))  P_w1 x ... x P_wN,

so the chain product of coefficient matrices equals the Pauli-word
expectation value ``<P_w1 ... P_wN>`` of the state.  All entries are real
because Pauli coefficients of a Hermitian operator are real.
"""

from __future__ import annotations

import json

import numpy as np

from ._csvio import write_json
from .errors import ValidationError
from .pauli import PAULIS


def _as_matrix(m: np.ndarray) -> np.ndarray:
    """A site map as a matrix ``(..., D_l, k * D_r)``."""
    return m if m.ndim == 2 else m.reshape(m.shape[:-2] + (-1,))


def left_environments(maps, boundary=None) -> list[np.ndarray]:
    """Left partial products of a chain of site maps, or of a batch of chains.

    A 2-D site map is a ``(D_l, D_r)`` matrix, whose Pauli index is already
    summed.  A map of 3 or more dimensions is ``(..., D_l, k, D_r)``: its
    index of size ``k`` (Pauli or outcome) stays open, and its leading axes
    are batch axes, which broadcast against the boundary's as in
    ``np.matmul``; a map that every chain shares is passed once.

    Args:
        maps: site maps in chain order.
        boundary: ``(..., W, D)`` environment left of the first map; defaults
            to ``ones((1, 1))``.

    Returns:
        ``len(maps) + 1`` environments; entry ``k`` is the boundary times the
        first ``k`` maps, shaped ``(..., W_k, D_k)``.  Its rows run over the
        open indices so far in site order (the leftmost index varies slowest).
    """
    env = np.ones((1, 1)) if boundary is None else boundary
    envs = [env]
    for m in maps:
        env = env @ _as_matrix(m)
        if m.ndim > 2:
            env = env.reshape(env.shape[:-2] + (-1, m.shape[-1]))
        envs.append(env)
    return envs


def left_environments_vjp(maps, lefts, cotangent):
    """The reverse of :func:`left_environments`: the gradients of
    ``sum(cotangent * lefts[-1])`` by every site map and by the boundary.

    ``lefts`` are the environments of the forward sweep over ``maps``.  The
    cotangent is carried leftwards one map at a time, and each map's
    gradient is its left environment times the cotangent carried to it.

    Returns:
        ``(grads, boundary_grad)``, shaped like ``maps`` and ``lefts[0]``,
        each with the cotangent's batch axes: a map or boundary the batch
        shares gets one gradient per chain.
    """
    grads = [None] * len(maps)
    for k, m in reversed(list(enumerate(maps))):
        cotangent = cotangent.reshape(cotangent.shape[:-2] + (lefts[k].shape[-2], -1))
        grads[k] = lefts[k].swapaxes(-1, -2) @ cotangent
        if m.ndim > 2:
            grads[k] = grads[k].reshape(grads[k].shape[:-1] + m.shape[-2:])
        cotangent = cotangent @ _as_matrix(m).swapaxes(-1, -2)
    return grads, cotangent


class Mpo:
    """Immutable chain of real site tensors representing a density operator.

    Args:
        tensors: one array of shape ``(D_left, 4, D_right)`` per site, with
            matching bond dimensions between neighbours and boundary bonds 1.
    """

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        ts = []
        for s, t in enumerate(tensors):
            t = np.array(t, dtype=float)
            if t.ndim != 3 or t.shape[1] != 4:
                raise ValidationError(
                    f"site {s + 1} tensor must have shape (D_left, 4, D_right), "
                    f"got {t.shape}"
                )
            if not np.all(np.isfinite(t)):
                raise ValidationError(f"site {s + 1} tensor has non-finite entries")
            ts.append(t)
        if not ts:
            raise ValidationError("an MPO needs at least 1 site")
        if ts[0].shape[0] != 1 or ts[-1].shape[2] != 1:
            raise ValidationError("boundary bond dimensions must be 1")
        for s in range(len(ts) - 1):
            if ts[s].shape[2] != ts[s + 1].shape[0]:
                raise ValidationError(
                    f"bond mismatch between sites {s + 1} and {s + 2}: "
                    f"{ts[s].shape[2]} vs {ts[s + 1].shape[0]}"
                )
        for t in ts:
            t.flags.writeable = False
        object.__setattr__(self, "tensors", tuple(ts))

    def __setattr__(self, name, value):
        raise AttributeError("Mpo is immutable")

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    @property
    def bonds(self) -> tuple[int, ...]:
        """Bond dimensions between consecutive sites (length N-1)."""
        return tuple(t.shape[2] for t in self.tensors[:-1])

    def trace(self) -> float:
        """Trace of the represented operator (product of identity slices)."""
        return self.correlation((0,) * self.n_qubits)

    def correlation(self, letters) -> float:
        """Expectation value of a Pauli word, given as a full-chain letter tuple."""
        letters = tuple(int(a) for a in letters)
        if len(letters) != self.n_qubits:
            raise ValidationError(
                f"letter tuple of length {len(letters)} does not match "
                f"{self.n_qubits} qubits"
            )
        maps = [t[:, a, :] for t, a in zip(self.tensors, letters)]
        return float(left_environments(maps)[-1][0, 0])

    def window_correlations(self, window: int) -> dict[int, np.ndarray]:
        """All Pauli correlations of every length-``window`` site window.

        Returns:
            dict mapping 1-based window start to a ``(4,)*window`` tensor whose
            ``[a, b, ...]`` entry is ``<P_a_s P_b_{s+1} ...>``.
        """
        n = self.n_qubits
        if not 1 <= window <= n:
            raise ValidationError(f"window must be in 1..{n}, got {window}")
        ident = [t[:, 0, :] for t in self.tensors]
        prefix = left_environments(ident)
        # the right products are the left sweep of the mirrored chain, as rows
        suffix = left_environments([m.T for m in reversed(ident)])[::-1]
        out = {}
        for start in range(1, n - window + 2):
            sites = self.tensors[start - 1 : start - 1 + window]
            block = left_environments(sites, prefix[start - 1])[-1]
            vals = block @ suffix[start - 1 + window].T
            out[start] = vals.reshape((4,) * window)
        return out

    def __eq__(self, other):
        if not isinstance(other, Mpo):
            return NotImplemented
        return len(self.tensors) == len(other.tensors) and all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self.tensors, other.tensors)
        )

    def __repr__(self):
        return f"Mpo(n_qubits={self.n_qubits}, bonds={self.bonds})"


def apply_local_channels(mpo: Mpo, channels) -> Mpo:
    """Apply one single-qubit process matrix per site.

    Each site tensor is contracted along its Pauli axis:
    ``A'^(i) = sum_j E[i, j] A^(j)``.  Bond dimensions are unchanged.
    """
    channels = list(channels)
    if len(channels) != mpo.n_qubits:
        raise ValidationError(
            f"got {len(channels)} channels for {mpo.n_qubits} sites"
        )
    out = []
    for t, e in zip(mpo.tensors, channels):
        e = np.asarray(e, dtype=float)
        if e.shape != (4, 4):
            raise ValidationError(f"channel must be 4x4, got {e.shape}")
        out.append(np.einsum("ij,dja->dia", e, t))
    return Mpo(out)


def pad_bond(mpo: Mpo, bond: int, dim: int) -> Mpo:
    """Zero-pad a bond up to dimension ``dim`` (no-op if already that large)."""
    d = mpo.bonds[bond - 1]
    if d >= dim:
        return mpo
    ts = list(mpo.tensors)
    left = ts[bond - 1]
    right = ts[bond]
    ts[bond - 1] = np.concatenate(
        [left, np.zeros((left.shape[0], 4, dim - d))], axis=2
    )
    ts[bond] = np.concatenate([right, np.zeros((dim - d, 4, right.shape[2]))], axis=0)
    return Mpo(ts)


def _pair_maps(mpo: Mpo, target: Mpo) -> list[np.ndarray]:
    """Site transfer matrices of the target/MPO pair, Pauli index summed."""
    if target.n_qubits != mpo.n_qubits:
        raise ValidationError(
            f"length mismatch: {mpo.n_qubits} vs {target.n_qubits}"
        )
    return [
        np.einsum("uiv,xiy->uxvy", t, a).reshape(t.shape[0] * a.shape[0], -1)
        for t, a in zip(target.tensors, mpo.tensors)
    ]


def fidelity(mpo: Mpo, target: Mpo) -> float:
    """Quantum state fidelity ``<psi| rho |psi>`` against a pure target MPO.

    The caller asserts that ``target`` encodes a pure state; the contraction
    pairs the two chains site by site, which costs O(N D_a^2 D_t^2).
    """
    v = left_environments(_pair_maps(mpo, target))[-1]
    return float(v[0, 0]) / 2**mpo.n_qubits


def fidelity_gradient(mpo: Mpo, target: Mpo) -> list[np.ndarray]:
    """Partial derivatives of :func:`fidelity` by every site-tensor entry.

    One reverse sweep (:func:`left_environments_vjp`) over the pair
    contraction gives every pair map's gradient, which its target site maps
    back onto the site tensor.
    """
    mats = _pair_maps(mpo, target)
    cotangent = np.full((1, 1), 1.0 / 2**mpo.n_qubits)
    grads, _ = left_environments_vjp(mats, left_environments(mats), cotangent)
    return [
        np.einsum("uxvy,uiv->xiy", g.reshape(t.shape[0], a.shape[0], t.shape[2], -1), t)
        for g, t, a in zip(grads, target.tensors, mpo.tensors)
    ]


def correlation_gradient(mpo: Mpo, letters) -> list[np.ndarray]:
    """Partials of a full-chain Pauli-word expectation by every tensor entry."""
    letters = tuple(int(a) for a in letters)
    if len(letters) != mpo.n_qubits:
        raise ValidationError("letters must cover the full chain")
    mats = [t[:, a, :] for t, a in zip(mpo.tensors, letters)]
    slices, _ = left_environments_vjp(mats, left_environments(mats), np.ones((1, 1)))
    return [np.einsum("xy,i->xiy", g, np.eye(4)[a]) for g, a in zip(slices, letters)]


def matrix_element(mpo: Mpo, bra_bits, ket_bits) -> complex:
    """Single density-matrix element ``<bra| rho |ket>`` by chain contraction."""
    bra = tuple(int(b) for b in bra_bits)
    ket = tuple(int(b) for b in ket_bits)
    if len(bra) != mpo.n_qubits or len(ket) != mpo.n_qubits:
        raise ValidationError("bit strings must cover the full chain")
    # <i| P_a |j> / 2 summed against each site's Pauli index
    maps = [
        np.einsum("a,dae->de", PAULIS[:, i, j] / 2.0, t.astype(complex))
        for t, i, j in zip(mpo.tensors, bra, ket)
    ]
    return complex(left_environments(maps)[-1][0, 0])


def density_corner(mpo: Mpo) -> np.ndarray:
    """Density matrix on the first and last 16 basis states (N >= 5).

    The first 16 states have their first N - 4 bits all 0, the last 16 all 1.
    So one sweep over the first N - 4 sites for the four (bra, ket) prefix
    pairs, followed by one sweep over the last four sites with each site's
    (bra bit, ket bit) pair left open, gives all 32 x 32 elements.

    Returns:
        complex ``(32, 32)`` array, bra by ket, states in ascending order.
    """
    n = mpo.n_qubits
    if n < 5:
        raise ValidationError(f"the density corner needs N >= 5, got {n}")
    # m[d, 2 i + j, e] = sum_a <i| P_a |j> / 2 * A[d, a, e]
    maps = [
        np.einsum("aij,dae->dije", PAULIS / 2.0, t).reshape(t.shape[0], 4, t.shape[2])
        for t in mpo.tensors
    ]
    # the four prefixes in one sweep: a batch of four 2-D maps per site, each
    # with an open index of size 1
    prefixes = left_environments([m.transpose(1, 0, 2)[:, :, None] for m in maps[:-4]])[-1]
    block = left_environments(maps[-4:], boundary=prefixes[:, 0])[-1]
    # axes (bra prefix, ket prefix, i_1, j_1, ..., i_4, j_4) -> (bra, ket)
    return block.reshape((2,) * 10).transpose(0, 2, 4, 6, 8, 1, 3, 5, 7, 9).reshape(32, 32)


def save_json(mpo: Mpo, path) -> None:
    """Write the MPO file format: flat row-major site arrays plus bond list."""
    doc = {
        "n_qubits": mpo.n_qubits,
        "bonds": list(mpo.bonds),
        "sites": [t.ravel().tolist() for t in mpo.tensors],
    }
    write_json(path, doc)


def load_json(path) -> Mpo:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["n_qubits"]
    bonds = [1] + list(doc["bonds"]) + [1]
    if len(doc["sites"]) != n:
        raise ValidationError("site count does not match n_qubits")
    ts = []
    for s, flat in enumerate(doc["sites"]):
        shape = (bonds[s], 4, bonds[s + 1])
        ts.append(np.asarray(flat, dtype=float).reshape(shape))
    return Mpo(ts)
