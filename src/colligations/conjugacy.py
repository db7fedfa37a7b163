"""Colligations classified up to a single shared inner conjugation.

Here a colligation of size ``alpha + slots * slot_dim`` has its inner space
split into ``slots`` slots of equal size ``slot_dim``, and the equivalence
conjugates every inner slot by the same unitary ``u``.  The inner coupling
block is a full ``slots x slots`` array of ``slot_dim x slot_dim`` blocks, not
block-diagonal, which is what separates this construction from a family of
independent members: the same characteristic function recipe applies, but the
diagonal dilation law is lost.
"""

from __future__ import annotations

import numpy as np

from .colligation import Colligation
from .errors import AlphaMismatch, ArityMismatch, BadSplit
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_argument,
    block_diag,
    haar_unitary,
    require_unitary,
    solve_coupled,
)
from .realization import Realization, charvalue

__all__ = [
    "TriColligation",
    "random_tri",
    "tri_conjugate",
    "tri_product",
    "tri_charfun",
    "tri_charfun_system",
    "tri_realization",
]


class TriColligation(Colligation):
    """Colligation whose inner space is ``slots`` coupled slots of size ``slot_dim``."""

    __slots__ = ("slot_dim", "slots")

    def __init__(self, matrix, alpha: int, slot_dim: int, slots: int = 2, tol: Tolerances = DEFAULT_TOLERANCES):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadSplit(f"matrix must be square, got shape {m.shape}")
        if alpha < 1 or slot_dim < 1 or slots < 1:
            raise BadSplit(f"invalid split alpha={alpha}, slot_dim={slot_dim}, slots={slots}")
        if m.shape[0] != alpha + slots * slot_dim:
            raise BadSplit(
                f"matrix size {m.shape[0]} does not match alpha + slots*slot_dim"
                f" = {alpha + slots * slot_dim}"
            )
        super().__init__(m, alpha, tol)
        self.slot_dim = int(slot_dim)
        self.slots = int(slots)

    def __repr__(self):
        return f"TriColligation(alpha={self.alpha}, slot_dim={self.slot_dim}, slots={self.slots})"


def random_tri(alpha: int, slot_dim: int, slots: int, seed) -> TriColligation:
    size = alpha + slots * slot_dim
    return TriColligation(haar_unitary(size, seed), alpha, slot_dim, slots)


def tri_conjugate(tc: TriColligation, u, tol: Tolerances = DEFAULT_TOLERANCES) -> TriColligation:
    """Conjugate every inner slot by the same unitary ``u``."""
    w = require_unitary(u, tol, "inner conjugator")
    if w.shape[0] != tc.slot_dim:
        raise BadSplit(f"conjugator has dimension {w.shape[0]}, expected {tc.slot_dim}")
    big = block_diag(np.eye(tc.alpha), *([w] * tc.slots))
    return TriColligation(big @ tc.matrix @ big.conj().T, tc.alpha, tc.slot_dim, tc.slots, tol)


def _embed(tc: TriColligation, lead: int, trail: int) -> np.ndarray:
    # One factor of the product: every slot widened by ``lead + trail``, the
    # original blocks at offset ``lead`` of each widened slot, identity elsewhere.
    al, p, n = tc.alpha, tc.slot_dim, tc.slots
    w = lead + p + trail
    out = np.eye(al + n * w, dtype=complex)
    inner = (al + lead + w * np.arange(n)[:, None] + np.arange(p)).ravel()
    out[:al, :al] = tc.a
    out[:al, inner] = tc.b
    out[inner, :al] = tc.c
    out[np.ix_(inner, inner)] = tc.d
    return out


def tri_product(x: TriColligation, y: TriColligation, tol: Tolerances = DEFAULT_TOLERANCES) -> TriColligation:
    """Product; slot sizes add, inner coordinates concatenate per slot."""
    if x.alpha != y.alpha:
        raise AlphaMismatch(f"exposed dimensions differ: {x.alpha} vs {y.alpha}")
    if x.slots != y.slots:
        raise ArityMismatch(f"slot counts differ: {x.slots} vs {y.slots}")
    left = _embed(x, 0, y.slot_dim)
    right = _embed(y, x.slot_dim, 0)
    return TriColligation(left @ right, x.alpha, x.slot_dim + y.slot_dim, x.slots, tol)


def tri_realization(tc: TriColligation) -> Realization:
    """The colligation's blocks with the coupled inner block ``d`` (the ``"S"`` form)."""
    return Realization("S", tc.a, tc.b, tc.c, tc.d, tc.slot_dim)


def tri_charfun(tc: TriColligation, s, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """Characteristic function at a matrix argument; value is alpha x alpha."""
    s = _check_argument(s, tc.slots)
    return charvalue(tri_realization(tc), (s,), tol)


def tri_charfun_system(tc: TriColligation, s, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Brute-force evaluation via the literal (alpha + slots*slot_dim) system."""
    s = _check_argument(s, tc.slots)
    al, p, n = tc.alpha, tc.slot_dim, tc.slots
    dim = al + n * p
    sys = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros((dim, al), dtype=complex)
    sys[:al, :al] = np.eye(al)
    rhs[:al, :] = tc.a
    eye_p = np.eye(p)
    for j in range(n):
        cols = slice(al + j * p, al + (j + 1) * p)
        sys[:al, cols] = -tc.matrix[:al, cols]
    for i in range(n):
        rows = slice(al + i * p, al + (i + 1) * p)
        rhs[rows, :] = tc.matrix[rows, :al]
        for j in range(n):
            cols = slice(al + j * p, al + (j + 1) * p)
            sys[rows, cols] = s[i, j] * eye_p - tc.matrix[rows, cols]
    return solve_coupled(sys, rhs, tol)[:al, :]
