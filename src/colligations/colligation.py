"""Unitary colligations with one exposed channel.

A colligation is a unitary matrix written in block form ``[[a, b], [c, d]]``
with respect to an exposed/inner splitting of dimensions ``alpha + inner``.
Two colligations are considered equivalent when they differ by a unitary
change of coordinates on the inner space only.  The module provides the
semigroup product, inner conjugation, inner padding, the one-variable
characteristic function ``a + z b (1 - z d)^{-1} c``, and the multiset of
unit-circle inner eigenvalues which is a product invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphaMismatch, BadSplit
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    haar_unitary,
    op_norm,
    require_unitary,
    sample_disc,
)
from . import realization

__all__ = [
    "Colligation",
    "random_colligation",
    "conjugate_inner",
    "pad",
    "product",
    "charfun_z",
    "colligation_realization",
    "unit_spectrum",
    "spectra_match",
    "equivalent_probe",
]


class Colligation:
    """Unitary matrix with a fixed exposed/inner block split.

    Block views: ``a`` maps exposed to exposed, ``b`` inner to exposed,
    ``c`` exposed to inner, ``d`` inner to inner.
    """

    __slots__ = ("alpha", "inner", "matrix")

    def __init__(self, matrix, alpha: int, tol: Tolerances = DEFAULT_TOLERANCES):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadSplit(f"colligation matrix must be square, got shape {m.shape}")
        size = m.shape[0]
        if not (1 <= alpha < size):
            raise BadSplit(f"exposed dimension {alpha} does not split a {size}x{size} matrix")
        require_unitary(m, tol, "colligation matrix")
        m.flags.writeable = False
        self.alpha = int(alpha)
        self.inner = size - int(alpha)
        self.matrix = m

    @property
    def size(self) -> int:
        return self.alpha + self.inner

    @property
    def a(self) -> np.ndarray:
        return self.matrix[: self.alpha, : self.alpha]

    @property
    def b(self) -> np.ndarray:
        return self.matrix[: self.alpha, self.alpha :]

    @property
    def c(self) -> np.ndarray:
        return self.matrix[self.alpha :, : self.alpha]

    @property
    def d(self) -> np.ndarray:
        return self.matrix[self.alpha :, self.alpha :]

    def __repr__(self):
        return f"Colligation(alpha={self.alpha}, inner={self.inner})"


def random_colligation(alpha: int, inner: int, seed) -> Colligation:
    """Haar-random colligation with the given split, deterministic in seed (or drawn from a Generator)."""
    return Colligation(haar_unitary(alpha + inner, seed), alpha)


def conjugate_inner(col: Colligation, u, tol: Tolerances = DEFAULT_TOLERANCES) -> Colligation:
    """Conjugate the inner space by the unitary ``u``; the class is unchanged."""
    w = require_unitary(u, tol, "inner conjugator")
    if w.shape[0] != col.inner:
        raise BadSplit(f"inner conjugator has dimension {w.shape[0]}, expected {col.inner}")
    return _act_inner(col, w, w.conj().T, tol)


def _act_inner(col: Colligation, left, right, tol: Tolerances) -> Colligation:
    """``[[a, b right], [left c, left d right]]``: ``left`` acts on the inner
    outputs and ``right`` on the inner inputs."""
    m = np.block([[col.a, col.b @ right], [left @ col.c, left @ col.d @ right]])
    return Colligation(m, col.alpha, tol)


def pad(col: Colligation, extra: int) -> Colligation:
    """Append ``extra`` trivial inner dimensions (an identity block)."""
    if extra < 0:
        raise ValueError(f"extra inner dimensions must be nonnegative, got {extra}")
    if extra == 0:
        return col
    al, m = col.alpha, col.inner
    out = np.zeros((al + m + extra, al + m + extra), dtype=complex)
    out[: al + m, : al + m] = col.matrix
    out[al + m :, al + m :] = np.eye(extra)
    return Colligation(out, al)


def product(x: Colligation, y: Colligation, tol: Tolerances = DEFAULT_TOLERANCES) -> Colligation:
    """Semigroup product; inner spaces concatenate in operand order."""
    if x.alpha != y.alpha:
        raise AlphaMismatch(f"exposed dimensions differ: {x.alpha} vs {y.alpha}")
    a, b, c, d = x.a, x.b, x.c, x.d
    p, q, r, t = y.a, y.b, y.c, y.d
    m1, m2 = x.inner, y.inner
    out = np.block(
        [
            [a @ p, b, a @ q],
            [c @ p, d, c @ q],
            [r, np.zeros((m2, m1), dtype=complex), t],
        ]
    )
    return Colligation(out, x.alpha, tol)


def colligation_realization(col: Colligation) -> realization.Realization:
    """The blocks of ``a + z b (1 - z d)^{-1} c`` (the ``"z"`` form)."""
    return realization.Realization("z", col.a, col.b, col.c, col.d)


def charfun_z(col: Colligation, z, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """One-variable characteristic function ``a + z b (1 - z d)^{-1} c``.

    The certificate is the smallest singular value of ``1 - z d``; arguments
    too close to a pole raise :class:`NearPole`.
    """
    return next(_charvalues([col], [z], tol))[0]


def _charvalues(cols, zs, tol: Tolerances):
    """:func:`realization.charvalues` of the colligations ``cols`` at the points ``zs``."""
    args = [np.array([complex(z) for z in zs])]
    return realization.charvalues([colligation_realization(col) for col in cols], args, tol)


def _cluster_points(points: list[complex], radius: float) -> list[tuple[complex, int]]:
    # Single-linkage clustering: chains of points closer than radius merge.
    remaining = list(points)
    clusters: list[list[complex]] = []
    while remaining:
        seed_pt = remaining.pop()
        group = [seed_pt]
        changed = True
        while changed:
            changed = False
            for pt in list(remaining):
                if any(abs(pt - g) <= radius for g in group):
                    group.append(pt)
                    remaining.remove(pt)
                    changed = True
        clusters.append(group)
    out = [(complex(np.mean(g)), len(g)) for g in clusters]
    out.sort(key=lambda item: np.angle(item[0]) % (2.0 * np.pi))
    return out


def unit_spectrum(col: Colligation, tol: Tolerances = DEFAULT_TOLERANCES) -> list[tuple[complex, int]]:
    """Multiset of unit-circle eigenvalues of the inner block, excluding 1.

    Returned as ``(value, multiplicity)`` pairs sorted by angle.  The value 1
    is excluded by design so that inner padding leaves the invariant alone.
    """
    eigs = np.linalg.eigvals(col.d)
    kept = [
        complex(v)
        for v in eigs
        if abs(abs(v) - 1.0) <= tol.rank_tol and abs(v - 1.0) > tol.rank_tol
    ]
    return _cluster_points(kept, tol.rank_tol)


def spectra_match(
    first: list[tuple[complex, int]],
    second: list[tuple[complex, int]],
    radius: float,
) -> bool:
    """Whether two unit-spectrum multisets agree within the given radius."""
    if sum(k for _, k in first) != sum(k for _, k in second):
        return False
    unused = list(second)
    for value, mult in first:
        hit = None
        for idx, (other, other_mult) in enumerate(unused):
            if abs(value - other) <= max(radius, 1e-12) and mult == other_mult:
                hit = idx
                break
        if hit is None:
            return False
        unused.pop(hit)
    return not unused


def equivalent_probe(
    x: Colligation,
    y: Colligation,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Randomized equivalence test: equal characteristic functions on 16
    sampled disc points and matching unit spectra.

    Poles cannot occur inside the open disc, so every sample evaluates.
    """
    if x.alpha != y.alpha:
        raise AlphaMismatch(f"exposed dimensions differ: {x.alpha} vs {y.alpha}")
    rng = np.random.default_rng(seed)
    zs = [sample_disc(rng, 0.95) for _ in range(16)]
    for vx, vy in _charvalues([x, y], zs, tol):
        scale = max(1.0, op_norm(vx.value), op_norm(vy.value))
        distance = op_norm(vx.value - vy.value)
        # A distance whose norm overflows counts as a difference, even
        # against a value whose norm overflows too.
        if distance == math.inf or not distance <= tol.residual_tol * scale:
            return False
    # Clustering radius is widened slightly so that clusters formed
    # independently for the two operands still pair up.
    return spectra_match(unit_spectrum(x, tol), unit_spectrum(y, tol), 4.0 * tol.rank_tol)
