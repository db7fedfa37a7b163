"""Families of colligations and their matrix-argument characteristic function.

A family of ``n`` colligations with a common split defines a characteristic
function whose argument is an ``n x n`` matrix ``S``.  The defining linear
system couples the inner channels of the members through the entries of
``S``; eliminating the inner variables gives the closed form

    bigA + bigB (bigS - bigD)^{-1} bigC

with block-diagonal ``bigA..bigD`` and ``bigS = kron(S, I_inner)``.  The
locus where the elimination matrix is singular is the eigensurface; values
are only defined off it.  ``multi_charfun_system`` re-derives values by
assembling the full coupled system literally and solving it densely, and is
kept deliberately separate from the closed form as a cross-check.
"""

from __future__ import annotations

import numpy as np

from .colligation import Colligation, _act_inner, product, random_colligation
from .errors import AlphaMismatch, ArityMismatch
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_argument,
    block_diag,
    require_unitary,
    solve_coupled,
)
from .realization import Realization, charvalue, system

__all__ = [
    "MultiColligation",
    "random_multi",
    "multi_conjugate",
    "multi_product",
    "multi_charfun",
    "multi_charfun_system",
    "multi_realization",
    "elimination_matrix",
]


class MultiColligation:
    """A tuple of colligations sharing one exposed/inner split.

    The double-coset family of :mod:`.doublecoset` is the same tuple; which
    characteristic function applies is a property of the document kind.
    """

    __slots__ = ("members",)

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ArityMismatch("a family needs at least one member")
        if any(not isinstance(g, Colligation) for g in members):
            raise TypeError("members must be Colligation instances")
        alpha, inner = members[0].alpha, members[0].inner
        for g in members[1:]:
            if g.alpha != alpha:
                raise AlphaMismatch("members disagree on the exposed dimension")
            if g.inner != inner:
                raise ArityMismatch("members disagree on the inner dimension")
        self.members = members

    @property
    def arity(self) -> int:
        return len(self.members)

    @property
    def alpha(self) -> int:
        return self.members[0].alpha

    @property
    def inner(self) -> int:
        return self.members[0].inner

    def __repr__(self):
        return f"MultiColligation(arity={self.arity}, alpha={self.alpha}, inner={self.inner})"


def random_multi(alpha: int, inner: int, arity: int, seed) -> MultiColligation:
    rng = np.random.default_rng(seed)
    return MultiColligation(random_colligation(alpha, inner, rng) for _ in range(arity))


def _diagonal_blocks(matrices, alpha: int) -> tuple:
    """The block-diagonal ``a``, ``b``, ``c`` and ``d`` blocks of the square
    ``matrices`` split at ``alpha``."""
    parts = (slice(None, alpha), slice(alpha, None))
    return tuple(block_diag(*(m[rows, cols] for m in matrices)) for rows in parts for cols in parts)


def multi_realization(mc: MultiColligation) -> Realization:
    """The block-diagonal ``bigA..bigD`` of the closed form (the ``"S"`` form)."""
    return Realization("S", *_diagonal_blocks([g.matrix for g in mc.members], mc.alpha), mc.inner)


def elimination_matrix(mc: MultiColligation, s) -> np.ndarray:
    """The eliminated inner system ``kron(S, I) - blockdiag(d_j)``."""
    s = _check_argument(s, mc.arity)
    return system(multi_realization(mc), [s[None]])[0]


def multi_charfun(mc: MultiColligation, s, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """Characteristic function of the family at the matrix argument ``s``."""
    s = _check_argument(s, mc.arity)
    return charvalue(multi_realization(mc), (s,), tol)


def multi_charfun_system(mc: MultiColligation, s, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Brute-force evaluation via the fully assembled coupled system.

    Unknowns are interleaved per member as (q_1, x_1, ..., q_n, x_n); each
    exposed input is probed with standard basis vectors and the exposed
    outputs are read off a dense solve.  Independent of the closed form.
    """
    s = _check_argument(s, mc.arity)
    n, al, m = mc.arity, mc.alpha, mc.inner
    dim = n * (al + m)
    sys = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros((dim, n * al), dtype=complex)

    def qrows(j):
        return slice(j * (al + m), j * (al + m) + al)

    def xrows(j):
        return slice(j * (al + m) + al, (j + 1) * (al + m))

    eye_m = np.eye(m)
    for j, g in enumerate(mc.members):
        sys[qrows(j), qrows(j)] = np.eye(al)
        sys[qrows(j), xrows(j)] = -g.b
        rhs[qrows(j), j * al : (j + 1) * al] = g.a
        for k in range(n):
            sys[xrows(j), xrows(k)] += s[j, k] * eye_m
        sys[xrows(j), xrows(j)] += -g.d
        rhs[xrows(j), j * al : (j + 1) * al] = g.c

    sol = solve_coupled(sys, rhs, tol)
    out = np.zeros((n * al, n * al), dtype=complex)
    for j in range(n):
        out[j * al : (j + 1) * al, :] = sol[qrows(j), :]
    return out


def multi_conjugate(mc: MultiColligation, u, tol: Tolerances = DEFAULT_TOLERANCES) -> MultiColligation:
    """Conjugate every member's inner space by the same unitary ``u``."""
    w = require_unitary(u, tol, "inner conjugator")
    if w.shape[0] != mc.inner:
        raise ArityMismatch(f"conjugator has dimension {w.shape[0]}, expected {mc.inner}")
    winv = w.conj().T
    return MultiColligation(_act_inner(g, w, winv, tol) for g in mc.members)


def multi_product(x: MultiColligation, y: MultiColligation, tol: Tolerances = DEFAULT_TOLERANCES) -> MultiColligation:
    """Member-wise semigroup product of two families of equal arity."""
    if x.arity != y.arity:
        raise ArityMismatch(f"arities differ: {x.arity} vs {y.arity}")
    if x.alpha != y.alpha:
        raise AlphaMismatch(f"exposed dimensions differ: {x.alpha} vs {y.alpha}")
    return MultiColligation(product(g, h, tol) for g, h in zip(x.members, y.members))

