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

from .colligation import Colligation, _act_inner, _random_colligation, product
from .errors import AlphaMismatch, ArityMismatch, OnEigensurface
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_argument,
    block_diag,
    require_unitary,
    sigma_extremes,
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
    "eigensurface_det",
    "eigensurface_sigma",
    "diag_conjugation",
]


class MultiColligation:
    """A tuple of colligations sharing one exposed/inner split.

    The double-coset family of :mod:`.doublecoset` is the same tuple; which
    characteristic function applies is a property of the document kind.  A
    family keeps each realization built from it (see :meth:`_kept`); the
    members' matrices are read-only, so a kept one cannot go stale.
    """

    __slots__ = ("members", "_realizations")

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
        self._realizations = {}

    def _kept(self, key, build) -> Realization:
        """The realization kept under ``key``, made by ``build()`` on first
        use; one whose build raised is not kept, so the next call raises too.
        Threads that race here each build the same blocks, and one is kept."""
        real = self._realizations.get(key)
        if real is None:
            real = build()
            for block in (real.a, real.b, real.c, real.d, real.bt, real.dt):
                if block is not None:
                    block.flags.writeable = False
            self._realizations[key] = real
        return real

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
    return _random_multi(rng, alpha, inner, arity)


def _random_multi(rng: np.random.Generator, alpha: int, inner: int, arity: int) -> MultiColligation:
    return MultiColligation(_random_colligation(rng, alpha, inner) for _ in range(arity))


def multi_realization(mc: MultiColligation) -> Realization:
    """The block-diagonal ``bigA..bigD`` of the closed form (the ``"S"`` form),
    built on first use and kept by the family."""
    return mc._kept(
        "S",
        lambda: Realization(
            "S",
            block_diag(*(g.a for g in mc.members)),
            block_diag(*(g.b for g in mc.members)),
            block_diag(*(g.c for g in mc.members)),
            block_diag(*(g.d for g in mc.members)),
            mc.inner,
        ),
    )


def elimination_matrix(mc: MultiColligation, s) -> np.ndarray:
    """The eliminated inner system ``kron(S, I) - blockdiag(d_j)``."""
    s = _check_argument(s, mc.arity)
    return system(multi_realization(mc), [s[None]])[0]


def eigensurface_det(mc: MultiColligation, s) -> complex:
    """Determinant whose zero set is the eigensurface."""
    return complex(np.linalg.det(elimination_matrix(mc, s)))


def eigensurface_sigma(mc: MultiColligation, s) -> tuple[float, float]:
    """Smallest and largest singular value of the eliminated system."""
    return sigma_extremes(elimination_matrix(mc, s))


def multi_charfun(mc: MultiColligation, s, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """Characteristic function of the family at the matrix argument ``s``."""
    s = _check_argument(s, mc.arity)
    return charvalue(multi_realization(mc), (s,), tol, OnEigensurface, "argument lies on the eigensurface")


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

    smin, smax = sigma_extremes(sys)
    if smax == 0.0 or smin <= tol.surface_guard * smax:
        raise OnEigensurface(smin, "coupled system is singular")
    sol = np.linalg.solve(sys, rhs)
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


def diag_conjugation(
    mc: MultiColligation,
    s,
    lam,
    tol: Tolerances = DEFAULT_TOLERANCES,
    chi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the diagonal dilation identity.

    Returns ``(chi(lam S lam^{-1}), Lam chi(S) Lam^{-1})`` where ``lam`` is a
    vector of nonzero scalars, acting diagonally on the argument and
    block-diagonally (``lam_j I_alpha``) on the value.  ``chi`` is the value
    at ``S``, computed here if not given.
    """
    s = _check_argument(s, mc.arity)
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.shape[0] != mc.arity:
        raise ArityMismatch(f"need {mc.arity} scalars, got {lam.shape[0]}")
    if np.any(lam == 0):
        raise ValueError("dilation scalars must be nonzero")
    scaled = (lam[:, None] * s) / lam[None, :]
    left = multi_charfun(mc, scaled, tol).value
    lam_big = np.kron(np.diag(lam), np.eye(mc.alpha))
    lam_big_inv = np.kron(np.diag(1.0 / lam), np.eye(mc.alpha))
    if chi is None:
        chi = multi_charfun(mc, s, tol).value
    right = lam_big @ chi @ lam_big_inv
    return left, right
