"""Families of unitaries up to two-sided real-orthogonal inner equivalence.

Each member keeps the exposed/inner split of a colligation, but the
equivalence now multiplies the inner space on both sides, by one pair of
real orthogonal matrices shared across the family.  The matching
characteristic function takes two matrix arguments (S, R): a "plus" copy of
the system runs through the members and a "minus" copy through their
transposed inverses, with S coupling the inner outputs and R the inner
inputs.  Eliminating the coupled variables leaves a 2nm-dimensional core
system; the value acts on the doubled exposed space, plus coordinates first.
"""

from __future__ import annotations

import numpy as np

from .colligation import _act_inner
from .errors import ArityMismatch, NotUnitary
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_argument,
    block_diag,
    op_norm,
    require_real_orthogonal,
    solve_coupled,
)
from .multi import MultiColligation, _diagonal_blocks, multi_realization
from .realization import Realization, charvalue

__all__ = [
    "transpose_inverse",
    "dc_equivalent",
    "dc_charfun",
    "dc_charfun_system",
    "dc_realization",
    "skew_form",
]

DoubleCosetFamily = MultiColligation  # kept for the benchmark's oracle checks; a family is a multi family


def transpose_inverse(g, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Transposed inverse of a unitary, computed as the entrywise conjugate.

    The shortcut is cross-checked against an explicit solve of
    ``g^T x = 1``; disagreement means the input was not unitary enough.
    """
    m = np.asarray(g, dtype=complex)
    shortcut = m.conj()
    try:
        explicit = np.linalg.solve(m.T, np.eye(m.shape[0], dtype=complex))
    except np.linalg.LinAlgError:
        raise NotUnitary("transpose-inverse cross-check found the matrix singular") from None
    if not np.isfinite(explicit).all():
        raise NotUnitary("transpose-inverse cross-check found the inverse not finite")
    gap = op_norm(shortcut - explicit)
    if not gap <= tol.residual_tol * max(1.0, op_norm(explicit)):
        raise NotUnitary(f"transpose-inverse shortcut disagrees with direct solve (gap {gap:.3e})")
    return shortcut


def dc_equivalent(fam: MultiColligation, u, v, tol: Tolerances = DEFAULT_TOLERANCES) -> MultiColligation:
    """Act by the two-sided inner equivalence with real orthogonal (u, v)."""
    uo = require_real_orthogonal(u, tol, "left inner factor")
    vo = require_real_orthogonal(v, tol, "right inner factor")
    if uo.shape[0] != fam.inner or vo.shape[0] != fam.inner:
        raise ArityMismatch("inner factors do not match the inner dimension")
    return MultiColligation(_act_inner(g, uo, vo, tol) for g in fam.members)


def _check_arguments(fam: MultiColligation, s, r):
    return _check_argument(s, fam.arity, "argument S"), _check_argument(r, fam.arity, "argument R")


def dc_realization(fam: MultiColligation, tol: Tolerances = DEFAULT_TOLERANCES) -> Realization:
    """The blocks of the core system (the ``"SR"`` form); the transposed
    inverses of the members are cross-checked under ``tol`` as they are built.
    """
    at, bt, ct, dt = _diagonal_blocks([transpose_inverse(g.matrix, tol) for g in fam.members], fam.alpha)
    plus = multi_realization(fam)
    return Realization("SR", block_diag(plus.a, at), plus.b, block_diag(plus.c, ct), plus.d, fam.inner, bt, dt)


def dc_charfun(fam: MultiColligation, s, r, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """Two-argument characteristic function on the doubled exposed space.

    Block order: plus coordinates (through the members) first, minus
    coordinates (through the transposed inverses) second.
    """
    s, r = _check_arguments(fam, s, r)  # before the realization's cross-check, which may raise
    return charvalue(dc_realization(fam, tol), (s, r), tol)


def dc_charfun_system(fam: MultiColligation, s, r, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Brute-force evaluation via the full coupled system.

    Every defining equation appears as its own row: the member rows for the
    plus side, the transposed-inverse rows for the minus side, and the two
    coupling constraints.  Unknowns are (q_plus, q_minus, x_plus, x_minus,
    y_plus, y_minus); exposed inputs are probed with basis vectors.
    """
    s, r = _check_arguments(fam, s, r)
    n, al, m = fam.arity, fam.alpha, fam.inner
    na, nm = n * al, n * m
    dim = 2 * na + 4 * nm
    col_qp, col_qm = 0, na
    col_xp, col_xm = 2 * na, 2 * na + nm
    col_yp, col_ym = 2 * na + 2 * nm, 2 * na + 3 * nm
    sys = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros((dim, 2 * na), dtype=complex)
    tildes = [transpose_inverse(g.matrix, tol) for g in fam.members]
    row = 0
    for j, g in enumerate(fam.members):
        t = tildes[j]
        ta, tb = t[:al, :al], t[:al, al:]
        tc, td = t[al:, :al], t[al:, al:]
        qa = slice(j * al, (j + 1) * al)
        # plus side: q+ = a p+ + b x+ ; y+ = c p+ + d x+
        sys[row : row + al, col_qp + j * al : col_qp + (j + 1) * al] = np.eye(al)
        sys[row : row + al, col_xp + j * m : col_xp + (j + 1) * m] = -g.b
        rhs[row : row + al, qa] = g.a
        row += al
        sys[row : row + m, col_yp + j * m : col_yp + (j + 1) * m] = np.eye(m)
        sys[row : row + m, col_xp + j * m : col_xp + (j + 1) * m] = -g.d
        rhs[row : row + m, qa] = g.c
        row += m
        # minus side through the transposed inverse
        sys[row : row + al, col_qm + j * al : col_qm + (j + 1) * al] = np.eye(al)
        sys[row : row + al, col_xm + j * m : col_xm + (j + 1) * m] = -tb
        rhs[row : row + al, na + j * al : na + (j + 1) * al] = ta
        row += al
        sys[row : row + m, col_ym + j * m : col_ym + (j + 1) * m] = np.eye(m)
        sys[row : row + m, col_xm + j * m : col_xm + (j + 1) * m] = -td
        rhs[row : row + m, na + j * al : na + (j + 1) * al] = tc
        row += m
    # coupling: y+ = (S x I) y- and x- = (R x I) x+
    big_s = np.kron(s, np.eye(m))
    big_r = np.kron(r, np.eye(m))
    sys[row : row + nm, col_yp : col_yp + nm] = np.eye(nm)
    sys[row : row + nm, col_ym : col_ym + nm] = -big_s
    row += nm
    sys[row : row + nm, col_xm : col_xm + nm] = np.eye(nm)
    sys[row : row + nm, col_xp : col_xp + nm] = -big_r
    row += nm
    assert row == dim
    return solve_coupled(sys, rhs, tol)[: 2 * na, :]


def skew_form(arity: int, alpha: int) -> np.ndarray:
    """Bilinear skew form ``[[0, I], [-I, 0]]`` on the doubled exposed space."""
    na = arity * alpha
    zero = np.zeros((na, na))
    eye = np.eye(na)
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)

