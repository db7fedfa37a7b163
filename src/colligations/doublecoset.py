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

from dataclasses import dataclass

import numpy as np

from .colligation import _act_inner
from .errors import ArityMismatch, NotUnitary, OnEigensurface
from .linalg import (
    CharValue,
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_argument,
    block_diag,
    op_norm,
    require_real_orthogonal,
    sigma_extremes,
)
from .multi import MultiColligation, multi_product, multi_realization, random_multi
from .realization import Realization, charvalue, system

__all__ = [
    "DoubleCosetFamily",
    "random_family",
    "transpose_inverse",
    "dc_equivalent",
    "dc_product",
    "dc_charfun",
    "dc_charfun_system",
    "dc_elimination_matrix",
    "dc_realization",
    "dc_dilation_check",
    "indefinite_form",
    "skew_form",
    "FormReport",
    "form_checks",
    "adjoint_experiment",
]


# A double-coset family is a tuple of colligations exactly as a multi family
# is; only the characteristic function (dc_charfun) differs.
DoubleCosetFamily = MultiColligation
random_family = random_multi
dc_product = multi_product


def transpose_inverse(g, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Transposed inverse of a unitary, computed as the entrywise conjugate.

    The shortcut is cross-checked against an explicit solve of
    ``g^T x = 1``; disagreement means the input was not unitary enough.
    """
    m = np.asarray(g, dtype=complex)
    shortcut = m.conj()
    explicit = np.linalg.solve(m.T, np.eye(m.shape[0], dtype=complex))
    gap = op_norm(shortcut - explicit)
    if gap > tol.residual_tol * max(1.0, op_norm(explicit)):
        raise NotUnitary(f"transpose-inverse shortcut disagrees with direct solve (gap {gap:.3e})")
    return shortcut


def dc_equivalent(
    fam: DoubleCosetFamily, u, v, tol: Tolerances = DEFAULT_TOLERANCES
) -> DoubleCosetFamily:
    """Act by the two-sided inner equivalence with real orthogonal (u, v)."""
    uo = require_real_orthogonal(u, tol, "left inner factor")
    vo = require_real_orthogonal(v, tol, "right inner factor")
    if uo.shape[0] != fam.inner or vo.shape[0] != fam.inner:
        raise ArityMismatch("inner factors do not match the inner dimension")
    return DoubleCosetFamily(_act_inner(g, uo, vo, tol) for g in fam.members)


def _check_arguments(fam: DoubleCosetFamily, s, r):
    return _check_argument(s, fam.arity, "argument S"), _check_argument(r, fam.arity, "argument R")


def dc_realization(fam: DoubleCosetFamily, tol: Tolerances = DEFAULT_TOLERANCES) -> Realization:
    """The blocks of the core system (the ``"SR"`` form), built on first use
    and kept by the family, one per tolerance profile: the transposed
    inverses of the members are cross-checked under ``tol`` when built.
    """
    return fam._kept(("SR", tol), lambda: _core_realization(fam, tol))


def _core_realization(fam: DoubleCosetFamily, tol: Tolerances) -> Realization:
    tildes = [transpose_inverse(g.matrix, tol) for g in fam.members]
    al, na, nm = fam.alpha, fam.arity * fam.alpha, fam.arity * fam.inner
    plus = multi_realization(fam)
    at = block_diag(*(t[:al, :al] for t in tildes))
    bt = block_diag(*(t[:al, al:] for t in tildes))
    ct = block_diag(*(t[al:, :al] for t in tildes))
    dt = block_diag(*(t[al:, al:] for t in tildes))
    zeros = np.zeros((na, na))
    a = np.block([[plus.a, zeros], [zeros, at]])
    rhs = np.block([[plus.c, np.zeros((nm, na))], [np.zeros((nm, na)), ct]])
    return Realization("SR", a, plus.b, rhs, plus.d, fam.inner, bt, dt)


def dc_elimination_matrix(fam: DoubleCosetFamily, s, r, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core system on (x_plus, y_minus) after the coupled variables are
    substituted away: ``[[-D, S x I], [-Dt (R x I), I]]``."""
    s, r = _check_arguments(fam, s, r)
    return system(dc_realization(fam, tol), [s[None], r[None]])[0]


def dc_charfun(fam: DoubleCosetFamily, s, r, tol: Tolerances = DEFAULT_TOLERANCES) -> CharValue:
    """Two-argument characteristic function on the doubled exposed space.

    Block order: plus coordinates (through the members) first, minus
    coordinates (through the transposed inverses) second.
    """
    s, r = _check_arguments(fam, s, r)  # before the realization's cross-check, which may raise
    return charvalue(dc_realization(fam, tol), (s, r), tol, OnEigensurface, "arguments lie on the eigensurface")


def dc_charfun_system(fam: DoubleCosetFamily, s, r, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
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
    smin, smax = sigma_extremes(sys)
    if smax == 0.0 or smin <= tol.surface_guard * smax:
        raise OnEigensurface(smin, "coupled system is singular")
    sol = np.linalg.solve(sys, rhs)
    return sol[: 2 * na, :]


def dc_dilation_check(
    fam: DoubleCosetFamily,
    s,
    r,
    lam,
    tol: Tolerances = DEFAULT_TOLERANCES,
    chi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the diagonal dilation identity for two arguments.

    Returns ``(Lam chi(S, R) Lam^{-1}, chi(lam S lam, lam^{-1} R lam^{-1}))``
    where ``Lam`` scales the plus blocks by ``lam_j`` and the minus blocks by
    ``1 / lam_j``.  Rescaling every plus-side variable of slot ``j`` by
    ``lam_j`` and every minus-side variable by ``1 / lam_j`` maps solutions of
    the coupled linear system onto solutions for the congruence-transformed
    arguments, so the two matrices agree wherever both are regular.  (More
    generally, independent plus/minus scalings ``mu``, ``nu`` conjugate the
    transfer matrix by ``diag(mu, nu)`` while sending the arguments to
    ``mu S nu^{-1}`` and ``nu R mu^{-1}``; this is the ``nu = mu^{-1}``
    slice, the one that keeps symmetric ``S`` symmetric.)  ``chi`` is the
    value at ``(S, R)``, computed here if not given.
    """
    s, r = _check_arguments(fam, s, r)
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.shape[0] != fam.arity:
        raise ArityMismatch(f"need {fam.arity} scalars, got {lam.shape[0]}")
    if np.any(lam == 0):
        raise ValueError("dilation scalars must be nonzero")
    eye_a = np.eye(fam.alpha)
    lam_big = block_diag(np.kron(np.diag(lam), eye_a), np.kron(np.diag(1.0 / lam), eye_a))
    lam_big_inv = block_diag(np.kron(np.diag(1.0 / lam), eye_a), np.kron(np.diag(lam), eye_a))
    if chi is None:
        chi = dc_charfun(fam, s, r, tol).value
    left = lam_big @ chi @ lam_big_inv
    scaled_s = lam[:, None] * s * lam[None, :]
    scaled_r = r / lam[:, None] / lam[None, :]
    right = dc_charfun(fam, scaled_s, scaled_r, tol).value
    return left, right


def indefinite_form(arity: int, alpha: int) -> np.ndarray:
    """Hermitian form ``diag(+I, -I)`` on the doubled exposed space."""
    eye = np.eye(arity * alpha)
    return block_diag(eye, -eye)


def skew_form(arity: int, alpha: int) -> np.ndarray:
    """Bilinear skew form ``[[0, I], [-I, 0]]`` on the doubled exposed space."""
    na = arity * alpha
    zero = np.zeros((na, na))
    eye = np.eye(na)
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)


@dataclass(frozen=True)
class FormReport:
    """Form behaviour of one characteristic value.

    ``increase_samples`` holds ``M(q, q) - M(p, p)`` for random probes when
    both arguments lie in the open ball (else None); the defects are filled
    in when the respective hypothesis on (S, R) holds.
    """

    chi_norm: float
    increase_samples: list[float] | None
    pseudo_unitary_defect: float | None
    symplectic_defect: float | None
    transpose_defect: float


def form_checks(
    fam: DoubleCosetFamily,
    s,
    r,
    tol: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
    samples: int = 8,
    chi: np.ndarray | None = None,
) -> FormReport:
    """Evaluate the indefinite-form laws of the two-argument function.

    ``chi`` is the value at ``(S, R)``, computed here if not given.
    """
    s, r = _check_arguments(fam, s, r)
    n, al = fam.arity, fam.alpha
    if chi is None:
        chi = dc_charfun(fam, s, r, tol).value
    jm = indefinite_form(n, al)
    js = skew_form(n, al)
    chi_norm = op_norm(chi)

    increase = None
    if op_norm(s) < 1.0 and op_norm(r) < 1.0:
        rng = np.random.default_rng(seed)
        increase = []
        for _ in range(samples):
            pvec = rng.standard_normal(2 * n * al) + 1j * rng.standard_normal(2 * n * al)
            qvec = chi @ pvec
            m_p = float(np.real(pvec.conj() @ jm @ pvec))
            m_q = float(np.real(qvec.conj() @ jm @ qvec))
            increase.append(m_q - m_p)

    pseudo = None
    if _is_unitary_arg(s, tol) and _is_unitary_arg(r, tol):
        pseudo = op_norm(chi.conj().T @ jm @ chi - jm)

    symplectic = None
    if _is_symmetric(s, tol) and _is_symmetric(r, tol):
        symplectic = op_norm(chi.T @ js @ chi - js)

    chi_t = dc_charfun(fam, s.T, r.T, tol).value
    # Transpose with respect to the skew form, then invert: (js^-1 chi^T js)^-1.
    js_inv = -js
    target = js_inv @ np.linalg.inv(chi.T) @ js
    transpose_defect = op_norm(chi_t - target)

    return FormReport(
        chi_norm=chi_norm,
        increase_samples=increase,
        pseudo_unitary_defect=pseudo,
        symplectic_defect=symplectic,
        transpose_defect=transpose_defect,
    )


def _is_unitary_arg(m, tol: Tolerances) -> bool:
    dim = m.shape[0]
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(dim)) <= tol.rank_tol * max(1.0, dim))


def _is_symmetric(m, tol: Tolerances) -> bool:
    return bool(np.linalg.norm(m - m.T) <= tol.rank_tol * max(1.0, np.linalg.norm(m)))


def adjoint_experiment(
    fam: DoubleCosetFamily,
    s,
    r,
    tol: Tolerances = DEFAULT_TOLERANCES,
    chi: np.ndarray | None = None,
) -> dict[str, float]:
    """Compare two sign conventions for the indefinite-adjoint reflection law.

    For box(X) = J X* J (adjoint with respect to the signature form) the
    candidate identity is chi(box(S)^{-1}, box(R)^{-1}) = box(chi)^{-1}, read
    either with box on scalars acting as plain conjugate-transpose or with an
    extra sign.  Returns the relative defect of each reading; this is an
    experiment, not an assertion.  ``chi`` is the value at ``(S, R)``,
    computed here if not given.
    """
    s, r = _check_arguments(fam, s, r)
    if chi is None:
        chi = dc_charfun(fam, s, r, tol).value
    jm = indefinite_form(fam.arity, fam.alpha)
    target = np.linalg.inv(jm @ chi.conj().T @ jm)
    scale = max(1.0, op_norm(target))
    out = {}
    for label, sign in (("conjugate-transpose", 1.0), ("negated-conjugate-transpose", -1.0)):
        try:
            cand = dc_charfun(fam, np.linalg.inv(sign * s.conj().T), np.linalg.inv(sign * r.conj().T), tol).value
            out[label] = op_norm(cand - target) / scale
        except (OnEigensurface, np.linalg.LinAlgError):
            out[label] = float("nan")
    return out
