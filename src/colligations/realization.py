"""One realization per characteristic function, evaluated in batches.

Every construction in the package has a characteristic function of the form

    chi(S) = A + B (S x I_m - D)^{-1} C,

and a :class:`Realization` holds its blocks, built once per document.  Three
forms cover the four document kinds:

``"z"``
    one variable (colligations): the system is ``1 - z D`` and the value
    ``A + z (B X)``, the case ``S = 1/z`` written without the division;
``"S"``
    one matrix argument (multi and tri): the system is ``kron(S, I_m) - D``
    and the value ``A + B X``;
``"SR"``
    the double-coset pair: the 2nm core system
    ``[[-D, kron(S, I_m)], [-(Dt kron(R, I_m)), I]]`` with right-hand side
    ``C = [[c, 0], [0, ct]]``; with ``X+`` the top half of the solution the
    value is ``A + [B X+ ; (Bt kron(R, I_m)) X+]``.

:func:`system` stacks the eliminated systems of ``k`` arguments and
:func:`evaluate` solves them through one stacked SVD, guarded per point.
Each step is the operation the one-point formula uses, in the same order, on
operands of the same layout, so a value does not depend on the batch it was
computed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearPole, OnEigensurface
from .linalg import CharValue, DEFAULT_TOLERANCES, Tolerances, guarded_solve, identity_where_not_finite

__all__ = ["Realization", "system", "evaluate", "surface_indicators", "not_regular", "charvalues", "charvalue"]


@dataclass(frozen=True)
class Realization:
    """The blocks of one characteristic function (see the module docstring).

    ``m`` is the inner size that a matrix argument is Kronecker-multiplied
    with; ``bt`` and ``dt`` are the transposed-inverse blocks of the
    ``"SR"`` form, whose cross-check ran when they were built.
    """

    form: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    m: int = 1
    bt: np.ndarray | None = None
    dt: np.ndarray | None = None


def system(real: Realization, args) -> np.ndarray:
    """The eliminated systems at ``k`` stacked arguments, shape ``(k, N, N)``.

    ``args`` holds one array per variable, each with a leading axis of
    length ``k``: scalars ``(k,)`` for the ``"z"`` form, ``(k, n, n)``
    matrices otherwise.
    """
    if real.form == "z":
        (z,) = args
        scaled = _scaled(z, real.d)
        return np.subtract(np.eye(real.d.shape[0]), scaled, out=scaled)
    nm = real.d.shape[0]
    if real.form == "S":
        big_s = _kron_eye(args[0], real.m)
        # A broadcast subtraction buffers up to 8192 entries (128 KiB); in
        # blocks of about 2048 entries it buffers no more than a block.
        step = max(1, 2**11 // nm**2)
        for start in range(0, len(big_s), step):
            big_s[start : start + step] -= real.d
        return big_s
    core = np.empty((len(args[0]), 2 * nm, 2 * nm), dtype=complex)
    core[:, :nm, :nm] = -real.d
    _kron_eye(args[0], real.m, core[:, :nm, nm:])
    lower = real.dt @ _kron_eye(args[1], real.m)
    core[:, nm:, :nm] = np.negative(lower, out=lower)
    core[:, nm:, nm:] = np.eye(nm)
    return core


def _kron_eye(s: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """``kron(s[i], I_m)`` for each ``i``, written into ``out`` (a new stack
    if not given) bit for bit as ``np.kron`` forms it, each entry of ``s``
    times ``1+0j`` or ``0j``: one strided slice of ``out`` per entry of
    ``I_m``, so no temporary is larger than a slice."""
    if out is None:
        out = np.empty((len(s), s.shape[1] * m, s.shape[2] * m), dtype=complex)
    for a in range(m):
        for b in range(m):
            np.multiply(s, 1.0 if a == b else 0.0, out=out[:, a::m, b::m])
    return out


def _scaled(z: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``z[:, None, None] * block``, rounded at any batch size as at one point:
    numpy forms a 1x1 block's products by the textbook formula at one point
    but by a fused SIMD loop at more, so that case is written out here."""
    z = z[:, None, None]
    if block.size > 1:
        return z * block
    parts = [z.real * block.real - z.imag * block.imag, z.real * block.imag + z.imag * block.real]
    return np.stack(parts, axis=-1).view(complex)[..., 0]


def _value(real: Realization, args, x: np.ndarray) -> np.ndarray:
    if real.form == "z":
        return real.a + args[0][:, None, None] * (real.b @ x)
    if real.form == "S":
        return real.a + real.b @ x
    x_plus = x[:, : real.d.shape[0], :]
    big_r = _kron_eye(args[1], real.m)
    return real.a + np.concatenate([real.b @ x_plus, (real.bt @ big_r) @ x_plus], axis=1)


def evaluate(real: Realization, args, tol: Tolerances = DEFAULT_TOLERANCES):
    """Guarded values at ``k`` stacked arguments: ``(values, sigma_min, regular)``.

    A point is regular when its system is finite, clears the guard
    ``sigma_min > surface_guard * sigma_max`` and gives a finite value.
    ``values[i]`` is NaN where the point is not regular; ``sigma_min[i]`` is
    NaN where the system is not finite.  The whole stack is solved in one
    pass (:func:`~colligations.linalg.guarded_solve`), a non-finite system
    replaced by the identity, and let go once its SVD has read it.
    """
    # Huge arguments overflow; the point's system or value is then not
    # finite, which is reported per point rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        x, sigma, passed = guarded_solve(system(real, args), real.c, tol)
        values = _value(real, args, x)
        regular = passed & np.isfinite(values).all(axis=(1, 2))
    values[~regular] = np.nan
    return values, sigma, regular


def surface_indicators(real: Realization, args) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and smallest singular value of the systems at ``k`` stacked
    arguments.  Both are NaN where a system is not finite, and a determinant
    that overflows is not finite; as in :func:`evaluate`, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        systems = system(real, args)
        finite = identity_where_not_finite(systems)
        sigma = np.linalg.svd(systems, compute_uv=False)[:, -1]
        dets = np.linalg.det(systems)
    sigma[~finite] = np.nan
    dets[~finite] = np.nan
    return dets, sigma


def not_regular(real: Realization, args, k: int, sigma: float) -> Exception:
    """The error for point ``k`` of ``args``, at which ``real`` is not
    regular: near a pole for the ``"z"`` form, on the eigensurface otherwise."""
    if real.form == "z":
        return NearPole(sigma, f"argument z={complex(args[0][k])} lies at or near a pole")
    if real.form == "S":
        return OnEigensurface(sigma, "argument lies on the eigensurface")
    return OnEigensurface(sigma, "arguments lie on the eigensurface")


def charvalues(reals, args, tol: Tolerances):
    """Yield each point's :class:`CharValue` of every realization in ``reals``
    from one :func:`evaluate` call each; a point that is not regular raises
    :func:`not_regular` where a loop over the points, then ``reals``, would."""
    outcomes = [evaluate(real, args, tol) for real in reals]
    for k in range(len(args[0])):
        for real, (_, sigma, regular) in zip(reals, outcomes):
            if not regular[k]:
                raise not_regular(real, args, k, sigma[k])
        yield [CharValue(values[k], float(sigma[k])) for values, sigma, _ in outcomes]


def charvalue(real: Realization, args, tol: Tolerances) -> CharValue:
    """:func:`charvalues` at the one point ``args``."""
    return next(charvalues([real], [np.asarray(arg)[None] for arg in args], tol))[0]
