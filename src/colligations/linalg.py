"""Dense complex linear algebra substrate.

Everything downstream goes through the helpers here: operator norms, guarded
dense LU solves, rank-revealing kernels, and seeded Haar-distributed random
matrices.  All routines are pure functions of their inputs; randomness enters
only through explicit seeds or generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, NearSingular, NotOrthogonal, NotUnitary, OnEigensurface

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "CharValue",
    "block_diag",
    "op_norm",
    "sigma_extremes",
    "near_singular",
    "solve",
    "solve_coupled",
    "kernel",
    "orthonormal_columns",
    "unitarity_defect",
    "require_unitary",
    "require_real_orthogonal",
    "haar_unitary",
    "haar_orthogonal",
    "signature_form",
    "rel_defect",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    unitarity_tol
        Relative Frobenius defect allowed when a matrix must be unitary.
    residual_tol
        Relative residual allowed in identities checked numerically.
    rank_tol
        Relative threshold for rank decisions and eigenvalue clustering.
    surface_guard
        Smallest relative singular value below which an eliminated system
        counts as singular (pole / eigensurface detection).
    """

    unitarity_tol: float = 1e-10
    residual_tol: float = 1e-9
    rank_tol: float = 1e-9
    surface_guard: float = 1e-8

    def __post_init__(self):
        for name in ("unitarity_tol", "residual_tol", "rank_tol", "surface_guard"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class CharValue:
    """A characteristic-function value with its regularity certificate.

    ``sigma_min`` is the smallest singular value of the eliminated linear
    system.  Values are only ever returned for arguments that cleared the
    surface guard; singular ones raise.
    """

    value: np.ndarray
    sigma_min: float


def _as_complex(m, name="matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {a.shape}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_argument(s, n: int, name: str = "argument") -> np.ndarray:
    """A characteristic-function argument as a complex ``n x n`` array.

    A wrong shape raises :class:`ArityMismatch`, a non-finite entry
    ``ValueError``.
    """
    a = np.asarray(s, dtype=complex)
    if a.shape != (n, n):
        raise ArityMismatch(f"{name} must be {n}x{n}, got {a.shape}")
    return _as_complex(a, name)


def block_diag(*blocks) -> np.ndarray:
    """Complex block-diagonal matrix with the given 2-D blocks in order."""
    blocks = [np.asarray(b) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    row = col = 0
    for b in blocks:
        out[row : row + b.shape[0], col : col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return out


def op_norm(m) -> float:
    """Largest singular value of ``m`` (0.0 for an empty matrix)."""
    return sigma_extremes(m)[1]


def sigma_extremes(m) -> tuple[float, float]:
    """Smallest and largest singular value of ``m`` (inf where one exceeds
    the float range)."""
    a = _as_complex(m)
    if a.size == 0:
        return 0.0, 0.0
    scale, s = _svd(a, compute_uv=False)
    return float(s[-1]) / scale, float(s[0]) / scale


def near_singular(m, ratio: float) -> bool:
    """Whether the smallest singular value of ``m`` is at most ``ratio`` times
    the largest (an empty or zero ``m`` is), read from :func:`_svd`'s scaled
    values so that it holds where a singular value overflows."""
    a = _as_complex(m)
    return a.size == 0 or not _clears(_svd(a, compute_uv=False)[1], ratio)


def _clears(s: np.ndarray, ratio: float):
    """The one guard: the smallest of descending singular values ``s`` (per row) above ``ratio`` times the largest."""
    return s[..., -1] > ratio * s[..., 0]


def _svd(a: np.ndarray, compute_uv: bool, full_matrices: bool = True):
    """``(scale, np.linalg.svd(a * scale, full_matrices, compute_uv))`` for a
    nonempty matrix or ``(k, M, N)`` stack ``a``.  ``scale`` is 1.0 unless the
    largest singular value LAPACK gives a matrix overflows; then it is one factor
    per matrix (an array for a stack), 1.0 but for those, which get the power of
    two that brings every real and imaginary part to at most 1, where none can
    overflow, and are decomposed again; exact but for parts below the normal range."""
    result = np.linalg.svd(a, full_matrices, compute_uv)
    s = result.S if compute_uv else result
    if math.isfinite(s.max(initial=0.0)):
        return 1.0, result
    over = ~np.isfinite(s[..., 0])
    b, scale = a[over], np.ones(over.shape)
    scale[over] = np.ldexp(1.0, -np.frexp(np.abs(b.view(float)).max(axis=(1, 2)))[1])
    again = np.linalg.svd(b * scale[over][:, None, None], full_matrices, compute_uv)
    for part, redone in zip(result, again) if compute_uv else [(result, again)]:
        part[over] = redone
    return (float(scale) if a.ndim == 2 else scale), result


def _guarded_lu(a: np.ndarray, rhs, ratio: float, error: type, message: str):
    """``(np.linalg.solve(a, rhs), sigma_min)`` for a square ``a``, with
    ``sigma_min`` as :func:`sigma_extremes` gives it; ``error(sigma_min,
    message)`` where ``a`` is :func:`near_singular` at ``ratio``.  Where
    :func:`_svd` scaled ``a``, both sides are multiplied by that power of two
    first, so that no pivot overflows; LU with partial pivoting is backward
    stable, so a system that passed the guard needs no SVD to be solved."""
    # An empty matrix counts as singular, with sigma_min 0.
    scale, s = _svd(a, compute_uv=False) if a.size else (1.0, np.zeros(1))
    sigma_min = float(s[-1]) / scale
    if not _clears(s, ratio):
        raise error(sigma_min, message)
    if scale != 1.0:
        a, rhs = a * scale, np.multiply(rhs, scale)
    return np.linalg.solve(a, rhs), sigma_min


def solve(m, rhs, tol: Tolerances = DEFAULT_TOLERANCES):
    """Solve ``m @ x = rhs`` for square ``m``, guarding against singularity.

    Returns ``(x, sigma_min)`` where ``sigma_min`` is the smallest singular
    value of ``m``.  Raises :class:`NearSingular` where ``m`` is
    :func:`near_singular` at ``surface_guard``.
    """
    a = _as_complex(m, "coefficient matrix")
    rows, cols = a.shape
    if rows != cols:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    b = np.asarray(rhs, dtype=complex)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    if b.shape[0] != rows:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {rows}")
    if rows == 0:
        x = np.zeros_like(b)
        return (x[:, 0] if vector_rhs else x), 0.0
    x, sigma = _guarded_lu(a, b, tol.surface_guard, NearSingular, "linear system is singular or nearly so")
    return (x[:, 0] if vector_rhs else x), sigma


def solve_coupled(system: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The brute-force oracles' dense solve, :func:`solve`'s guarded LU;
    :class:`OnEigensurface` where :func:`near_singular` at ``surface_guard``."""
    return _guarded_lu(_as_complex(system), rhs, tol.surface_guard, OnEigensurface, "coupled system is singular")[0]


def _rank(s: np.ndarray, rtol: float) -> int:
    """Count of the descending singular values ``s`` above ``rtol`` times the largest."""
    return int(np.sum(s > rtol * s[0]))


def kernel(m, rtol: float) -> np.ndarray:
    """Orthonormal basis for the null space of ``m``.

    Singular values at or below ``rtol`` times the largest one count as zero.
    """
    a = _as_complex(m)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0 or not a.any():
        return np.eye(cols, dtype=complex)
    _, (_, s, vh) = _svd(a, compute_uv=True)
    return vh[_rank(s, rtol) :].conj().T


def orthonormal_columns(m, rtol: float) -> np.ndarray:
    """Orthonormal basis for the column span of ``m``, rank-truncated."""
    a = _as_complex(m)
    if a.shape[1] == 0 or not a.any():
        return np.zeros((a.shape[0], 0), dtype=complex)
    _, (u, s, _) = _svd(a, compute_uv=True, full_matrices=False)
    return u[:, : _rank(s, rtol)]


def unitarity_defect(u) -> float:
    """Frobenius defect of ``u* u = 1``, scaled by the matrix dimension."""
    a = _as_complex(u)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        return float("inf")
    if dim == 0:
        return 0.0
    # Entries past about 1e154 overflow the Gram matrix; its defect is then
    # inf or NaN, and either reads as inf, so every tolerance rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.linalg.norm(a.conj().T @ a - np.eye(dim)) / np.sqrt(dim))
    return defect if math.isfinite(defect) else float("inf")


def require_unitary(u, tol: Tolerances, what: str = "matrix") -> np.ndarray:
    a = _as_complex(u, what)
    if a.shape[0] != a.shape[1]:
        raise NotUnitary(f"{what} must be square, got shape {a.shape}")
    defect = unitarity_defect(a)
    if defect > tol.unitarity_tol:
        raise NotUnitary(f"{what} is not unitary (defect {defect:.3e} > {tol.unitarity_tol:.1e})")
    return a


def require_real_orthogonal(u, tol: Tolerances, what: str = "matrix") -> np.ndarray:
    a = _as_complex(u, what)
    if a.size and float(np.max(np.abs(a.imag))) > tol.unitarity_tol:
        raise NotOrthogonal(f"{what} must be real")
    try:
        require_unitary(a, tol, what)
    except NotUnitary as err:
        raise NotOrthogonal(str(err)) from None
    return a


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed ``dim x dim`` unitary, deterministic in ``seed`` (or drawn from a Generator).

    QR of a complex Ginibre matrix with the R-diagonal phase normalization,
    which makes the distribution exactly Haar.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return _haar(complex_gauss(np.random.default_rng(seed), dim, dim))


def haar_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-distributed real orthogonal matrix (returned as complex dtype)."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return _haar(np.random.default_rng(seed).standard_normal((dim, dim))).astype(complex)


def _haar(z: np.ndarray) -> np.ndarray:
    """The Q factor of ``z`` with each column scaled by the phase of R's
    diagonal entry (by 1 where it is zero); on a real ``z`` the phases are
    the signs, bit for bit."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def signature_form(plus: int, minus: int) -> np.ndarray:
    """Hermitian form matrix ``diag(+1 x plus, -1 x minus)``."""
    if plus < 0 or minus < 0:
        raise ValueError("signature counts must be nonnegative")
    return np.diag(np.concatenate([np.ones(plus), -np.ones(minus)])).astype(complex)


def rel_defect(x, y) -> float:
    """Norm of ``x - y`` relative to the larger operand, or to 1 if both are smaller."""
    a = np.asarray(x, dtype=complex)
    b = np.asarray(y, dtype=complex)
    scale = max(1.0, op_norm(a), op_norm(b))
    return op_norm(a - b) / scale


# Seeded samplers shared by the verification suites and the command line.

def complex_gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Ginibre ``rows x cols`` matrix: entries ``(N + iN) / sqrt(2)``."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / np.sqrt(2.0)


def sample_disc(rng: np.random.Generator, radius: float = 1.0) -> complex:
    """Uniform sample from the open disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Random ``dim x dim`` matrix with operator norm at most ``radius``."""
    return sample_balls(rng, 1, dim, radius)[0]


def sample_balls(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """``count`` successive :func:`sample_ball` draws, stacked ``(count, dim, dim)``.

    Each point draws a complex Gaussian matrix ``g`` and then, unless ``g``
    is zero, a scale in ``[0.05, 1)``; the point is ``radius * scale / |g|
    * g``.  The draws run point by point in that order, and the operator
    norms come from one stacked SVD.
    """
    g = np.empty((count, dim, dim), dtype=complex)
    scale = np.zeros(count)
    for k in range(count):
        g[k] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if g[k].any():  # only the zero matrix has operator norm 0
            scale[k] = rng.uniform(0.05, 1.0)
    top = np.linalg.svd(g, compute_uv=False)[:, 0] if dim else np.zeros(count)
    zero = top == 0.0
    top[zero] = 1.0
    points = (radius * scale / top)[:, None, None] * g
    points[zero] = 0.0
    return points
