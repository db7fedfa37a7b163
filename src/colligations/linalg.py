"""Dense complex linear algebra substrate.

Everything downstream goes through the helpers here: operator norms, guarded
linear solves, rank-revealing kernels, and seeded Haar-distributed random
matrices.  All routines are pure functions of their inputs; randomness enters
only through explicit seeds or generators.
"""

from __future__ import annotations

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
    "guarded_solve",
    "identity_where_not_finite",
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
    """Smallest and largest singular value of ``m``."""
    a = _as_complex(m)
    if a.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1]), float(s[0])


def guarded_solve(consumed: np.ndarray, rhs: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Solve a stack of square systems through one stacked SVD, guarded per system.

    ``consumed`` is a ``(k, N, N)`` stack that the solve may overwrite and
    let go, ``rhs`` one ``(N, q)`` right-hand side for all of them.  Returns
    ``(x, sigma_min, passed)``: system ``i`` passes when it is finite and
    ``sigma_min[i] > surface_guard * sigma_max[i]``, and ``x[i]`` is its
    solution, meaningful only where ``passed[i]``.  Every system is solved,
    so an exactly singular one gives infinite or NaN entries there, without
    a warning.  Each non-finite system is overwritten in ``consumed`` by the
    identity (:func:`identity_where_not_finite`), and its ``sigma_min`` is
    NaN.  The stack is let go once the SVD has read it, so a caller that
    passes it as a temporary frees it then.
    """
    finite = identity_where_not_finite(consumed)
    u, s, vh = np.linalg.svd(consumed)
    del consumed
    sigma_min = s[:, -1]
    passed = finite & (sigma_min > tol.surface_guard * s[:, 0])
    # Each adjoint is a transposed view of its stack conjugated in place, so
    # no stack is copied; u is let go before the second product.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.conjugate(u, out=u).swapaxes(-1, -2) @ rhs
        del u
        y /= s[:, :, None]
        x = np.conjugate(vh, out=vh).swapaxes(-1, -2) @ y
    sigma_min[~finite] = np.nan
    return x, sigma_min, passed


def identity_where_not_finite(systems: np.ndarray) -> np.ndarray:
    """Overwrite each non-finite system of the ``(k, N, N)`` stack in place
    by the identity, so that a stacked factorization accepts it; the mask of
    the finite ones.  A caller reports the overwritten ones with a NaN
    ``sigma_min``."""
    finite = np.isfinite(systems).all(axis=(1, 2))
    systems[~finite] = np.eye(systems.shape[1])
    return finite


def solve(m, rhs, tol: Tolerances = DEFAULT_TOLERANCES):
    """Solve ``m @ x = rhs`` for square ``m``, guarding against singularity.

    Returns ``(x, sigma_min)`` where ``sigma_min`` is the smallest singular
    value of ``m``.  Raises :class:`NearSingular` when
    ``sigma_min <= surface_guard * sigma_max``.
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
    x, sigma, passed = guarded_solve(a[None], b, tol)
    if not passed[0]:
        raise NearSingular(sigma[0], "linear system is singular or nearly so")
    return (x[0, :, 0] if vector_rhs else x[0]), float(sigma[0])


def solve_coupled(system: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The brute-force oracles' dense LU solve, kept apart from the kernel's
    SVD solve; :class:`OnEigensurface` unless ``sigma_min > surface_guard * sigma_max``."""
    smin, smax = sigma_extremes(system)
    if smax == 0.0 or smin <= tol.surface_guard * smax:
        raise OnEigensurface(smin, "coupled system is singular")
    return np.linalg.solve(system, rhs)


def _rank(s: np.ndarray, rtol: float) -> int:
    """Count of the descending singular values ``s`` above ``rtol`` times the largest."""
    smax = float(s[0])
    return int(np.sum(s > rtol * smax)) if smax > 0.0 else 0


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
    _, s, vh = np.linalg.svd(a)
    return vh[_rank(s, rtol) :].conj().T


def orthonormal_columns(m, rtol: float) -> np.ndarray:
    """Orthonormal basis for the column span of ``m``, rank-truncated."""
    a = _as_complex(m)
    if a.shape[1] == 0 or not a.any():
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _rank(s, rtol)]


def unitarity_defect(u) -> float:
    """Frobenius defect of ``u* u = 1``, scaled by the matrix dimension."""
    a = _as_complex(u)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        return float("inf")
    if dim == 0:
        return 0.0
    gram = a.conj().T @ a
    return float(np.linalg.norm(gram - np.eye(dim)) / np.sqrt(dim))


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
