"""Linear relations and the subspace-valued characteristic map.

A linear relation between V and W is just a subspace of the direct sum,
stored by an orthonormal column basis.  Graphs of matrices are relations,
relations compose by matching the middle coordinate, and the construction
below extends a family's characteristic function to a relation between the
exposed input and output spaces that stays well-defined on the eigensurface,
where the function itself has no value.

Constraint subspaces play the role of the matrix argument: an ``n``-dimensional
subspace of C^n + C^n, held as the ``n`` linear equations
``sum_j s_ij v_j + sum_j sigma_ij w_j = 0`` that cut it out (a basis is
turned into such equations once).  The equations lift slotwise to the inner
channels of a family.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityMismatch, BadSplit
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    kernel,
    near_singular,
    op_norm,
    orthonormal_columns,
)
from .multi import MultiColligation, multi_realization

__all__ = [
    "LinearRelation",
    "graph_relation",
    "identity_relation",
    "compose_relations",
    "containment_residual",
    "contains",
    "subspace_distance",
    "ConstraintSubspace",
    "on_eigensurface",
    "char_relation",
    "form_on_subspace",
]


class LinearRelation:
    """Subspace of V + W with an orthonormal column basis."""

    __slots__ = ("dim_v", "dim_w", "basis")

    def __init__(self, dim_v: int, dim_w: int, basis, tol: Tolerances = DEFAULT_TOLERANCES):
        b = np.array(basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != dim_v + dim_w:
            raise BadSplit(f"basis must have {dim_v + dim_w} rows, got shape {b.shape}")
        if b.shape[1]:
            gram = b.conj().T @ b
            defect = np.linalg.norm(gram - np.eye(b.shape[1]))
            # Written as ``not <=`` so that a NaN defect fails too, as in the
            # other tolerance checks of this module.
            if not defect <= tol.unitarity_tol * max(1.0, np.sqrt(b.shape[1])):
                raise BadSplit(f"basis columns are not orthonormal (defect {defect:.3e})")
        b.flags.writeable = False
        self.dim_v = int(dim_v)
        self.dim_w = int(dim_w)
        self.basis = b

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def v_part(self) -> np.ndarray:
        return self.basis[: self.dim_v, :]

    @property
    def w_part(self) -> np.ndarray:
        return self.basis[self.dim_v :, :]

    def __repr__(self):
        return f"LinearRelation({self.dim_v}->{self.dim_w}, dim={self.dim})"


def graph_relation(matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> LinearRelation:
    """The graph ``{v + Av}`` of a matrix ``A: V -> W`` as a relation."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise BadSplit(f"graph needs a matrix, got shape {a.shape}")
    dim_w, dim_v = a.shape
    stacked = np.vstack([np.eye(dim_v, dtype=complex), a])
    q, _ = np.linalg.qr(stacked)
    return LinearRelation(dim_v, dim_w, q, tol)


def identity_relation(dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> LinearRelation:
    return graph_relation(np.eye(dim), tol)


def compose_relations(
    first: LinearRelation, second: LinearRelation, tol: Tolerances = DEFAULT_TOLERANCES
) -> LinearRelation:
    """Relation ``{v + y : exists w with v + w in first, w + y in second}``.

    For graphs this is graph composition: composing graph(A) with graph(B)
    gives graph(B A).
    """
    if first.dim_w != second.dim_v:
        raise BadSplit(
            f"middle dimensions differ: {first.dim_w} vs {second.dim_v}"
        )
    k1, k2 = first.dim, second.dim
    if k1 == 0 or k2 == 0:
        empty = np.zeros((first.dim_v + second.dim_w, 0), dtype=complex)
        return LinearRelation(first.dim_v, second.dim_w, empty, tol)
    # Coefficient pairs whose middle coordinates agree.
    match = np.hstack([first.w_part, -second.v_part])
    coeffs = kernel(match, tol.rank_tol)
    tops = first.v_part @ coeffs[:k1, :]
    bottoms = second.w_part @ coeffs[k1:, :]
    basis = orthonormal_columns(np.vstack([tops, bottoms]), tol.rank_tol)
    return LinearRelation(first.dim_v, second.dim_w, basis, tol)


def containment_residual(big: LinearRelation, small: LinearRelation) -> float:
    """How far ``small`` sticks out of ``big``: the operator norm of the part
    of its basis outside ``big`` (0.0 for an empty ``small``)."""
    if (big.dim_v, big.dim_w) != (small.dim_v, small.dim_w):
        raise BadSplit("relations live on different spaces")
    if small.dim == 0:
        return 0.0
    return op_norm(small.basis - big.basis @ (big.basis.conj().T @ small.basis))


def contains(big: LinearRelation, small: LinearRelation, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether ``small`` lies in ``big``: its :func:`containment_residual` within rank_tol."""
    return containment_residual(big, small) <= tol.rank_tol


def subspace_distance(x: LinearRelation, y: LinearRelation) -> float:
    """Operator norm distance between the orthogonal projectors."""
    if (x.dim_v, x.dim_w) != (y.dim_v, y.dim_w):
        raise BadSplit("relations live on different spaces")
    px = x.basis @ x.basis.conj().T
    py = y.basis @ y.basis.conj().T
    return op_norm(px - py)


class ConstraintSubspace:
    """n-dimensional subspace of C^n + C^n used as a relation-valued argument.

    Held as its equations: an ``n x 2n`` full-rank matrix ``[s | sigma]``
    whose kernel is the subspace.
    """

    __slots__ = ("n", "_equations", "_tol")

    def __init__(self, equations, tol: Tolerances = DEFAULT_TOLERANCES):
        eq = np.array(equations, dtype=complex)
        if eq.ndim != 2 or eq.shape[0] < 1 or eq.shape[1] != 2 * eq.shape[0]:
            raise BadSplit(f"equations must be n x 2n with n >= 1, got shape {eq.shape}")
        if near_singular(eq, tol.rank_tol):
            raise BadSplit("equation rows are rank deficient")
        eq.flags.writeable = False
        self.n = eq.shape[0]
        self._equations = eq
        self._tol = tol

    @classmethod
    def from_equations(cls, s, sigma, tol: Tolerances = DEFAULT_TOLERANCES) -> "ConstraintSubspace":
        s = np.asarray(s, dtype=complex)
        sigma = np.asarray(sigma, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape != sigma.shape:
            raise BadSplit(f"coefficient blocks must be square and equal-shaped, got {s.shape} and {sigma.shape}")
        return cls(np.hstack([s, sigma]), tol)

    @classmethod
    def from_basis(cls, basis, tol: Tolerances = DEFAULT_TOLERANCES) -> "ConstraintSubspace":
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != 2 * b.shape[1]:
            raise BadSplit(f"basis must be 2n x n, got {b.shape}")
        n = b.shape[1]
        gram = b.conj().T @ b
        if not np.linalg.norm(gram - np.eye(n)) <= tol.unitarity_tol * max(1.0, np.sqrt(n)):
            raise BadSplit("basis columns are not orthonormal")
        # Rows annihilating the basis under the plain (bilinear) pairing.
        rows = kernel(b.T, tol.rank_tol).T
        if rows.shape[0] != n:
            raise BadSplit("basis does not determine a full equation system")
        return cls(rows, tol)

    @classmethod
    def graph_of(cls, s, tol: Tolerances = DEFAULT_TOLERANCES) -> "ConstraintSubspace":
        """The subspace ``{(v, S v)}``, i.e. equations ``S v - w = 0``."""
        s = np.asarray(s, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise BadSplit(f"graph needs a square matrix, got {s.shape}")
        return cls.from_equations(s, -np.eye(s.shape[0]), tol)

    def equations(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient blocks ``(s, sigma)`` of the defining equation system."""
        return self._equations[:, : self.n].copy(), self._equations[:, self.n :].copy()

    def basis(self) -> np.ndarray:
        """An orthonormal basis of the subspace, the kernel of the equations."""
        b = kernel(self._equations, self._tol.rank_tol)
        if b.shape[1] != self.n:
            raise BadSplit("equations do not cut out an n-dimensional subspace")
        return b

    def __repr__(self):
        return f"ConstraintSubspace(n={self.n})"


def _surface_system(mc: MultiColligation, d: np.ndarray, constraint: ConstraintSubspace) -> np.ndarray:
    # Stacked system on (x, y): inner dynamics y = d x, d the family's
    # block-diagonal inner block, plus the slotwise-lifted constraint equations.
    if constraint.n != mc.arity:
        raise ArityMismatch(f"constraint has {constraint.n} slots, family has {mc.arity}")
    s, sigma = constraint.equations()
    eye_m = np.eye(mc.inner)
    top = np.hstack([-d, np.eye(mc.arity * mc.inner)])
    bottom = np.hstack([np.kron(s, eye_m), np.kron(sigma, eye_m)])
    return np.vstack([top, bottom])


def on_eigensurface(
    mc: MultiColligation, constraint: ConstraintSubspace, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Whether the constraint subspace meets the family's eigensurface.

    Decided by the smallest relative singular value of the stacked system.
    """
    return near_singular(_surface_system(mc, multi_realization(mc).d, constraint), tol.surface_guard)


def char_relation(
    mc: MultiColligation, constraint: ConstraintSubspace, tol: Tolerances = DEFAULT_TOLERANCES
) -> LinearRelation:
    """Characteristic relation of the family at a constraint subspace.

    The solution set of the full linear system in (p, q, x, y), projected to
    the exposed coordinates (p, q).  Off the eigensurface this is the graph
    of the characteristic function; on it the relation is still defined.
    """
    real = multi_realization(mc)
    lower = _surface_system(mc, real.d, constraint)
    na, nm = mc.arity * mc.alpha, mc.arity * mc.inner
    # Columns ordered (p, q, x, y): the output rows q = A p + B x, then the
    # (x, y) system with y = C p + D x.
    exposed = np.zeros((2 * nm, 2 * na), dtype=complex)
    exposed[:nm, :na] = -real.c
    system = np.vstack(
        [
            np.hstack([-real.a, np.eye(na), -real.b, np.zeros((na, nm))]),
            np.hstack([exposed, lower]),
        ]
    )
    solutions = kernel(system, tol.rank_tol)
    basis = orthonormal_columns(solutions[: 2 * na, :], tol.rank_tol)
    return LinearRelation(na, na, basis, tol)


def form_on_subspace(form, basis, tol: Tolerances = DEFAULT_TOLERANCES) -> str:
    """Classify a Hermitian form restricted to a subspace.

    Returns one of ``"positive-definite"``, ``"negative-definite"``,
    ``"indefinite"``, ``"degenerate"``.  Eigenvalues of the compressed form
    within ``rank_tol`` of zero (relatively) count as degenerate.
    """
    j = np.asarray(form, dtype=complex)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise BadSplit(f"form matrix must be square, got {j.shape}")
    if not np.linalg.norm(j - j.conj().T) <= tol.rank_tol * max(1.0, np.linalg.norm(j)):
        raise BadSplit("form matrix must be Hermitian")
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != j.shape[0]:
        raise BadSplit(f"basis rows {b.shape} do not match form dimension {j.shape[0]}")
    if b.shape[1] == 0:
        return "degenerate"
    gram = b.conj().T @ j @ b
    gram = (gram + gram.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(gram)
    threshold = tol.rank_tol * max(1.0, float(np.max(np.abs(eigs))))
    if np.any(np.abs(eigs) <= threshold):
        return "degenerate"
    if np.all(eigs > 0):
        return "positive-definite"
    if np.all(eigs < 0):
        return "negative-definite"
    return "indefinite"
