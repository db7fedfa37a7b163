"""The ``verify`` suites over relation-valued arguments."""

import numpy as np

from .errors import BadSplit
from .linalg import complex_gauss, signature_form
from .documents import KIND_TABLE
from . import linalg, multi, relations
from .verify import (
    CONTAINMENT_TOL, GRAPH_TOL, TrialResult, _capped_dims, _draw, _evaluate, _retrying, _Retry, _suite, _value,
)


_relation_dims = _capped_dims(2, 3, 3)


@_suite("relation-compose", "relation composition matches matrix composition on graphs", budget=GRAPH_TOL)
def _relation_compose(rng, dims, tol):
    # The three spaces are exposed spaces: ``max_alpha`` bounds them.
    dv, dm, dw = (_draw(rng, 1, min(3, dims.max_alpha)) for _ in range(3))
    a = complex_gauss(rng, dm, dv)
    b = complex_gauss(rng, dw, dm)
    composed = relations.compose_relations(
        relations.graph_relation(a, tol), relations.graph_relation(b, tol), tol
    )
    defect = relations.subspace_distance(composed, relations.graph_relation(b @ a, tol))
    # Composing with an identity graph must not move a general relation.
    k = _draw(rng, 1, dv + dm)
    basis = np.linalg.qr(complex_gauss(rng, dv + dm, k))[0]
    rel = relations.LinearRelation(dv, dm, basis, tol)
    neutral = relations.compose_relations(rel, relations.identity_relation(dm, tol), tol)
    defect = max(defect, relations.subspace_distance(neutral, rel))
    return TrialResult(defect)


def _containment(draw_constraint):
    """Decorator: the containment law at a constraint drawn, with retries, by
    ``draw_constraint(rng, arity, (prod, first, second), tol)``; a draw whose
    equations are rank deficient (:class:`BadSplit`) is drawn again."""

    def trial(rng, dims, tol):
        alpha, _, arity = _relation_dims(rng, dims)
        first = multi.random_multi(alpha, _draw(rng, 1, min(3, dims.max_inner)), arity, rng)
        second = multi.random_multi(alpha, _draw(rng, 1, min(3, dims.max_inner)), arity, rng)
        prod = multi.multi_product(first, second, tol)
        constraint = _retrying(lambda: draw_constraint(rng, arity, (prod, first, second), tol), BadSplit)
        big = relations.char_relation(prod, constraint, tol)
        small = relations.compose_relations(
            relations.char_relation(second, constraint, tol),
            relations.char_relation(first, constraint, tol),
            tol,
        )
        detail = f"dims big={big.dim} small={small.dim}"
        return TrialResult(relations.containment_residual(big, small), detail)

    return trial


@_suite("relation-containment", "the composed factor relations sit inside the product relation",
        budget=CONTAINMENT_TOL)
@_containment
def _relation_containment(rng, arity, families, tol):
    constraint = relations.ConstraintSubspace.from_equations(
        complex_gauss(rng, arity, arity), complex_gauss(rng, arity, arity), tol
    )
    for fam in families:
        if relations.on_eigensurface(fam, constraint, tol):
            raise _Retry
    return constraint


@_suite("relation-containment-surface", "the containment persists on the eigensurface", budget=CONTAINMENT_TOL)
@_containment
def _relation_containment_surface(rng, arity, families, tol):
    prod = families[0]
    member = _draw(rng, 0, arity - 1)
    d = prod.members[member].d
    values, vectors = np.linalg.eig(d)
    idx = _draw(rng, 0, len(values) - 1)
    mu, xi = values[idx], vectors[:, idx]
    if np.linalg.norm(d @ xi - mu * xi) > 1e-10 * max(1.0, np.linalg.norm(d)):
        raise _Retry
    sigma = complex_gauss(rng, arity, arity)
    s = complex_gauss(rng, arity, arity)
    s[:, member] = -mu * sigma[:, member]
    constraint = relations.ConstraintSubspace.from_equations(s, sigma, tol)
    if not relations.on_eigensurface(prod, constraint, tol):
        raise _Retry
    return constraint


@_suite("relation-definiteness", "a definite constraint subspace forces the opposite definiteness downstream",
        budget=0.5)
def _relation_definiteness(rng, dims, tol):
    alpha = _draw(rng, 1, min(2, dims.max_alpha))
    arity = _draw(rng, 1, min(3, dims.max_arity))
    # Strictness of the downstream definiteness needs an inner space at least
    # as large as the exposed one.
    inner = _draw(rng, alpha, max(alpha, min(3, dims.max_inner)))
    mc = multi.random_multi(alpha, inner, arity, rng)

    def draw():
        s = linalg.sample_ball(rng, arity, 0.9)
        constraint = relations.ConstraintSubspace.graph_of(s, tol)
        relation = relations.char_relation(mc, constraint, tol)
        if relation.dim != arity * alpha:
            raise _Retry
        return constraint, relation

    constraint, relation = _retrying(draw)
    problems = []
    upstairs = relations.form_on_subspace(signature_form(arity, arity), constraint.basis(), tol)
    if upstairs != "positive-definite":
        problems.append(f"constraint side classified {upstairs}")
    na = arity * alpha
    downstairs = relations.form_on_subspace(signature_form(na, na), relation.basis, tol)
    if downstairs != "negative-definite":
        problems.append(f"relation side classified {downstairs}")
    return TrialResult(0.0 if not problems else 1.0, "; ".join(problems))


@_suite("relation-charfun-consistency", "off the surface the relation is the graph of the evaluated function",
        budget=GRAPH_TOL)
def _relation_charfun_consistency(rng, dims, tol):
    alpha, inner, arity = _relation_dims(rng, dims)
    mc = multi.random_multi(alpha, inner, arity, rng)
    real = KIND_TABLE["multi"].realize(mc, tol)

    def draw():
        s = complex_gauss(rng, arity, arity)
        return s, _evaluate([real], [s], tol)

    s, (chi,) = _retrying(draw)
    relation = relations.char_relation(mc, relations.ConstraintSubspace.graph_of(s, tol), tol)
    graph = relations.graph_relation(_value(chi), tol)
    defect = relations.subspace_distance(relation, graph)
    # The equation and basis presentations must cut out the same relation.
    rebuilt = relations.ConstraintSubspace.from_basis(
        relations.ConstraintSubspace.graph_of(s, tol).basis(), tol
    )
    defect = max(defect, relations.subspace_distance(relation, relations.char_relation(mc, rebuilt, tol)))
    return TrialResult(defect)
