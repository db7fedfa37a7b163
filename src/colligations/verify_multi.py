"""The ``verify`` suites of several-variable families (``multi-*``,
``single-vs-multi``, ``surface-consistency``)."""

import numpy as np

from .errors import NearPole, OnEigensurface
from .linalg import complex_gauss, near_singular, op_norm, rel_defect, sigma_extremes, unitarity_defect
from .colligation import _charvalues, random_colligation
from .documents import KIND_TABLE
from . import multi
from .verify import (
    EXPANSION_SLACK, RATIONAL_FIT_TOL, _FLOOR, _KINDS, TrialResult, _ball, _capped_dims, _conditioned, _draw,
    _evaluate, _haar, _multi_dims, _retrying, _suite, _unit_sphere, _value, _well_conditioned,
)
from .verify_matrix import (
    _at_value, _dilation, _expanding, _invariant, _multiplicative, _observational, _oracle, _rational,
    _register, _unitary,
)


_register("multi", [
    ("multi-oracle", "the several-variable value matches the interleaved full-system solve", _oracle, None),
    ("multi-multiplicative", "slotwise products multiply the several-variable values", _multiplicative, None),
    ("multi-conjugation-invariant", "shared inner conjugation leaves the several-variable value unchanged",
     _invariant, None),
    ("multi-expanding", "values on the closed argument ball expand in every direction",
     _at_value(_ball(0.95), _expanding), EXPANSION_SLACK),
    ("multi-boundary-unitary", "unitary arguments give unitary several-variable values",
     _at_value(_haar, _unitary), None),
    ("multi-dilation", "diagonal dilations conjugate the several-variable value", _dilation, None),
    ("multi-rational", "entries are rational of the sharp degree along a generic line", _rational, RATIONAL_FIT_TOL),
])


@_suite("multi-reflection", "inverting the adjoint argument inverts the adjoint value")
def _multi_reflection(rng, dims, tol):
    _, real, _, arity = _KINDS["multi"].family(rng, dims, tol)

    def draw():
        s = _well_conditioned(rng, arity)
        reflected = np.linalg.inv(s.conj().T)
        (value,), (reflected_value,) = (_evaluate([real], [arg], tol) for arg in (s, reflected))
        value = _value(value)
        _conditioned(value, _FLOOR.surface_guard)
        return value, _value(reflected_value)

    value, reflected_value = _retrying(draw)
    target = np.linalg.inv(value.conj().T)
    return TrialResult(rel_defect(reflected_value, target))


@_suite(
    "multi-boundary-inverse-experiment",
    "observation: how far values drift from isometry on the non-unitary sphere",
    aggregate=_observational,
)
def _multi_boundary_inverse_experiment(rng, dims, tol):
    alpha, inner, _ = _multi_dims(rng, dims)
    arity = _draw(rng, 2, max(2, min(3, dims.max_arity)))
    real = KIND_TABLE["multi"].realize(multi.random_multi(alpha, inner, arity, rng), tol)
    _, (value,) = _KINDS["multi"].args(rng, arity, [real], tol, _unit_sphere)
    value = _value(value)
    smin, _ = sigma_extremes(value)
    detail = f"smin(value)-1={smin - 1.0:+.3e} unitarity={unitarity_defect(value):.3e}"
    return TrialResult(max(0.0, 1.0 - smin), detail)


@_suite("surface-consistency", "determinant and singular-value surface tests agree with evaluation", budget=0.5)
def _surface_consistency(rng, dims, tol):
    alpha, inner, arity = _capped_dims(3, 2, 2)(rng, dims)
    mc = multi.random_multi(alpha, inner, arity, rng)
    nm = arity * inner

    def draw():
        s = complex_gauss(rng, arity, arity)
        system = multi.elimination_matrix(mc, s)
        _conditioned(system, 0.05)
        return s, system

    s, system = _retrying(draw)
    problems = []
    if abs(np.linalg.det(system)) <= tol.surface_guard * op_norm(system) ** nm:
        problems.append("generic point flagged by the determinant test")
    try:
        multi.multi_charfun(mc, s, tol)
    except OnEigensurface:
        problems.append("generic point rejected by evaluation")
    # A scalar matrix built from an inner eigenvalue lies on the surface.
    member = _draw(rng, 0, arity - 1)
    eigenvalues = np.linalg.eigvals(mc.members[member].d)
    mu = eigenvalues[_draw(rng, 0, inner - 1)]
    on = np.eye(arity, dtype=complex) * mu
    system = multi.elimination_matrix(mc, on)
    if not near_singular(system, tol.surface_guard):
        problems.append("planted point not flagged by the singular-value test")
    if abs(np.linalg.det(system)) > tol.surface_guard * max(op_norm(system), 1.0) ** nm:
        problems.append("planted point not flagged by the determinant test")
    try:
        multi.multi_charfun(mc, on, tol)
        problems.append("planted point accepted by evaluation")
    except OnEigensurface:
        pass
    return TrialResult(0.0 if not problems else 1.0, "; ".join(problems))


@_suite("single-vs-multi", "a one-member family evaluates like the one-variable transfer at the inverse point")
def _single_vs_multi(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    inner = _draw(rng, 1, dims.max_inner)
    col = random_colligation(alpha, inner, rng)
    real = KIND_TABLE["multi"].realize(multi.MultiColligation([col]), tol)

    def draw():
        s = rng.uniform(0.4, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        (value,) = _evaluate([real], [np.array([[s]])], tol)
        ((single,),) = _charvalues([col], [1.0 / s], tol)
        return value, single.value

    value, single = _retrying(draw, NearPole)
    return TrialResult(rel_defect(_value(value), single))
