"""The ``verify`` laws over the matrix-argument kinds, and the suites of their families."""

import functools

import numpy as np

from .errors import NearPole, OnEigensurface
from .linalg import (
    complex_gauss, near_singular, op_norm, rel_defect, sigma_extremes, signature_form, unitarity_defect,
)
from .colligation import _charvalues, random_colligation
from .documents import KIND_TABLE, _module
from . import realization
from .verify import (
    CONTROL_THRESHOLD, EXPANSION_SLACK, RATIONAL_FIT_TOL, _FLOOR, _KINDS, TrialResult, _Kind, _Retry, _ball,
    _conditioned, _draw, _evaluate, _haar, _multi_dims, _retrying, _suite,
    _symmetric_ball, _unit_sphere, _value, _well_conditioned,
)


def _polyval(x, c):
    """``numpy.polynomial.polynomial.polyval(x, c)`` for a 1-D ``c``, with its operations in its order."""
    value = c[-1] + x * 0
    for k in range(2, len(c) + 1):
        value = c[-k] + value * x
    return value


def _rational_line_defect(rng, evaluate, degree):
    """Worst held-out error of a degree-bounded rational fit along a line.

    ``evaluate(ts)`` returns one sample per parameter, None where the function
    is singular.  Returns None when too few samples survive; the caller then
    retries with a fresh line.
    """
    count = 2 * (degree + 1) + 8
    offset = rng.uniform(0.0, 1.0)
    train = 0.7 * np.exp(2j * np.pi * (np.arange(count) + offset) / count)
    rows = []
    for t, f in zip(train, evaluate(train)):
        if f is None:
            continue
        powers = t ** np.arange(degree + 1)
        rows.append(np.concatenate([powers, -f * powers]) / max(1.0, abs(f)))
    if len(rows) < 2 * (degree + 1) + 4:
        return None
    _, _, vh = np.linalg.svd(np.array(rows))
    coeffs = vh[-1].conj()
    num, den = coeffs[: degree + 1], coeffs[degree + 1 :]
    den_scale = float(np.abs(_polyval(train, den)).max())
    if den_scale == 0.0:
        return None
    holdout = 0.55 * np.exp(2j * np.pi * (np.arange(10) + rng.uniform(0.0, 1.0)) / 10)
    worst, used = 0.0, 0
    for t, f in zip(holdout, evaluate(holdout)):
        q = complex(_polyval(t, den))
        if f is None or abs(q) < 1e-8 * den_scale:
            continue
        p = complex(_polyval(t, num))
        worst = max(worst, abs(p / q - f) / max(1.0, abs(f)))
        used += 1
    return worst if used >= 5 else None


def _control(results: list[TrialResult], seed: int, threshold: float) -> list[dict]:
    """Aggregate of the negative control: its law must break by ``threshold`` somewhere."""
    worst = max((r.defect for r in results), default=0.0)
    if worst >= threshold:
        return []
    return [
        {
            "trial": -1,
            "seed": seed,
            "defect": worst,
            "budget": threshold,
            "detail": "the diagonal dilation law held on every coupled-slot instance; "
            "the slot coupling appears to be inert",
        }
    ]


def _observational(results: list[TrialResult], seed: int, budget: float) -> list[dict]:
    return []


# A law is a trial with the kind bound first (``functools.partial``).
def _oracle(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, _, arity = kind.family(rng, dims, tol)
    args, (chi,) = kind.args(rng, arity, [real], tol)
    return TrialResult(rel_defect(_value(chi), kind.oracle(fam, args, tol)))


def _multiplicative(kind: _Kind, rng, dims, tol) -> TrialResult:
    alpha, _, arity = kind.dims(rng, dims)
    x = kind.spec.random(alpha, _draw(rng, 1, min(kind.inner_cap, dims.max_inner)), arity, rng)
    y = kind.spec.random(alpha, _draw(rng, 1, min(kind.inner_cap, dims.max_inner)), arity, rng)
    reals = [kind.spec.realize(fam, tol) for fam in (kind.spec.product(x, y, tol), x, y)]
    _, outcomes = kind.args(rng, arity, reals, tol)
    vp, vx, vy = (_value(outcome) for outcome in outcomes)
    return TrialResult(rel_defect(vp, vx @ vy))


def _invariant(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, inner, arity = kind.family(rng, dims, tol)
    reals = [real, kind.spec.realize(kind.equivalent(fam, inner, rng, tol), tol)]
    _, outcomes = kind.args(rng, arity, reals, tol)
    return TrialResult(rel_defect(*(_value(outcome) for outcome in outcomes)))


def _at_value(sample, judge):
    """The law that draws one family and one regular point from ``sample``
    and hands the value there to ``judge(fam, chi, rng, tol)``."""

    def law(kind: _Kind, rng, dims, tol) -> TrialResult:
        fam, real, _, arity = kind.family(rng, dims, tol)
        _, (chi,) = kind.args(rng, arity, [real], tol, sample)
        return judge(fam, _value(chi), rng, tol)

    return law


def _expanding(fam, chi, rng, tol) -> TrialResult:
    smin, _ = sigma_extremes(chi)
    return TrialResult(max(0.0, 1.0 - smin))


def _unitary(fam, chi, rng, tol) -> TrialResult:
    return TrialResult(unitarity_defect(chi))


def _form_increase(fam, chi, rng, tol) -> TrialResult:
    na = fam.arity * fam.alpha
    form = signature_form(na, na)
    size = form.shape[0]
    probes = np.random.default_rng(_draw(rng, 0, 2**31 - 1))
    increases = []
    for _ in range(8):  # M(chi p, chi p) - M(p, p) at random probes p
        p = probes.standard_normal(size) + 1j * probes.standard_normal(size)
        q = chi @ p
        increases.append(float(np.real(q.conj() @ form @ q)) - float(np.real(p.conj() @ form @ p)))
    smallest = min(increases)
    return TrialResult(max(0.0, -smallest), f"smallest increase {smallest:.3e}")


def _pseudo_unitary(fam, chi, rng, tol) -> TrialResult:
    na = fam.arity * fam.alpha
    form = signature_form(na, na)
    defect = op_norm(chi.conj().T @ form @ chi - form) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect)


def _symplectic(fam, chi, rng, tol) -> TrialResult:
    skew = _module("doublecoset").skew_form(fam.arity, fam.alpha)
    defect = op_norm(chi.T @ skew @ chi - skew) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect)


def _dilation(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, _, arity = kind.family(rng, dims, tol)

    def draw():
        args, (chi,) = kind.args(rng, arity, [real], tol)
        lam = rng.uniform(0.5, 2.0, size=arity) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=arity))
        return kind.dilation(fam, args, _value(chi), lam, tol)

    left, right = _retrying(draw, OnEigensurface)
    return TrialResult(rel_defect(left, right))


def _rational(kind: _Kind, rng, dims, tol) -> TrialResult:
    """Each argument in turn moves along a random line, the others held."""
    _, real, inner, arity = kind.family(rng, dims, tol)
    degree = arity * inner
    size = real.a.shape[0]
    row, col = _draw(rng, 0, size - 1), _draw(rng, 0, size - 1)
    count = len(kind.spec.variables)
    worst = 0.0
    for varied in range(count):

        def attempt():
            bases = [complex_gauss(rng, arity, arity) for _ in range(count)]
            direction = complex_gauss(rng, arity, arity)
            direction /= max(op_norm(direction), 1e-300)

            def evaluate(ts):
                points = [[b + t * direction if k == varied else b for k, b in enumerate(bases)] for t in ts]
                values, _, regular = realization.evaluate(real, [np.stack(arg) for arg in zip(*points)], tol)
                return [complex(v) if ok else None for v, ok in zip(values[:, row, col], regular)]

            fit = _rational_line_defect(rng, evaluate, degree)
            if fit is None:
                raise _Retry
            return fit

        worst = max(worst, _retrying(attempt))
    return TrialResult(worst)


# A row: name, description, law, kind and budget (None as in ``Suite.budget``).
for _name, _describe, _law, _kind, _limit in [
    ("multi-oracle", "the several-variable value matches the interleaved full-system solve",
     _oracle, "multi", None),
    ("conjugacy-oracle", "the coupled-slot value matches the interleaved full-system solve",
     _oracle, "tri", None),
    ("doublecoset-oracle", "the two-argument value matches the coupled full-system solve",
     _oracle, "doublecoset", None),
    ("multi-multiplicative", "slotwise products multiply the several-variable values",
     _multiplicative, "multi", None),
    ("conjugacy-multiplicative", "coupled-slot products multiply the transfer values",
     _multiplicative, "tri", None),
    ("doublecoset-multiplicative", "paired products multiply the two-argument values",
     _multiplicative, "doublecoset", None),
    ("multi-conjugation-invariant", "shared inner conjugation leaves the several-variable value unchanged",
     _invariant, "multi", None),
    ("conjugacy-conjugation-invariant", "one shared slot conjugation leaves the value unchanged",
     _invariant, "tri", None),
    ("doublecoset-equivalence", "two-sided real orthogonal inner moves leave the value unchanged",
     _invariant, "doublecoset", None),
    ("multi-expanding", "values on the closed argument ball expand in every direction",
     _at_value(_ball(0.95), _expanding), "multi", EXPANSION_SLACK),
    ("conjugacy-expanding", "coupled-slot values on the closed argument ball expand",
     _at_value(_ball(0.95), _expanding), "tri", EXPANSION_SLACK),
    ("doublecoset-form-increase", "inside the bi-ball the split form never decreases",
     _at_value(_ball(0.9), _form_increase), "doublecoset", 1e-10),
    ("multi-boundary-unitary", "unitary arguments give unitary several-variable values",
     _at_value(_haar, _unitary), "multi", None),
    ("conjugacy-boundary-unitary", "unitary arguments give unitary coupled-slot values",
     _at_value(_haar, _unitary), "tri", None),
    ("doublecoset-pseudo-unitary", "unitary arguments preserve the split form",
     _at_value(_haar, _pseudo_unitary), "doublecoset", None),
    ("doublecoset-symplectic", "symmetric arguments give values symplectic for the skew form",
     _at_value(_symmetric_ball, _symplectic), "doublecoset", None),
    ("multi-dilation", "diagonal dilations conjugate the several-variable value",
     _dilation, "multi", None),
    ("doublecoset-dilation", "congruence dilations of the arguments conjugate the value",
     _dilation, "doublecoset", None),
    ("multi-rational", "entries are rational of the sharp degree along a generic line",
     _rational, "multi", RATIONAL_FIT_TOL),
    ("doublecoset-rational", "entries are rational of the sharp degree along each argument line",
     _rational, "doublecoset", RATIONAL_FIT_TOL),
]:
    _suite(_name, _describe, _limit)(functools.partial(_law, _KINDS[_kind]))


# --- several-variable families ------------------------------------------------


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
    from . import multi

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
    from . import multi

    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    inner = _draw(rng, 1, min(2, dims.max_inner))
    arity = _draw(rng, 1, min(2, dims.max_arity))
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
    from . import multi

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


# --- coupled-slot families ----------------------------------------------------


@_suite(
    "conjugacy-dilation-control",
    "negative control: coupled slots must break the diagonal dilation law",
    budget=CONTROL_THRESHOLD,
    aggregate=_control,
)
def _conjugacy_dilation_control(rng, dims, tol):
    from . import conjugacy

    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    slot_dim = _draw(rng, 1, min(3, dims.max_inner))
    tc = conjugacy.random_tri(alpha, slot_dim, 2, rng)
    lam = np.empty(2, dtype=complex)
    lam[0] = rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lam[1] = lam[0] * rng.uniform(1.5, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    real = KIND_TABLE["tri"].realize(tc, tol)

    def draw():
        (s,), right = _KINDS["tri"].args(rng, 2, [real], tol)
        scaled = (lam[:, None] * s) / lam[None, :]
        return _evaluate([real], [scaled], tol) + right

    left, right = _retrying(draw)
    # The value has a single exposed block, so the dilation candidate is plain
    # invariance; it holds exactly when the slots do not couple.
    return TrialResult(rel_defect(_value(left), _value(right)))


# --- paired families ----------------------------------------------------------


@_suite("doublecoset-transpose", "transposing both arguments inverts the skew-transposed value")
def _doublecoset_transpose(rng, dims, tol):
    from . import doublecoset

    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _KINDS["doublecoset"].args(rng, arity, [real], tol)
        (transposed,) = _evaluate([real], [s.T, r.T], tol)
        chi = _value(chi)
        _conditioned(chi, _FLOOR.surface_guard)
        return chi, _value(transposed)

    chi, transposed = _retrying(draw)
    skew = doublecoset.skew_form(fam.arity, fam.alpha)
    target = -skew @ np.linalg.inv(chi.T) @ skew
    return TrialResult(rel_defect(transposed, target))


def _adjoint_readings(fam, s, r, chi, tol) -> tuple[float, float]:
    """Relative defects of the reflection law chi(box(S)^{-1}, box(R)^{-1}) =
    box(chi)^{-1}, box(X) = J X* J for the signature form J, with box on the
    arguments read plain, then with an extra sign; ``chi`` is the value at
    ``(S, R)``, and a reading whose point is singular is NaN."""
    from . import doublecoset

    na = fam.arity * fam.alpha
    jm = signature_form(na, na)
    target = np.linalg.inv(jm @ chi.conj().T @ jm)
    scale = max(1.0, op_norm(target))

    def reading(sign):
        try:
            args = np.linalg.inv(sign * s.conj().T), np.linalg.inv(sign * r.conj().T)
            return op_norm(doublecoset.dc_charfun(fam, *args, tol).value - target) / scale
        except (OnEigensurface, np.linalg.LinAlgError):
            return float("nan")

    return reading(1.0), reading(-1.0)


@_suite(
    "doublecoset-adjoint-experiment",
    "observation: which adjoint sign convention the reflection law selects",
    aggregate=_observational,
)
def _doublecoset_adjoint_experiment(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _KINDS["doublecoset"].args(rng, arity, [real], tol)
        return _adjoint_readings(fam, s, r, _value(chi), tol)

    plain, negated = _retrying(draw, OnEigensurface)
    detail = f"conjugate-transpose={plain:.3e} negated={negated:.3e}"
    return TrialResult(plain, detail)
