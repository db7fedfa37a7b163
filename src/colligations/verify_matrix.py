"""The ``verify`` laws shared by the matrix-argument kinds, written once.

They register nothing: ``verify_multi``, ``verify_conjugacy`` and
``verify_doublecoset`` register each law for their own kind with
:func:`_register`, beside the suites of that kind alone.
"""

import functools

import numpy as np

from .errors import OnEigensurface
from .linalg import complex_gauss, op_norm, rel_defect, sigma_extremes, unitarity_defect
from . import realization
from .verify import _KINDS, TrialResult, _Kind, _Retry, _draw, _retrying, _suite, _value


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


def _dilation(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, _, arity = kind.family(rng, dims, tol)

    def draw():
        args, (chi,) = kind.args(rng, arity, [real], tol)
        lam = rng.uniform(0.5, 2.0, size=arity) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=arity))
        return kind.dilation(fam, real, args, _value(chi), lam, tol)

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


def _register(kind: str, rows) -> None:
    """Register each row ``(name, description, law, budget)`` as a suite of
    the kind ``kind``; a budget of None is as in ``Suite.budget``."""
    for name, describe, law, budget in rows:
        _suite(name, describe, budget)(functools.partial(law, _KINDS[kind]))
