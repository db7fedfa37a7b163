"""The ``verify`` laws shared by the matrix-argument kinds, written once.

They register nothing: ``verify_multi``, ``verify_conjugacy`` and
``verify_doublecoset`` each declare their kind (:class:`_Kind`) and register
each law for it with :func:`_register`, beside the suites of that kind alone.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OnEigensurface
from .linalg import complex_gauss, haar_unitary, op_norm, rel_defect, sigma_extremes, unitarity_defect
from .documents import KindSpec
from . import linalg, realization
from .verify import TrialResult, _Retry, _conditioned, _draw, _evaluate, _retrying, _suite, _value


# Samplers of one ``n x n`` argument.
def _gauss(rng, n: int) -> np.ndarray:
    return complex_gauss(rng, n, n)


def _haar(rng, n: int) -> np.ndarray:
    return haar_unitary(n, rng)


def _well_conditioned(rng, n: int) -> np.ndarray:
    """Condition number at most 10; any other draw is drawn again."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _conditioned(g, 0.1)
    return g


def _ball(radius: float):
    return lambda rng, n: linalg.sample_ball(rng, n, radius)


def _symmetric_ball(rng, n: int) -> np.ndarray:
    g = complex_gauss(rng, n, n)
    sym = (g + g.T) / 2.0
    top = op_norm(sym)
    if top == 0.0:
        raise _Retry
    return sym * (rng.uniform(0.3, 0.9) / top)


def _unit_sphere(rng, n: int) -> np.ndarray:
    """Operator norm exactly 1, but not unitary."""
    g = complex_gauss(rng, n, n)
    top = op_norm(g)
    if top == 0.0:
        raise _Retry
    return g / top


@dataclass(frozen=True)
class _Kind:
    """What the laws need of one matrix-argument kind beyond its
    ``documents.KIND_TABLE`` entry (``spec``): the dims drawer, the inner-size
    cap of the multiplicative law, the brute-force oracle ``(fam, args,
    tol)`` and the inner equivalence action ``(fam, inner, rng, tol)``."""

    spec: KindSpec
    dims: Callable
    inner_cap: int
    oracle: Callable
    equivalent: Callable

    def family(self, rng, dims, tol):
        """Draw dims and one family; return ``(family, realization, inner, arity)``."""
        alpha, inner, arity = self.dims(rng, dims)
        fam = self.spec.random(alpha, inner, arity, rng)
        return fam, self.spec.realize(fam, tol), inner, arity

    def args(self, rng, arity, reals, tol, sample=_gauss) -> tuple[list[np.ndarray], list]:
        """One drawn ``arity x arity`` argument per variable, at which every
        listed realization is comfortably regular, and the realizations'
        values there (see :func:`_evaluate`)."""

        def draw():
            args = [sample(rng, arity) for _ in self.spec.variables]
            return args, _evaluate(reals, args, tol)

        return _retrying(draw)


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


def _dilation(check):
    """The law that draws one family, one regular point and one diagonal
    dilation ``lam`` and compares the sides ``check(fam, real, args, chi,
    lam, tol) -> (left, right)`` of the kind's dilation identity, given the
    family's realization ``real`` and the value ``chi`` at ``args``."""

    def law(kind: _Kind, rng, dims, tol) -> TrialResult:
        fam, real, _, arity = kind.family(rng, dims, tol)

        def draw():
            args, (chi,) = kind.args(rng, arity, [real], tol)
            lam = rng.uniform(0.5, 2.0, size=arity) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=arity))
            return check(fam, real, args, _value(chi), lam, tol)

        left, right = _retrying(draw, OnEigensurface)
        return TrialResult(rel_defect(left, right))

    return law


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


def _register(kind: _Kind, rows) -> None:
    """Register each row ``(name, description, law, budget)`` as a suite of
    the kind ``kind``; a budget of None is as in ``Suite.budget``."""
    for name, describe, law, budget in rows:
        _suite(name, describe, budget)(functools.partial(law, kind))
