"""Seeded property-check suites behind the ``verify`` subcommand.

Each suite draws random instances from a seeded generator and measures a
defect for one structural law; the runner compares it with the budget the
suite is registered with.  A report lists the trials over budget with the
seeds that reproduce them.  A law that holds for every matrix-argument kind
(multi, tri, doublecoset) is written once and registered per kind, realizing
each drawn family once.  Two kinds of suite deviate from the plain pattern:

* negative controls expect the measured identity to *fail* somewhere and
  report a problem only when it held everywhere;
* experiments record observations (in the per-trial detail strings and the
  ``max_defect`` field) without ever failing.

This module holds the runner, the registry and the shared drawing helpers;
the suites live in three modules by what they draw (``verify_scalar``,
``verify_matrix``, ``verify_relation``), and a process loads only its suite's.
A suite loads the modules of the families it draws (``multi``, ``conjugacy``,
``doublecoset``, ``relations``) when it runs and calls into them, and into the
samplers of ``linalg``, through their module attributes, so that a wrapper
bound at run time (a tracer's) sees every call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import RetriesExhausted
from .linalg import (
    DEFAULT_TOLERANCES, Tolerances, block_diag, complex_gauss, haar_orthogonal, haar_unitary, near_singular, op_norm,
)
from .documents import KIND_TABLE, KindSpec, _module
from . import linalg, realization

__all__ = [
    "CONTAINMENT_TOL",
    "CONTROL_THRESHOLD",
    "EXPANSION_SLACK",
    "GRAPH_TOL",
    "GROWTH_FACTOR",
    "RATIONAL_FIT_TOL",
    "Dims",
    "Suite",
    "SuiteReport",
    "TrialResult",
    "list_suites",
    "run_suite",
]

# Pinned budgets and thresholds of the suites that register them; they do
# not move with the tolerances.
EXPANSION_SLACK = 1e-8  # singular values may dip this far below 1
RATIONAL_FIT_TOL = 1e-6  # held-out error of a degree-true rational fit
CONTAINMENT_TOL = 1e-7  # residual of a subspace containment
GRAPH_TOL = 1e-9  # distance between two routes to one subspace
GROWTH_FACTOR = 10.0  # required blow-up over three dyadic steps
CONTROL_THRESHOLD = 1e-3  # a negative control must exceed this somewhere


@dataclass(frozen=True)
class Dims:
    """Upper bounds for randomly drawn dimensions (suites clamp further).

    Every drawn size honours them, except the minimum a law needs: two slots
    or members in ``multi-boundary-inverse-experiment``, the ``conjugacy-*``
    suites and ``conjugacy-dilation-control``; an inner dimension at least
    the exposed one in ``relation-definiteness``; the planted phase blocks
    of ``spectrum-union`` and ``padding-invariance`` and the padding itself.
    """

    max_alpha: int = 3
    max_inner: int = 4
    max_arity: int = 3


@dataclass(frozen=True)
class TrialResult:
    defect: float
    detail: str = ""


@dataclass(frozen=True)
class Suite:
    name: str
    describe: str
    run_trial: Callable[[np.random.Generator, Dims, Tolerances], TrialResult]
    # The largest defect a trial may have; None is ten times the residual
    # tolerance (the defects are normalized by the operand norms).
    budget: float | None = None
    # Controls and experiments judge the trial list (with the seed and the
    # budget) as a whole, returning the failure records (none: a pass).
    aggregate: Callable[[list[TrialResult], int, float], list[dict]] | None = None


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list[dict] = field(default_factory=list)
    max_defect: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_object(self) -> dict:
        return asdict(self)


_SUITES: dict[str, Suite] = {}


def _suite(name: str, describe: str, budget: float | None = None, aggregate=None):
    def register(fn):
        _SUITES[name] = Suite(name, describe, fn, budget, aggregate)
        return fn

    return register


# The module that registers a suite, by the first word of the suite's name.
_GROUPS = {
    **dict.fromkeys(("product", "charfun", "spectrum", "pole", "padding"), "verify_scalar"),
    **dict.fromkeys(("multi", "conjugacy", "doublecoset", "single", "surface"), "verify_matrix"),
    "relation": "verify_relation",
}


def _lookup(name: str) -> Suite | None:
    """The suite ``name``, loading only the module of its group; None if there is none."""
    group = _GROUPS.get(name.split("-")[0])
    if group is not None:
        _module(group)
    return _SUITES.get(name)


def list_suites() -> list[Suite]:
    """All registered suites, sorted by name."""
    for group in dict.fromkeys(_GROUPS.values()):
        _module(group)
    return [_SUITES[name] for name in sorted(_SUITES)]


def run_suite(
    name: str,
    trials: int = 200,
    seed: int = 0,
    dims: Dims | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SuiteReport:
    """Run one suite's trials in order; trial ``t`` draws from a generator
    seeded ``seed + t`` alone, so any one trial reproduces from its seed."""
    suite = _lookup(name)
    if suite is None:
        known = ", ".join(s.name for s in list_suites())
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    bounds = dims if dims is not None else Dims()
    budget = suite.budget if suite.budget is not None else 10.0 * tol.residual_tol

    results = [suite.run_trial(np.random.default_rng(seed + t), bounds, tol) for t in range(trials)]

    if suite.aggregate is not None:
        failures = suite.aggregate(results, seed, budget)
    else:
        # Written as ``not <=`` so that a NaN defect fails too.
        failures = [
            {
                "trial": t,
                "seed": seed + t,
                "defect": r.defect,
                "budget": budget,
                "detail": r.detail,
            }
            for t, r in enumerate(results)
            if not r.defect <= budget
        ]
    max_defect = max((r.defect for r in results), default=0.0)
    return SuiteReport(suite=name, trials=trials, failures=failures, max_defect=max_defect)


# --- shared drawing utilities -------------------------------------------------


class _Retry(Exception):
    """Drawn instance was unusable (near a singular locus); draw again."""


_ATTEMPTS = 64
_FLOOR = Tolerances(surface_guard=1e-3)  # relative smallest singular value for "comfortably regular"


def _retrying(draw, *redraw_on):
    """``draw()``, drawn again while it raises :class:`_Retry` or one of the
    errors ``redraw_on``, up to ``_ATTEMPTS`` draws in all."""
    for _ in range(_ATTEMPTS):
        try:
            return draw()
        except (_Retry, *redraw_on):
            continue
    raise RetriesExhausted("exhausted retries while drawing a regular instance")


def _draw(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _conditioned(matrix: np.ndarray, ratio: float) -> None:
    """Draw again (:class:`_Retry`) where ``matrix`` is :func:`near_singular` at ``ratio``."""
    if near_singular(matrix, ratio):
        raise _Retry


def _evaluate(reals, args, tol) -> list:
    """Each listed realization's value at the one point ``args``, from one
    kernel call each.  A point where one is not comfortably regular is drawn
    again (:class:`_Retry`); where only a surface guard in ``tol`` above the
    floor rejects it, the error of :func:`realization.not_regular` takes the
    value's place, for :func:`_value` to raise where the law uses the value."""
    point = [np.asarray(arg)[None] for arg in args]
    guard = tol if tol.surface_guard > _FLOOR.surface_guard else _FLOOR
    outcomes = []
    for real in reals:
        values, sigma, regular = realization.evaluate(real, point, guard)
        if regular[0]:
            outcomes.append(values[0])
        elif guard is tol and realization.evaluate(real, point, _FLOOR)[2][0]:
            outcomes.append(realization.not_regular(real, point, 0, sigma[0]))
        else:
            raise _Retry
    return outcomes


def _value(outcome) -> np.ndarray:
    """A value from :func:`_evaluate`, or the error held in its place raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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


# --- dims drawers and the matrix-argument kinds -------------------------------


def _capped_dims(alpha: int, inner: int, arity: int):
    """A dims drawer: exposed size, inner size and arity, each capped."""

    def draw(rng, dims) -> tuple[int, int, int]:
        return (
            _draw(rng, 1, min(alpha, dims.max_alpha)),
            _draw(rng, 1, min(inner, dims.max_inner)),
            _draw(rng, 1, min(arity, dims.max_arity)),
        )

    return draw


_multi_dims = _capped_dims(3, 4, 3)
_dc_dims = _capped_dims(2, 3, 2)


def _tri_dims(rng, dims) -> tuple[int, int, int]:
    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    slot_dim = _draw(rng, 1, min(3, dims.max_inner))
    slots = 2 if rng.uniform() < 0.7 or dims.max_arity < 3 else 3
    return alpha, slot_dim, slots


@dataclass(frozen=True)
class _Kind:
    """What the laws need of one matrix-argument kind beyond its
    ``documents.KIND_TABLE`` entry (``spec``): the dims drawer, the inner-size
    cap of the multiplicative law, the brute-force oracle ``(fam, args,
    tol)``, the inner equivalence action ``(fam, inner, rng, tol)`` and the
    dilation check ``(fam, args, chi, lam, tol) -> (left, right)``, given
    the value ``chi`` at ``args``."""

    spec: KindSpec
    dims: Callable
    inner_cap: int
    oracle: Callable
    equivalent: Callable
    dilation: Callable | None = None

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


def _multi_dilation(fam, args, chi, lam, tol) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the diagonal dilation identity ``(chi(lam S lam^{-1}),
    Lam chi(S) Lam^{-1})``, ``Lam`` acting as ``lam_j I_alpha`` on block ``j``."""
    left = _module("multi").multi_charfun(fam, (lam[:, None] * args[0]) / lam[None, :], tol).value
    lam_big = np.kron(np.diag(lam), np.eye(fam.alpha))
    lam_big_inv = np.kron(np.diag(1.0 / lam), np.eye(fam.alpha))
    return left, lam_big @ chi @ lam_big_inv


def _dc_dilation(fam, args, chi, lam, tol) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the congruence dilation identity,
    ``(Lam chi(S, R) Lam^{-1}, chi(lam S lam, lam^{-1} R lam^{-1}))``:
    ``Lam`` scales the plus blocks by ``lam_j`` and the minus blocks by
    ``1 / lam_j``, as rescaling the plus-side variables of slot ``j`` by
    ``lam_j`` and the minus-side ones by ``1 / lam_j`` maps solutions of the
    coupled system onto solutions at the transformed arguments."""
    s, r = args
    eye_a = np.eye(fam.alpha)
    lam_big = block_diag(np.kron(np.diag(lam), eye_a), np.kron(np.diag(1.0 / lam), eye_a))
    lam_big_inv = block_diag(np.kron(np.diag(1.0 / lam), eye_a), np.kron(np.diag(lam), eye_a))
    left = lam_big @ chi @ lam_big_inv
    scaled_s = lam[:, None] * s * lam[None, :]
    scaled_r = r / lam[:, None] / lam[None, :]
    return left, _module("doublecoset").dc_charfun(fam, scaled_s, scaled_r, tol).value


_KINDS = {
    "multi": _Kind(
        KIND_TABLE["multi"],
        _multi_dims,
        4,
        oracle=lambda fam, args, tol: _module("multi").multi_charfun_system(fam, *args, tol),
        equivalent=lambda fam, inner, rng, tol: _module("multi").multi_conjugate(
            fam, haar_unitary(inner, rng), tol
        ),
        dilation=_multi_dilation,
    ),
    "tri": _Kind(
        KIND_TABLE["tri"],
        _tri_dims,
        3,
        oracle=lambda tc, args, tol: _module("conjugacy").tri_charfun_system(tc, *args, tol),
        equivalent=lambda tc, inner, rng, tol: _module("conjugacy").tri_conjugate(
            tc, haar_unitary(inner, rng), tol
        ),
    ),
    "doublecoset": _Kind(
        KIND_TABLE["doublecoset"],
        _dc_dims,
        3,
        oracle=lambda fam, args, tol: _module("doublecoset").dc_charfun_system(fam, *args, tol),
        equivalent=lambda fam, inner, rng, tol: _module("doublecoset").dc_equivalent(
            fam, haar_orthogonal(inner, rng), haar_orthogonal(inner, rng), tol
        ),
        dilation=_dc_dilation,
    ),
}
