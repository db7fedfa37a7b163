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

This module holds the runner, the registry and the drawing helpers no kind
owns; the suites live in five modules by what they draw (``verify_scalar``,
``verify_multi``, ``verify_conjugacy``, ``verify_doublecoset``,
``verify_relation``), and a process loads only its suite's.  Each of the
three matrix-argument ones declares its kind (dims drawer, oracle,
equivalence action, dilation check) and registers the laws of
``verify_matrix`` for it.  A suite module imports the modules of the
families it draws (``multi``, ``conjugacy``, ``doublecoset``, ``relations``)
at its top, so that they load when the suite is looked up, before its first
draw, and calls into them, and into the samplers of ``linalg``, through
their module attributes, so that a wrapper bound at run time (a tracer's)
sees every call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import RetriesExhausted
from .linalg import DEFAULT_TOLERANCES, Tolerances, near_singular
from .documents import _module
from . import realization

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

    def __post_init__(self):
        for bound in fields(self):
            value = getattr(self, bound.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{bound.name} must be a positive int, got {value!r}")


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
    **dict.fromkeys(("multi", "single", "surface"), "verify_multi"),
    "conjugacy": "verify_conjugacy",
    "doublecoset": "verify_doublecoset",
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


def _capped_dims(alpha: int, inner: int, arity: int):
    """A dims drawer: exposed size, inner size and arity, each capped."""

    def draw(rng, dims) -> tuple[int, int, int]:
        return (
            _draw(rng, 1, min(alpha, dims.max_alpha)),
            _draw(rng, 1, min(inner, dims.max_inner)),
            _draw(rng, 1, min(arity, dims.max_arity)),
        )

    return draw

