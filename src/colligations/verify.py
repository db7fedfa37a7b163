"""Seeded property-check suites behind the ``verify`` subcommand.

Each suite draws random instances from a seeded generator, measures a defect
for one structural law, and compares it against an explicit budget.  A report
lists the trials that exceeded their budget together with the seed that
reproduces them.  A law that holds for every matrix-argument kind (multi,
tri, doublecoset) is written once and registered per kind, realizing each
drawn family once.  Two kinds of suite deviate from the plain pattern:

* negative controls expect the measured identity to *fail* somewhere and
  report a problem only when it held everywhere;
* experiments record observations (in the per-trial detail strings and the
  ``max_defect`` field) without ever failing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BadSplit, NearPole, NearSingular, OnEigensurface, RetriesExhausted
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    block_diag,
    haar_orthogonal,
    haar_unitary,
    op_norm,
    rel_defect,
    sample_ball,
    sample_disc,
    sample_invertible,
    sigma_extremes,
    unitarity_defect,
)
from .colligation import (
    Colligation,
    charfun_z,
    colligation_realization,
    conjugate_inner,
    equivalent_probe,
    pad,
    product,
    random_colligation,
    spectra_match,
    unit_spectrum,
)
from .multi import (
    MultiColligation,
    diag_conjugation,
    eigensurface_det,
    eigensurface_sigma,
    multi_charfun,
    multi_charfun_system,
    multi_conjugate,
    multi_product,
    random_multi,
)
from .relations import (
    ConstraintSubspace,
    LinearRelation,
    char_relation,
    compose_relations,
    form_on_subspace,
    graph_relation,
    identity_relation,
    on_eigensurface,
    signature_form,
    subspace_distance,
)
from .conjugacy import random_tri, tri_charfun_system, tri_conjugate
from .doublecoset import (
    adjoint_experiment,
    dc_charfun_system,
    dc_dilation_check,
    dc_equivalent,
    form_checks,
    indefinite_form,
    skew_form,
)
from .documents import KIND_TABLE, KindSpec
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

# Absolute thresholds shared with the acceptance tests.  These are pinned --
# they do not move with the tolerance profile.
EXPANSION_SLACK = 1e-8  # singular values may dip this far below 1
RATIONAL_FIT_TOL = 1e-6  # held-out error of a degree-true rational fit
CONTAINMENT_TOL = 1e-7  # residual of a subspace containment
GRAPH_TOL = 1e-9  # distance between two routes to one subspace
GROWTH_FACTOR = 10.0  # required blow-up over three dyadic steps
CONTROL_THRESHOLD = 1e-3  # a negative control must exceed this somewhere


@dataclass(frozen=True)
class Dims:
    """Upper bounds for randomly drawn dimensions (suites clamp further)."""

    max_alpha: int = 3
    max_inner: int = 4
    max_arity: int = 3


@dataclass(frozen=True)
class TrialResult:
    defect: float
    budget: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.defect <= self.budget


@dataclass(frozen=True)
class Suite:
    name: str
    describe: str
    run_trial: Callable[[np.random.Generator, Dims, Tolerances], TrialResult]
    # Controls and experiments judge the trial list as a whole; the callable
    # returns the failure records (empty meaning the suite passed).
    aggregate: Callable[[list[TrialResult], int], list[dict]] | None = None


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
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "max_defect": self.max_defect,
        }


_SUITES: dict[str, Suite] = {}


def _suite(name: str, describe: str, aggregate=None):
    def register(fn):
        _SUITES[name] = Suite(name, describe, fn, aggregate)
        return fn

    return register


def list_suites() -> list[Suite]:
    """All registered suites, sorted by name."""
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
    try:
        suite = _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})") from None
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    bounds = dims if dims is not None else Dims()

    results = [suite.run_trial(np.random.default_rng(seed + t), bounds, tol) for t in range(trials)]

    if suite.aggregate is not None:
        failures = suite.aggregate(results, seed)
    else:
        failures = [
            {
                "trial": t,
                "seed": seed + t,
                "defect": r.defect,
                "budget": r.budget,
                "detail": r.detail,
            }
            for t, r in enumerate(results)
            if not r.passed
        ]
    max_defect = max((r.defect for r in results), default=0.0)
    return SuiteReport(suite=name, trials=trials, failures=failures, max_defect=max_defect)


# --- shared drawing utilities -------------------------------------------------


class _Retry(Exception):
    """Drawn instance was unusable (near a singular locus); draw again."""


_ATTEMPTS = 64
_FLOOR = Tolerances(surface_guard=1e-3)  # relative smallest singular value for "comfortably regular"
_ON_SURFACE = "argument lies on the eigensurface"  # the message of a value held as an error


def _retrying(draw):
    for _ in range(_ATTEMPTS):
        try:
            return draw()
        except _Retry:
            continue
    raise RetriesExhausted("exhausted retries while drawing a regular instance")


def _draw(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _complex_gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / math.sqrt(2.0)


def _budget(tol: Tolerances) -> float:
    # Defects below are already normalized by the operand norms, so the
    # budget is a plain multiple of the residual tolerance.
    return 10.0 * tol.residual_tol


def _require_regular(matrix: np.ndarray) -> None:
    smin, smax = sigma_extremes(matrix)
    if smax == 0.0 or smin < _FLOOR.surface_guard * smax:
        raise _Retry


def _evaluate(reals, args, tol, error=OnEigensurface, message=_ON_SURFACE) -> list:
    """Each listed realization's value at the one point ``args``, from one
    kernel call each.  A point where one is not comfortably regular is drawn
    again (:class:`_Retry`); where only a surface guard in ``tol`` above the
    floor rejects it, ``error(sigma_min, message)`` takes the value's place,
    for :func:`_value` to raise where the law uses the value."""
    point = [np.asarray(arg)[None] for arg in args]
    guard = tol if tol.surface_guard > _FLOOR.surface_guard else _FLOOR
    outcomes = []
    for real in reals:
        values, sigma, regular = realization.evaluate(real, point, guard)
        if regular[0]:
            outcomes.append(values[0])
        elif guard is tol and realization.evaluate(real, point, _FLOOR)[2][0]:
            outcomes.append(error(sigma[0], message))
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
    return _complex_gauss(rng, n, n)


def _haar(rng, n: int) -> np.ndarray:
    return haar_unitary(n, rng)


def _ball(radius: float):
    return lambda rng, n: sample_ball(rng, n, radius)


def _symmetric_ball(rng, n: int) -> np.ndarray:
    g = _complex_gauss(rng, n, n)
    sym = (g + g.T) / 2.0
    top = op_norm(sym)
    if top == 0.0:
        raise _Retry
    return sym * (rng.uniform(0.3, 0.9) / top)


def _unit_sphere(rng, n: int) -> np.ndarray:
    """Operator norm exactly 1, but not unitary."""
    g = _complex_gauss(rng, n, n)
    top = op_norm(g)
    if top == 0.0:
        raise _Retry
    return g / top


def _regular_args(
    rng, n: int, count: int, reals, tol, sample=_gauss, message=_ON_SURFACE
) -> tuple[list[np.ndarray], list]:
    """``count`` drawn ``n x n`` arguments at which every listed realization
    is comfortably regular, and the realizations' values there (see
    :func:`_evaluate`)."""

    def draw():
        args = [sample(rng, n) for _ in range(count)]
        return args, _evaluate(reals, args, tol, message=message)

    return _retrying(draw)


_PHASE_GRID = 12


def _phase_colligation(rng, alpha, indices, tol):
    """Decoupled colligation whose inner block has the given grid phases.

    ``indices`` selects points ``exp(2 pi i k / 12)`` on the unit circle,
    repeats giving multiplicity; the inner block is a conjugated diagonal so
    the spectrum is planted exactly.
    """
    phases = np.exp(2j * np.pi * np.asarray(indices, dtype=float) / _PHASE_GRID)
    u = haar_unitary(len(indices), rng)
    inner = u @ np.diag(phases) @ u.conj().T
    return Colligation(block_diag(haar_unitary(alpha, rng), inner), alpha, tol)


def _expected_phase_spectrum(*index_lists) -> list[tuple[complex, int]]:
    counts: dict[int, int] = {}
    for indices in index_lists:
        for k in indices:
            counts[k % _PHASE_GRID] = counts.get(k % _PHASE_GRID, 0) + 1
    return [
        (complex(np.exp(2j * np.pi * k / _PHASE_GRID)), mult)
        for k, mult in sorted(counts.items())
        if k != 0  # the fixed phase 1 is excluded from the unit spectrum
    ]


def _blaschke_colligation(alpha, lam, tol):
    """Colligation whose transfer function is ``diag(b, 1, ..., 1)`` with
    ``b(z) = (z - conj(lam)) / (1 - lam z)``: a single planted inner pole."""
    s = math.sqrt(1.0 - abs(lam) ** 2)
    m = np.eye(alpha + 1, dtype=complex)
    m[0, 0] = -np.conj(lam)
    m[0, alpha] = s
    m[alpha, 0] = s
    m[alpha, alpha] = lam
    return Colligation(m, alpha, tol)


def _pole_ray_points(lam) -> tuple[list[complex], list[float]]:
    """Four points marching toward the pole of the planted transfer function.

    Starts on the unit circle and halves the distance to the pole three
    times; returns the points and the closed-form scalar magnitudes."""
    rho = 1.0 / abs(lam)
    direction = complex(np.exp(-1j * np.angle(lam)))
    radii = [rho - (rho - 1.0) / 2**k for k in range(4)]
    points = [r * direction for r in radii]
    model = [(r - abs(lam)) / (abs(lam) * (rho - r)) for r in radii]
    return points, model


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
    den_scale = float(np.abs(npoly.polyval(train, den)).max())
    if den_scale == 0.0:
        return None
    holdout = 0.55 * np.exp(2j * np.pi * (np.arange(10) + rng.uniform(0.0, 1.0)) / 10)
    worst, used = 0.0, 0
    for t, f in zip(holdout, evaluate(holdout)):
        q = complex(npoly.polyval(t, den))
        if f is None or abs(q) < 1e-8 * den_scale:
            continue
        p = complex(npoly.polyval(t, num))
        worst = max(worst, abs(p / q - f) / max(1.0, abs(f)))
        used += 1
    return worst if used >= 5 else None


def _containment_residual(big, small) -> float:
    """How far the small relation sticks out of the big one (0 if inside)."""
    if small.dim == 0:
        return 0.0
    inside = big.basis @ (big.basis.conj().T @ small.basis)
    return op_norm(small.basis - inside)


def _expect_some_failure(threshold: float, message: str):
    """Aggregate for negative controls: the law must break somewhere."""

    def aggregate(results: list[TrialResult], seed: int) -> list[dict]:
        worst = max((r.defect for r in results), default=0.0)
        if worst >= threshold:
            return []
        return [
            {
                "trial": -1,
                "seed": seed,
                "defect": worst,
                "budget": threshold,
                "detail": message,
            }
        ]

    return aggregate


def _observational(results: list[TrialResult], seed: int) -> list[dict]:
    return []


# --- one-variable colligations ------------------------------------------------


@_suite("product-welldefined", "the product respects inner equivalence of both factors")
def _product_welldefined(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    mx, my = _draw(rng, 1, dims.max_inner), _draw(rng, 1, dims.max_inner)
    x = random_colligation(alpha, mx, rng)
    y = random_colligation(alpha, my, rng)
    u, v = haar_unitary(mx, rng), haar_unitary(my, rng)
    direct = product(conjugate_inner(x, u, tol), conjugate_inner(y, v, tol), tol)
    expected = conjugate_inner(product(x, y, tol), block_diag(u, v), tol)
    defect = rel_defect(direct.matrix, expected.matrix)
    if not equivalent_probe(direct, expected, tol=tol):
        defect = max(defect, 1.0)
    return TrialResult(defect, _budget(tol))


@_suite("product-associative", "the triple product agrees bracketed either way")
def _product_associative(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    cols = [random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng) for _ in range(3)]
    left = product(product(cols[0], cols[1], tol), cols[2], tol)
    right = product(cols[0], product(cols[1], cols[2], tol), tol)
    return TrialResult(rel_defect(left.matrix, right.matrix), _budget(tol))


@_suite("charfun-multiplicative", "the transfer function of a product is the product of transfer functions")
def _charfun_multiplicative(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    x = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    y = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    prod = product(x, y, tol)
    worst = 0.0
    for _ in range(3):
        z = sample_disc(rng, 0.95)  # no poles inside the open disc
        vx = charfun_z(x, z, tol).value
        vy = charfun_z(y, z, tol).value
        vp = charfun_z(prod, z, tol).value
        worst = max(worst, rel_defect(vp, vx @ vy))
    return TrialResult(worst, _budget(tol))


@_suite("charfun-contractive", "transfer values inside the open disc are contractions")
def _charfun_contractive(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)
    worst = 0.0
    for _ in range(4):
        z = sample_disc(rng, 0.999)
        worst = max(worst, op_norm(charfun_z(col, z, tol).value) - 1.0)
    return TrialResult(max(worst, 0.0), EXPANSION_SLACK)


@_suite("charfun-boundary-unitary", "transfer values on the unit circle are unitary")
def _charfun_boundary_unitary(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)
    reals = [colligation_realization(col)]

    def draw():
        z = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        (value,) = _evaluate(reals, [z], tol, NearPole, f"argument z={z} lies at or near a pole")
        return _value(value)

    return TrialResult(unitarity_defect(_retrying(draw)), _budget(tol))


@_suite("charfun-reflection", "reflecting the point across the circle inverts the adjoint value")
def _charfun_reflection(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)

    def draw():
        radius = rng.uniform(0.35, 0.8)
        z = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        inner = charfun_z(col, z, tol).value
        _require_regular(inner)
        try:
            outer = charfun_z(col, 1.0 / np.conj(z), tol).value
        except NearPole:
            raise _Retry from None
        return inner, outer

    inner, outer = _retrying(draw)
    target = np.linalg.inv(inner.conj().T)
    return TrialResult(rel_defect(outer, target), _budget(tol))


@_suite("charfun-conjugation-invariant", "inner conjugation leaves the transfer function unchanged")
def _charfun_conjugation_invariant(rng, dims, tol):
    inner = _draw(rng, 1, dims.max_inner)
    col = random_colligation(_draw(rng, 1, dims.max_alpha), inner, rng)
    other = conjugate_inner(col, haar_unitary(inner, rng), tol)
    worst = 0.0
    for _ in range(3):
        z = sample_disc(rng, 0.95)
        worst = max(worst, rel_defect(charfun_z(col, z, tol).value, charfun_z(other, z, tol).value))
    return TrialResult(worst, _budget(tol))


@_suite("spectrum-union", "unit spectra of factors merge into the product's unit spectrum")
def _spectrum_union(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    # Plant exact grid phases; sometimes include the excluded fixed phase 1.
    ks_x = [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(_draw(rng, 1, 3))]
    if rng.uniform() < 0.5:
        ks_x.append(0)
    ks_y = [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(_draw(rng, 1, 2))]
    x = product(
        _phase_colligation(rng, alpha, ks_x, tol),
        random_colligation(alpha, _draw(rng, 1, 3), rng),
        tol,
    )
    y = _phase_colligation(rng, alpha, ks_y, tol)
    got = unit_spectrum(product(x, y, tol), tol)
    expected = _expected_phase_spectrum(ks_x, ks_y)
    ok = spectra_match(got, expected, 4.0 * tol.rank_tol)
    return TrialResult(0.0 if ok else 1.0, 0.5, "" if ok else f"got {got}, expected {expected}")


@_suite("pole-witness", "a planted inner eigenvalue forces the closed-form blow-up toward its pole")
def _pole_witness(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    lam = rng.uniform(0.3, 0.899) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    col = _blaschke_colligation(alpha, lam, tol)
    points, model = _pole_ray_points(lam)
    measured = [op_norm(charfun_z(col, z, tol).value) for z in points]
    defect = max(abs(m - c) / c for m, c in zip(measured, model))
    ratio = measured[3] / measured[0]
    if ratio < GROWTH_FACTOR:
        defect = max(defect, 1.0)
    return TrialResult(defect, _budget(tol), f"growth {ratio:.2f}x over three halvings")


@_suite("pole-growth", "the blow-up survives multiplication by a random factor")
def _pole_growth(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    inner = _draw(rng, 1, dims.max_inner)
    lam = rng.uniform(0.3, 0.899) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    planted = _blaschke_colligation(alpha, lam, tol)
    points, _ = _pole_ray_points(lam)

    def draw():
        prod = product(random_colligation(alpha, inner, rng), planted, tol)
        try:
            return [op_norm(charfun_z(prod, z, tol).value) for z in points]
        except NearPole:
            raise _Retry from None

    measured = _retrying(draw)
    ratio = measured[3] / measured[0]
    defect = max(0.0, (GROWTH_FACTOR - ratio) / GROWTH_FACTOR)
    return TrialResult(defect, 1e-9, f"growth {ratio:.2f}x over three halvings")


@_suite("padding-invariance", "padding the inner space changes neither transfer nor unit spectrum")
def _padding_invariance(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    col = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    padded = pad(col, _draw(rng, 1, 2))
    worst = 0.0
    for _ in range(3):
        z = sample_disc(rng, 0.95)
        worst = max(worst, rel_defect(charfun_z(col, z, tol).value, charfun_z(padded, z, tol).value))
    planted = _phase_colligation(rng, alpha, [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(2)], tol)
    padded_planted = pad(planted, _draw(rng, 1, 2))
    ok = spectra_match(
        unit_spectrum(padded_planted, tol), unit_spectrum(planted, tol), 4.0 * tol.rank_tol
    )
    return TrialResult(max(worst, 0.0 if ok else 1.0), _budget(tol))


# --- laws over the matrix-argument kinds --------------------------------------


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

    def args(self, rng, arity, reals, tol, sample=_gauss):
        return _regular_args(rng, arity, len(self.spec.variables), reals, tol, sample)


# The oracle, equivalence and dilation entries call through this module's
# globals, so a wrapper bound to those names at run time (a tracer's) sees them.
_KINDS = {
    "multi": _Kind(
        KIND_TABLE["multi"],
        _multi_dims,
        4,
        oracle=lambda fam, args, tol: multi_charfun_system(fam, *args, tol),
        equivalent=lambda fam, inner, rng, tol: multi_conjugate(fam, haar_unitary(inner, rng), tol),
        dilation=lambda fam, args, chi, lam, tol: diag_conjugation(fam, *args, lam, tol, chi),
    ),
    "tri": _Kind(
        KIND_TABLE["tri"],
        _tri_dims,
        3,
        oracle=lambda tc, args, tol: tri_charfun_system(tc, *args, tol),
        equivalent=lambda tc, inner, rng, tol: tri_conjugate(tc, haar_unitary(inner, rng), tol),
    ),
    "doublecoset": _Kind(
        KIND_TABLE["doublecoset"],
        _dc_dims,
        3,
        oracle=lambda fam, args, tol: dc_charfun_system(fam, *args, tol),
        equivalent=lambda fam, inner, rng, tol: dc_equivalent(
            fam, haar_orthogonal(inner, rng), haar_orthogonal(inner, rng), tol
        ),
        dilation=lambda fam, args, chi, lam, tol: dc_dilation_check(fam, *args, lam, tol, chi),
    ),
}


# A law is a trial with the kind bound first (``functools.partial``).
def _oracle(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, _, arity = kind.family(rng, dims, tol)
    args, (chi,) = kind.args(rng, arity, [real], tol)
    return TrialResult(rel_defect(_value(chi), kind.oracle(fam, args, tol)), _budget(tol))


def _multiplicative(kind: _Kind, rng, dims, tol) -> TrialResult:
    alpha, _, arity = kind.dims(rng, dims)
    x = kind.spec.random(alpha, _draw(rng, 1, min(kind.inner_cap, dims.max_inner)), arity, rng)
    y = kind.spec.random(alpha, _draw(rng, 1, min(kind.inner_cap, dims.max_inner)), arity, rng)
    reals = [kind.spec.realize(fam, tol) for fam in (kind.spec.product(x, y, tol), x, y)]
    _, outcomes = kind.args(rng, arity, reals, tol)
    vp, vx, vy = (_value(outcome) for outcome in outcomes)
    return TrialResult(rel_defect(vp, vx @ vy), _budget(tol))


def _invariant(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, inner, arity = kind.family(rng, dims, tol)
    reals = [real, kind.spec.realize(kind.equivalent(fam, inner, rng, tol), tol)]
    _, outcomes = kind.args(rng, arity, reals, tol)
    return TrialResult(rel_defect(*(_value(outcome) for outcome in outcomes)), _budget(tol))


def _expanding(kind: _Kind, rng, dims, tol) -> TrialResult:
    _, real, _, arity = kind.family(rng, dims, tol)
    _, (chi,) = kind.args(rng, arity, [real], tol, _ball(0.95))
    smin, _ = sigma_extremes(_value(chi))
    return TrialResult(max(0.0, 1.0 - smin), EXPANSION_SLACK)


def _boundary_unitary(kind: _Kind, rng, dims, tol) -> TrialResult:
    _, real, _, arity = kind.family(rng, dims, tol)
    _, (chi,) = kind.args(rng, arity, [real], tol, _haar)
    return TrialResult(unitarity_defect(_value(chi)), _budget(tol))


def _dilation(kind: _Kind, rng, dims, tol) -> TrialResult:
    fam, real, _, arity = kind.family(rng, dims, tol)

    def draw():
        args, (chi,) = kind.args(rng, arity, [real], tol)
        lam = rng.uniform(0.5, 2.0, size=arity) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=arity))
        try:
            return kind.dilation(fam, args, _value(chi), lam, tol)
        except OnEigensurface:
            raise _Retry from None

    left, right = _retrying(draw)
    return TrialResult(rel_defect(left, right), _budget(tol))


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
            bases = [_complex_gauss(rng, arity, arity) for _ in range(count)]
            direction = _complex_gauss(rng, arity, arity)
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
    return TrialResult(worst, RATIONAL_FIT_TOL)


for _name, _describe, _law, _kind in [
    ("multi-oracle", "the several-variable value matches the interleaved full-system solve",
     _oracle, "multi"),
    ("conjugacy-oracle", "the coupled-slot value matches the interleaved full-system solve",
     _oracle, "tri"),
    ("doublecoset-oracle", "the two-argument value matches the coupled full-system solve",
     _oracle, "doublecoset"),
    ("multi-multiplicative", "slotwise products multiply the several-variable values",
     _multiplicative, "multi"),
    ("conjugacy-multiplicative", "coupled-slot products multiply the transfer values",
     _multiplicative, "tri"),
    ("doublecoset-multiplicative", "paired products multiply the two-argument values",
     _multiplicative, "doublecoset"),
    ("multi-conjugation-invariant", "shared inner conjugation leaves the several-variable value unchanged",
     _invariant, "multi"),
    ("conjugacy-conjugation-invariant", "one shared slot conjugation leaves the value unchanged",
     _invariant, "tri"),
    ("doublecoset-equivalence", "two-sided real orthogonal inner moves leave the value unchanged",
     _invariant, "doublecoset"),
    ("multi-expanding", "values on the closed argument ball expand in every direction",
     _expanding, "multi"),
    ("conjugacy-expanding", "coupled-slot values on the closed argument ball expand",
     _expanding, "tri"),
    ("multi-boundary-unitary", "unitary arguments give unitary several-variable values",
     _boundary_unitary, "multi"),
    ("conjugacy-boundary-unitary", "unitary arguments give unitary coupled-slot values",
     _boundary_unitary, "tri"),
    ("multi-dilation", "diagonal dilations conjugate the several-variable value",
     _dilation, "multi"),
    ("doublecoset-dilation", "congruence dilations of the arguments conjugate the value",
     _dilation, "doublecoset"),
    ("multi-rational", "entries are rational of the sharp degree along a generic line",
     _rational, "multi"),
    ("doublecoset-rational", "entries are rational of the sharp degree along each argument line",
     _rational, "doublecoset"),
]:
    _suite(_name, _describe)(functools.partial(_law, _KINDS[_kind]))


# --- several-variable families ------------------------------------------------


@_suite("multi-reflection", "inverting the adjoint argument inverts the adjoint value")
def _multi_reflection(rng, dims, tol):
    _, real, _, arity = _KINDS["multi"].family(rng, dims, tol)

    def draw():
        s = sample_invertible(rng, arity)
        _require_regular(s)
        reflected = np.linalg.inv(s.conj().T)
        (value,), (reflected_value,) = (_evaluate([real], [arg], tol) for arg in (s, reflected))
        value = _value(value)
        _require_regular(value)
        return value, _value(reflected_value)

    value, reflected_value = _retrying(draw)
    target = np.linalg.inv(value.conj().T)
    return TrialResult(rel_defect(reflected_value, target), _budget(tol))


@_suite(
    "multi-boundary-inverse-experiment",
    "observation: how far values drift from isometry on the non-unitary sphere",
    aggregate=_observational,
)
def _multi_boundary_inverse_experiment(rng, dims, tol):
    alpha, inner, _ = _multi_dims(rng, dims)
    arity = _draw(rng, 2, max(2, min(3, dims.max_arity)))
    real = KIND_TABLE["multi"].realize(random_multi(alpha, inner, arity, rng), tol)
    _, (value,) = _regular_args(rng, arity, 1, [real], tol, _unit_sphere)
    value = _value(value)
    smin, _ = sigma_extremes(value)
    detail = f"smin(value)-1={smin - 1.0:+.3e} unitarity={unitarity_defect(value):.3e}"
    return TrialResult(max(0.0, 1.0 - smin), EXPANSION_SLACK, detail)


@_suite("surface-consistency", "determinant and singular-value surface tests agree with evaluation")
def _surface_consistency(rng, dims, tol):
    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    inner = _draw(rng, 1, 2)
    arity = _draw(rng, 1, 2)
    mc = random_multi(alpha, inner, arity, rng)
    nm = arity * inner

    def draw():
        s = _complex_gauss(rng, arity, arity)
        smin, smax = eigensurface_sigma(mc, s)
        if smax == 0.0 or smin < 0.05 * smax:
            raise _Retry
        return s, smin, smax

    s, smin, smax = _retrying(draw)
    problems = []
    if abs(eigensurface_det(mc, s)) <= tol.surface_guard * smax**nm:
        problems.append("generic point flagged by the determinant test")
    try:
        multi_charfun(mc, s, tol)
    except OnEigensurface:
        problems.append("generic point rejected by evaluation")
    # A scalar matrix built from an inner eigenvalue lies on the surface.
    member = _draw(rng, 0, arity - 1)
    eigenvalues = np.linalg.eigvals(mc.members[member].d)
    mu = eigenvalues[_draw(rng, 0, inner - 1)]
    on = np.eye(arity, dtype=complex) * mu
    smin_on, smax_on = eigensurface_sigma(mc, on)
    if not (smax_on == 0.0 or smin_on <= tol.surface_guard * smax_on):
        problems.append("planted point not flagged by the singular-value test")
    if abs(eigensurface_det(mc, on)) > tol.surface_guard * max(smax_on, 1.0) ** nm:
        problems.append("planted point not flagged by the determinant test")
    try:
        multi_charfun(mc, on, tol)
        problems.append("planted point accepted by evaluation")
    except OnEigensurface:
        pass
    return TrialResult(0.0 if not problems else 1.0, 0.5, "; ".join(problems))


@_suite("single-vs-multi", "a one-member family evaluates like the one-variable transfer at the inverse point")
def _single_vs_multi(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    inner = _draw(rng, 1, dims.max_inner)
    col = random_colligation(alpha, inner, rng)
    real = KIND_TABLE["multi"].realize(MultiColligation([col]), tol)

    def draw():
        s = rng.uniform(0.4, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        (value,) = _evaluate([real], [np.array([[s]])], tol)
        try:
            single = charfun_z(col, 1.0 / s, tol).value
        except NearPole:
            raise _Retry from None
        return value, single

    value, single = _retrying(draw)
    return TrialResult(rel_defect(_value(value), single), _budget(tol))


# --- relation-valued arguments ------------------------------------------------


_relation_dims = _capped_dims(2, 3, 3)


@_suite("relation-compose", "relation composition matches matrix composition on graphs")
def _relation_compose(rng, dims, tol):
    dv, dm, dw = (_draw(rng, 1, 3) for _ in range(3))
    a = _complex_gauss(rng, dm, dv)
    b = _complex_gauss(rng, dw, dm)
    composed = compose_relations(graph_relation(a, tol), graph_relation(b, tol), tol)
    defect = subspace_distance(composed, graph_relation(b @ a, tol))
    # Composing with an identity graph must not move a general relation.
    k = _draw(rng, 1, dv + dm)
    basis = np.linalg.qr(_complex_gauss(rng, dv + dm, k))[0]
    rel = LinearRelation(dv, dm, basis, tol)
    neutral = compose_relations(rel, identity_relation(dm, tol), tol)
    defect = max(defect, subspace_distance(neutral, rel))
    return TrialResult(defect, GRAPH_TOL)


def _containment(draw_constraint):
    """Decorator: the containment law at a constraint drawn, with retries, by
    ``draw_constraint(rng, arity, (prod, first, second), tol)``."""

    def trial(rng, dims, tol):
        alpha, _, arity = _relation_dims(rng, dims)
        first = random_multi(alpha, _draw(rng, 1, 3), arity, rng)
        second = random_multi(alpha, _draw(rng, 1, 3), arity, rng)
        prod = multi_product(first, second, tol)
        constraint = _retrying(lambda: draw_constraint(rng, arity, (prod, first, second), tol))
        big = char_relation(prod, constraint, tol)
        small = compose_relations(
            char_relation(second, constraint, tol), char_relation(first, constraint, tol), tol
        )
        detail = f"dims big={big.dim} small={small.dim}"
        return TrialResult(_containment_residual(big, small), CONTAINMENT_TOL, detail)

    return trial


@_suite("relation-containment", "the composed factor relations sit inside the product relation")
@_containment
def _relation_containment(rng, arity, families, tol):
    try:
        constraint = ConstraintSubspace.from_equations(
            _complex_gauss(rng, arity, arity), _complex_gauss(rng, arity, arity), tol
        )
    except BadSplit:
        raise _Retry from None
    for fam in families:
        if on_eigensurface(fam, constraint, tol):
            raise _Retry
    return constraint


@_suite("relation-containment-surface", "the containment persists on the eigensurface")
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
    sigma = _complex_gauss(rng, arity, arity)
    s = _complex_gauss(rng, arity, arity)
    s[:, member] = -mu * sigma[:, member]
    try:
        constraint = ConstraintSubspace.from_equations(s, sigma, tol)
    except BadSplit:
        raise _Retry from None
    if not on_eigensurface(prod, constraint, tol):
        raise _Retry
    return constraint


@_suite("relation-definiteness", "a definite constraint subspace forces the opposite definiteness downstream")
def _relation_definiteness(rng, dims, tol):
    alpha = _draw(rng, 1, min(2, dims.max_alpha))
    arity = _draw(rng, 1, min(3, dims.max_arity))
    # Strictness of the downstream definiteness needs an inner space at least
    # as large as the exposed one.
    inner = _draw(rng, alpha, max(alpha, min(3, dims.max_inner)))
    mc = random_multi(alpha, inner, arity, rng)

    def draw():
        s = sample_ball(rng, arity, 0.9)
        constraint = ConstraintSubspace.graph_of(s, tol)
        relation = char_relation(mc, constraint, tol)
        if relation.dim != arity * alpha:
            raise _Retry
        return constraint, relation

    constraint, relation = _retrying(draw)
    problems = []
    upstairs = form_on_subspace(signature_form(arity, arity), constraint.basis(), tol)
    if upstairs != "positive-definite":
        problems.append(f"constraint side classified {upstairs}")
    na = arity * alpha
    downstairs = form_on_subspace(signature_form(na, na), relation.basis, tol)
    if downstairs != "negative-definite":
        problems.append(f"relation side classified {downstairs}")
    return TrialResult(0.0 if not problems else 1.0, 0.5, "; ".join(problems))


@_suite("relation-charfun-consistency", "off the surface the relation is the graph of the evaluated function")
def _relation_charfun_consistency(rng, dims, tol):
    alpha, inner, arity = _relation_dims(rng, dims)
    mc = random_multi(alpha, inner, arity, rng)
    real = KIND_TABLE["multi"].realize(mc, tol)
    (s,), (chi,) = _regular_args(rng, arity, 1, [real], tol)
    relation = char_relation(mc, ConstraintSubspace.graph_of(s, tol), tol)
    graph = graph_relation(_value(chi), tol)
    defect = subspace_distance(relation, graph)
    # The equation and basis presentations must cut out the same relation.
    rebuilt = ConstraintSubspace.from_basis(ConstraintSubspace.graph_of(s, tol).basis(), tol)
    defect = max(defect, subspace_distance(relation, char_relation(mc, rebuilt, tol)))
    return TrialResult(defect, GRAPH_TOL)


# --- coupled-slot families ----------------------------------------------------


@_suite(
    "conjugacy-dilation-control",
    "negative control: coupled slots must break the diagonal dilation law",
    aggregate=_expect_some_failure(
        CONTROL_THRESHOLD,
        "the diagonal dilation law held on every coupled-slot instance; "
        "the slot coupling appears to be inert",
    ),
)
def _conjugacy_dilation_control(rng, dims, tol):
    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    slot_dim = _draw(rng, 1, min(3, dims.max_inner))
    tc = random_tri(alpha, slot_dim, 2, rng)
    lam = np.empty(2, dtype=complex)
    lam[0] = rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lam[1] = lam[0] * rng.uniform(1.5, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    real = KIND_TABLE["tri"].realize(tc, tol)

    def draw():
        (s,), right = _regular_args(rng, 2, 1, [real], tol)
        scaled = (lam[:, None] * s) / lam[None, :]
        return _evaluate([real], [scaled], tol) + right

    left, right = _retrying(draw)
    # The value has a single exposed block, so the dilation candidate is plain
    # invariance; it holds exactly when the slots do not couple.
    return TrialResult(rel_defect(_value(left), _value(right)), CONTROL_THRESHOLD)


# --- paired families ----------------------------------------------------------


@_suite("doublecoset-form-increase", "inside the bi-ball the split form never decreases")
def _doublecoset_form_increase(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)
    # A value held as an error carries the message form_checks gives its own.
    (s, r), (chi,) = _regular_args(rng, arity, 2, [real], tol, _ball(0.9), "arguments lie on the eigensurface")
    report = form_checks(fam, s, r, tol, seed=_draw(rng, 0, 2**31 - 1), samples=8, chi=_value(chi))
    smallest = min(report.increase_samples)
    return TrialResult(max(0.0, -smallest), 1e-10, f"smallest increase {smallest:.3e}")


@_suite("doublecoset-pseudo-unitary", "unitary arguments preserve the split form")
def _doublecoset_pseudo_unitary(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)
    _, (chi,) = _regular_args(rng, arity, 2, [real], tol, _haar)
    chi = _value(chi)
    form = indefinite_form(fam.arity, fam.alpha)
    defect = op_norm(chi.conj().T @ form @ chi - form) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect, _budget(tol))


@_suite("doublecoset-transpose", "transposing both arguments inverts the skew-transposed value")
def _doublecoset_transpose(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _regular_args(rng, arity, 2, [real], tol)
        (transposed,) = _evaluate([real], [s.T, r.T], tol)
        chi = _value(chi)
        _require_regular(chi)
        return chi, _value(transposed)

    chi, transposed = _retrying(draw)
    skew = skew_form(fam.arity, fam.alpha)
    target = -skew @ np.linalg.inv(chi.T) @ skew
    return TrialResult(rel_defect(transposed, target), _budget(tol))


@_suite("doublecoset-symplectic", "symmetric arguments give values symplectic for the skew form")
def _doublecoset_symplectic(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)
    _, (chi,) = _regular_args(rng, arity, 2, [real], tol, _symmetric_ball)
    chi = _value(chi)
    skew = skew_form(fam.arity, fam.alpha)
    defect = op_norm(chi.T @ skew @ chi - skew) / max(1.0, op_norm(chi) ** 2)
    return TrialResult(defect, _budget(tol))


@_suite(
    "doublecoset-adjoint-experiment",
    "observation: which adjoint sign convention the reflection law selects",
    aggregate=_observational,
)
def _doublecoset_adjoint_experiment(rng, dims, tol):
    fam, real, _, arity = _KINDS["doublecoset"].family(rng, dims, tol)

    def draw():
        (s, r), (chi,) = _regular_args(rng, arity, 2, [real], tol)
        try:
            return adjoint_experiment(fam, s, r, tol, _value(chi))
        except (OnEigensurface, NearSingular):
            raise _Retry from None

    outcome = _retrying(draw)
    plain = outcome["conjugate-transpose"]
    negated = outcome["negated-conjugate-transpose"]
    detail = f"conjugate-transpose={plain:.3e} negated={negated:.3e}"
    return TrialResult(plain, EXPANSION_SLACK, detail)
