"""The ``verify`` suites over one-variable colligations."""

import math

import numpy as np

from .errors import NearPole
from .linalg import block_diag, haar_unitary, op_norm, rel_defect, unitarity_defect
from .colligation import (
    Colligation, _charvalues, colligation_realization, conjugate_inner, equivalent_probe, pad, product,
    random_colligation, spectra_match, unit_spectrum,
)
from . import linalg
from .verify import (
    EXPANSION_SLACK, GROWTH_FACTOR, _FLOOR, TrialResult, _conditioned, _draw, _evaluate, _retrying,
    _Retry, _suite, _value,
)


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
    return TrialResult(defect)


@_suite("product-associative", "the triple product agrees bracketed either way")
def _product_associative(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    cols = [random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng) for _ in range(3)]
    left = product(product(cols[0], cols[1], tol), cols[2], tol)
    right = product(cols[0], product(cols[1], cols[2], tol), tol)
    return TrialResult(rel_defect(left.matrix, right.matrix))


@_suite("charfun-multiplicative", "the transfer function of a product is the product of transfer functions")
def _charfun_multiplicative(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    x = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    y = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    prod = product(x, y, tol)
    zs = [linalg.sample_disc(rng, 0.95) for _ in range(3)]  # no poles inside the open disc
    values = _charvalues([x, y, prod], zs, tol)
    return TrialResult(max(rel_defect(vp.value, vx.value @ vy.value) for vx, vy, vp in values))


@_suite("charfun-contractive", "transfer values inside the open disc are contractions", budget=EXPANSION_SLACK)
def _charfun_contractive(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)
    zs = [linalg.sample_disc(rng, 0.999) for _ in range(4)]
    worst = max(op_norm(value.value) - 1.0 for (value,) in _charvalues([col], zs, tol))
    return TrialResult(max(worst, 0.0))


@_suite("charfun-boundary-unitary", "transfer values on the unit circle are unitary")
def _charfun_boundary_unitary(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)
    reals = [colligation_realization(col)]

    def draw():
        z = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        return _value(_evaluate(reals, [z], tol)[0])

    return TrialResult(unitarity_defect(_retrying(draw)))


@_suite("charfun-reflection", "reflecting the point across the circle inverts the adjoint value")
def _charfun_reflection(rng, dims, tol):
    col = random_colligation(_draw(rng, 1, dims.max_alpha), _draw(rng, 1, dims.max_inner), rng)

    def draw():
        radius = rng.uniform(0.35, 0.8)
        z = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        values = _charvalues([col], [z, 1.0 / np.conj(z)], tol)
        (inner,) = next(values)
        _conditioned(inner.value, _FLOOR.surface_guard)
        try:
            (outer,) = next(values)
        except NearPole:
            raise _Retry from None
        return inner.value, outer.value

    inner, outer = _retrying(draw)
    target = np.linalg.inv(inner.conj().T)
    return TrialResult(rel_defect(outer, target))


@_suite("charfun-conjugation-invariant", "inner conjugation leaves the transfer function unchanged")
def _charfun_conjugation_invariant(rng, dims, tol):
    inner = _draw(rng, 1, dims.max_inner)
    col = random_colligation(_draw(rng, 1, dims.max_alpha), inner, rng)
    other = conjugate_inner(col, haar_unitary(inner, rng), tol)
    zs = [linalg.sample_disc(rng, 0.95) for _ in range(3)]
    worst = max(rel_defect(u.value, v.value) for u, v in _charvalues([col, other], zs, tol))
    return TrialResult(worst)


@_suite("spectrum-union", "unit spectra of factors merge into the product's unit spectrum", budget=0.5)
def _spectrum_union(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    # Plant exact grid phases; sometimes include the excluded fixed phase 1.
    ks_x = [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(_draw(rng, 1, 3))]
    if rng.uniform() < 0.5:
        ks_x.append(0)
    ks_y = [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(_draw(rng, 1, 2))]
    x = product(
        _phase_colligation(rng, alpha, ks_x, tol),
        random_colligation(alpha, _draw(rng, 1, min(3, dims.max_inner)), rng),
        tol,
    )
    y = _phase_colligation(rng, alpha, ks_y, tol)
    got = unit_spectrum(product(x, y, tol), tol)
    expected = _expected_phase_spectrum(ks_x, ks_y)
    ok = spectra_match(got, expected, 4.0 * tol.rank_tol)
    return TrialResult(0.0 if ok else 1.0, "" if ok else f"got {got}, expected {expected}")


@_suite("pole-witness", "a planted inner eigenvalue forces the closed-form blow-up toward its pole")
def _pole_witness(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    lam = rng.uniform(0.3, 0.899) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    col = _blaschke_colligation(alpha, lam, tol)
    points, model = _pole_ray_points(lam)
    measured = [op_norm(value.value) for (value,) in _charvalues([col], points, tol)]
    defect = max(abs(m - c) / c for m, c in zip(measured, model))
    ratio = measured[3] / measured[0]
    if ratio < GROWTH_FACTOR:
        defect = max(defect, 1.0)
    return TrialResult(defect, f"growth {ratio:.2f}x over three halvings")


@_suite("pole-growth", "the blow-up survives multiplication by a random factor", budget=1e-9)
def _pole_growth(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    inner = _draw(rng, 1, dims.max_inner)
    lam = rng.uniform(0.3, 0.899) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    planted = _blaschke_colligation(alpha, lam, tol)
    points, _ = _pole_ray_points(lam)

    def draw():
        prod = product(random_colligation(alpha, inner, rng), planted, tol)
        return [op_norm(value.value) for (value,) in _charvalues([prod], points, tol)]

    measured = _retrying(draw, NearPole)
    ratio = measured[3] / measured[0]
    defect = max(0.0, (GROWTH_FACTOR - ratio) / GROWTH_FACTOR)
    return TrialResult(defect, f"growth {ratio:.2f}x over three halvings")


@_suite("padding-invariance", "padding the inner space changes neither transfer nor unit spectrum")
def _padding_invariance(rng, dims, tol):
    alpha = _draw(rng, 1, dims.max_alpha)
    col = random_colligation(alpha, _draw(rng, 1, dims.max_inner), rng)
    padded = pad(col, _draw(rng, 1, 2))
    zs = [linalg.sample_disc(rng, 0.95) for _ in range(3)]
    worst = max(rel_defect(u.value, v.value) for u, v in _charvalues([col, padded], zs, tol))
    planted = _phase_colligation(rng, alpha, [_draw(rng, 1, _PHASE_GRID - 1) for _ in range(2)], tol)
    padded_planted = pad(planted, _draw(rng, 1, 2))
    ok = spectra_match(
        unit_spectrum(padded_planted, tol), unit_spectrum(planted, tol), 4.0 * tol.rank_tol
    )
    return TrialResult(max(worst, 0.0 if ok else 1.0))
