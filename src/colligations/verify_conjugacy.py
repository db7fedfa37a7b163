"""The ``verify`` suites of coupled-slot colligations (``conjugacy-*``)."""

import numpy as np

from .linalg import haar_unitary, rel_defect
from .documents import KIND_TABLE
from . import conjugacy
from .verify import CONTROL_THRESHOLD, EXPANSION_SLACK, TrialResult, _draw, _evaluate, _retrying, _suite, _value
from .verify_matrix import (
    _Kind, _at_value, _ball, _expanding, _haar, _invariant, _multiplicative, _oracle, _register, _unitary,
)


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


def _tri_dims(rng, dims) -> tuple[int, int, int]:
    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    slot_dim = _draw(rng, 1, min(3, dims.max_inner))
    slots = 2 if rng.uniform() < 0.7 or dims.max_arity < 3 else 3
    return alpha, slot_dim, slots


_KIND = _Kind(
    KIND_TABLE["tri"], _tri_dims, 3,
    oracle=lambda tc, args, tol: conjugacy.tri_charfun_system(tc, *args, tol),
    equivalent=lambda tc, inner, rng, tol: conjugacy.tri_conjugate(tc, haar_unitary(inner, rng), tol),
)

_register(_KIND, [
    ("conjugacy-oracle", "the coupled-slot value matches the interleaved full-system solve", _oracle, None),
    ("conjugacy-multiplicative", "coupled-slot products multiply the transfer values", _multiplicative, None),
    ("conjugacy-conjugation-invariant", "one shared slot conjugation leaves the value unchanged", _invariant, None),
    ("conjugacy-expanding", "coupled-slot values on the closed argument ball expand",
     _at_value(_ball(0.95), _expanding), EXPANSION_SLACK),
    ("conjugacy-boundary-unitary", "unitary arguments give unitary coupled-slot values",
     _at_value(_haar, _unitary), None),
])


@_suite(
    "conjugacy-dilation-control",
    "negative control: coupled slots must break the diagonal dilation law",
    budget=CONTROL_THRESHOLD,
    aggregate=_control,
)
def _conjugacy_dilation_control(rng, dims, tol):
    alpha = _draw(rng, 1, min(3, dims.max_alpha))
    slot_dim = _draw(rng, 1, min(3, dims.max_inner))
    tc = conjugacy.random_tri(alpha, slot_dim, 2, rng)
    lam = np.empty(2, dtype=complex)
    lam[0] = rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lam[1] = lam[0] * rng.uniform(1.5, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    real = KIND_TABLE["tri"].realize(tc, tol)

    def draw():
        (s,), right = _KIND.args(rng, 2, [real], tol)
        scaled = (lam[:, None] * s) / lam[None, :]
        return _evaluate([real], [scaled], tol) + right

    left, right = _retrying(draw)
    # The value has a single exposed block, so the dilation candidate is plain
    # invariance; it holds exactly when the slots do not couple.
    return TrialResult(rel_defect(_value(left), _value(right)))
