"""Properties of the batched realization kernel at the float extremes.

Documents of every kind are drawn by seed, so the ``"z"``, ``"S"`` and
``"SR"`` forms are all reached, and every argument entry has its own
magnitude anywhere from 5e-324 to 1.7e308, or is a signed zero.  At such
points the systems overflow, underflow and turn singular, which is where
the kernel's rounding and its warnings have gone wrong before.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from colligations.documents import KIND_TABLE, KINDS
from colligations.linalg import DEFAULT_TOLERANCES
from colligations.realization import evaluate, surface_indicators

# Real and imaginary parts: signed zeros, subnormals and anything up to the
# float limit, each drawn on its own.
_PART = st.floats(min_value=-1.7e308, max_value=1.7e308, allow_nan=False, allow_infinity=False)
_ENTRY = st.builds(complex, _PART, _PART)


@st.composite
def _batches(draw):
    """A realization and a stack of 2 to 6 points for it."""
    kind = draw(st.sampled_from(KINDS))
    spec = KIND_TABLE[kind]
    alpha, inner, arity = (draw(st.integers(1, 2)) for _ in range(3))
    fam = spec.random(alpha, inner, arity, draw(st.integers(0, 2**32 - 1)))
    real = spec.realize(fam, DEFAULT_TOLERANCES)
    count = draw(st.integers(2, 6))
    if spec.argument_dim is None:
        return real, [np.array(draw(st.lists(_ENTRY, min_size=count, max_size=count)))]
    n = spec.argument_dim(fam)
    entries = st.lists(_ENTRY, min_size=count * n * n, max_size=count * n * n)
    return real, [np.array(draw(entries)).reshape(count, n, n) for _ in spec.variables]


def _alone(kernel, real, args):
    """``kernel`` at each point of ``args`` on its own, restacked."""
    points = [kernel(real, [arg[k : k + 1] for arg in args]) for k in range(len(args[0]))]
    return [np.concatenate(parts) for parts in zip(*points)]


def _bits(arrays):
    return [a.tobytes() for a in arrays]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_batches())
def test_a_point_alone_gives_the_bits_it_gives_in_a_batch_and_no_warning(batch):
    real, args = batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (evaluate, surface_indicators):
            assert _bits(kernel(real, args)) == _bits(_alone(kernel, real, args)), kernel.__name__
