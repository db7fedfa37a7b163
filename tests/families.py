"""Small hand-made colligations and families, argument draws, a check of a
call's pinned outcome and a fresh-process run, shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colligations
from colligations.colligation import Colligation
from colligations.multi import MultiColligation

# The 2x2 swap, a colligation when split at alpha 1.
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def swap_pair() -> MultiColligation:
    """Two swaps: chi(S) is the inverse of S."""
    return MultiColligation([Colligation(SWAP, 1), Colligation(SWAP, 1)])


def all_identity(arity: int = 2, alpha: int = 1, inner: int = 1) -> MultiColligation:
    """A family of identity colligations: chi(S) is the identity, and the
    elimination system is singular at S = I."""
    return MultiColligation([Colligation(np.eye(alpha + inner), alpha) for _ in range(arity)])


def regular_argument(rng, n: int) -> np.ndarray:
    """A complex Gaussian ``n`` x ``n`` argument scaled to operator norm 0.6."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.6 * g / np.linalg.norm(g, 2)


def assert_pinned(call, want) -> None:
    """``call()`` raises an exception of exactly ``want``'s class and message
    where ``want`` is an exception, and otherwise returns ``want`` (arrays,
    also within a tuple, compared by shape and entries)."""
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            call()
        assert (info.type, str(info.value)) == (type(want), str(want))
    else:
        np.testing.assert_equal(call(), want)


def in_fresh_process(code: str, *argv) -> str:
    """Stdout of ``python -c code argv...`` importing the package under test;
    the process must exit 0."""
    src = str(Path(colligations.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout
