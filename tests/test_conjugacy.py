import numpy as np
import numpy.testing as npt
import pytest

from colligations.colligation import Colligation, product, random_colligation
from colligations.conjugacy import (
    TriColligation,
    random_tri,
    tri_charfun,
    tri_charfun_system,
    tri_conjugate,
    tri_product,
    tri_realization,
)
from colligations.errors import AlphaMismatch, ArityMismatch, BadSplit, NotUnitary, OnEigensurface
from colligations.linalg import DEFAULT_TOLERANCES, haar_unitary, rel_defect, unitarity_defect
from colligations import realization

from families import assert_pinned, regular_argument

CYCLIC = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def cyclic_tri() -> TriColligation:
    return TriColligation(CYCLIC, alpha=1, slot_dim=1, slots=2)


def identity_tri(alpha: int, slot_dim: int, slots: int = 2) -> TriColligation:
    return TriColligation(np.eye(alpha + slots * slot_dim), alpha, slot_dim, slots)


def cyclic_closed_form(s: np.ndarray) -> complex:
    """Hand elimination of the cyclic example's two inner equations."""
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] + s[0, 1]
    return (1.0 - s[1, 0]) / det


class TestSplit:
    def test_cyclic_blocks(self):
        tc = cyclic_tri()
        npt.assert_array_equal(tc.a, [[0.0]])
        npt.assert_array_equal(tc.b, [[0.0, 1.0]])
        npt.assert_array_equal(tc.c, [[1.0], [0.0]])
        npt.assert_array_equal(tc.d, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert (tc.inner, tc.size) == (2, 3)

    def test_is_a_colligation(self):
        assert isinstance(cyclic_tri(), Colligation)

    def test_size_must_match_split(self):
        with pytest.raises(BadSplit):
            TriColligation(np.eye(4), alpha=1, slot_dim=1, slots=2)
        # The split is checked before unitarity.
        with pytest.raises(BadSplit):
            TriColligation(np.diag([1.0, 2.0, 1.0, 1.0]), alpha=1, slot_dim=1, slots=2)

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            TriColligation(np.diag([1.0, 2.0, 1.0]), alpha=1, slot_dim=1, slots=2)


class TestConjugate:
    def test_identity_conjugator(self):
        tc = random_tri(2, 2, 2, seed=0)
        npt.assert_allclose(tri_conjugate(tc, np.eye(2)).matrix, tc.matrix, atol=1e-14)

    def test_transfer_function_invariant(self):
        tc = random_tri(2, 2, 2, seed=1)
        out = tri_conjugate(tc, haar_unitary(2, seed=2))
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = regular_argument(rng, 2)
            assert rel_defect(tri_charfun(tc, s).value, tri_charfun(out, s).value) < 1e-10

    def test_conjugator_must_match_slot_dimension(self):
        with pytest.raises(BadSplit):
            tri_conjugate(random_tri(1, 2, 2, seed=0), np.eye(3))


class TestProduct:
    def test_identity_factor_preserves_transfer(self):
        tc = random_tri(2, 2, 2, seed=4)
        combined = tri_product(tc, identity_tri(2, 3))
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = regular_argument(rng, 2)
            assert rel_defect(tri_charfun(combined, s).value, tri_charfun(tc, s).value) < 1e-9

    def test_result_unitary(self):
        combined = tri_product(random_tri(2, 2, 2, seed=6), random_tri(2, 1, 2, seed=7))
        assert unitarity_defect(combined.matrix) <= DEFAULT_TOLERANCES.unitarity_tol
        assert combined.slot_dim == 3

    def test_single_slot_degenerates_to_colligation_product(self):
        x = random_colligation(2, 2, seed=8)
        y = random_colligation(2, 3, seed=9)
        tx = TriColligation(x.matrix, 2, 2, slots=1)
        ty = TriColligation(y.matrix, 2, 3, slots=1)
        npt.assert_allclose(tri_product(tx, ty).matrix, product(x, y).matrix, atol=1e-14)

    def test_mismatches_rejected(self):
        with pytest.raises(AlphaMismatch):
            tri_product(random_tri(1, 2, 2, seed=0), random_tri(2, 2, 2, seed=0))
        with pytest.raises(ArityMismatch):
            tri_product(random_tri(1, 2, 2, seed=0), random_tri(1, 2, 3, seed=0))


class TestCharfun:
    def test_identity_gives_identity(self):
        s = np.array([[0.3, 0.1], [-0.2, 0.4]])
        npt.assert_allclose(tri_charfun(identity_tri(2, 2), s).value, np.eye(2), atol=1e-12)

    def test_cyclic_hand_value(self):
        s = np.array([[2.0, 0.3], [0.5, 1.5]])
        value = tri_charfun(cyclic_tri(), s).value
        assert value.shape == (1, 1)
        assert value[0, 0] == pytest.approx(0.5 / 3.15)
        assert value[0, 0] == pytest.approx(cyclic_closed_form(s))

    def test_cyclic_matches_closed_form_generically(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            value = tri_charfun(cyclic_tri(), s).value[0, 0]
            assert value == pytest.approx(cyclic_closed_form(s))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            tc = random_tri(2, 2, 2, seed=seed)
            s = regular_argument(rng, 2)
            assert rel_defect(tri_charfun(tc, s).value, tri_charfun_system(tc, s)) < 1e-10

    def test_surface_raises(self):
        with pytest.raises(OnEigensurface):
            tri_charfun(identity_tri(1, 1), np.eye(2))

    def test_elimination_matrix_layout(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.kron(s, np.eye(1)) - np.array([[0.0, 0.0], [1.0, 0.0]])
        system = realization.system(tri_realization(cyclic_tri()), [s[None].astype(complex)])[0]
        npt.assert_allclose(system, expected, atol=1e-14)

    def test_wrong_argument_shape(self):
        with pytest.raises(ArityMismatch):
            tri_charfun(cyclic_tri(), np.eye(3))


# --- input checks and edge returns -----------------------------------------------

INPUT_CHECKS = [
    pytest.param(
        lambda: TriColligation(np.zeros((2, 3)), 1, 1), BadSplit("matrix must be square, got shape (2, 3)"), id="not-square"
    ),
    pytest.param(
        lambda: TriColligation(np.eye(3), 0, 1, 2), BadSplit("invalid split alpha=0, slot_dim=1, slots=2"), id="split"
    ),
    pytest.param(lambda: repr(cyclic_tri()), "TriColligation(alpha=1, slot_dim=1, slots=2)", id="repr"),
]


@pytest.mark.parametrize("call, want", INPUT_CHECKS)
def test_input_check(call, want):
    assert_pinned(call, want)
