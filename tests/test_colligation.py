import numpy as np
import numpy.testing as npt
import pytest

from colligations import colligation
from colligations.colligation import (
    Colligation,
    charfun_z,
    conjugate_inner,
    equivalent_probe,
    pad,
    product,
    random_colligation,
    spectra_match,
    unit_spectrum,
)
from colligations.errors import AlphaMismatch, BadSplit, NearPole, NotUnitary
from colligations.linalg import (
    DEFAULT_TOLERANCES,
    CharValue,
    Tolerances,
    block_diag,
    haar_unitary,
    op_norm,
    sample_disc,
    unitarity_defect,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def swap_colligation() -> Colligation:
    return Colligation(SWAP, alpha=1)


class TestSplit:
    def test_identity_blocks(self):
        col = Colligation(np.eye(3), alpha=1)
        npt.assert_array_equal(col.a, [[1.0]])
        npt.assert_array_equal(col.b, np.zeros((1, 2)))
        npt.assert_array_equal(col.c, np.zeros((2, 1)))
        npt.assert_array_equal(col.d, np.eye(2))

    def test_swap_blocks(self):
        col = swap_colligation()
        npt.assert_array_equal(col.a, [[0.0]])
        npt.assert_array_equal(col.b, [[1.0]])
        npt.assert_array_equal(col.c, [[1.0]])
        npt.assert_array_equal(col.d, [[0.0]])

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            Colligation(np.diag([1.0, 2.0]), alpha=1)

    @pytest.mark.parametrize("alpha", [0, 2, 3])
    def test_split_must_leave_inner_room(self, alpha):
        with pytest.raises(BadSplit):
            Colligation(np.eye(2), alpha=alpha)

    def test_matrix_is_frozen(self):
        col = swap_colligation()
        with pytest.raises(ValueError):
            col.matrix[0, 0] = 5.0


class TestConjugateInner:
    def test_identity_conjugator(self):
        col = random_colligation(2, 3, seed=1)
        npt.assert_allclose(conjugate_inner(col, np.eye(3)).matrix, col.matrix, atol=1e-14)

    def test_sign_conjugator_on_swap(self):
        out = conjugate_inner(swap_colligation(), np.array([[-1.0]]))
        npt.assert_allclose(out.matrix, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-14)

    def test_result_is_unitary(self):
        col = random_colligation(2, 3, seed=4)
        out = conjugate_inner(col, haar_unitary(3, seed=5))
        assert unitarity_defect(out.matrix) <= DEFAULT_TOLERANCES.unitarity_tol

    def test_wrong_dimension(self):
        with pytest.raises(BadSplit):
            conjugate_inner(swap_colligation(), np.eye(2))


class TestPad:
    def test_zero_padding_is_identity(self):
        col = swap_colligation()
        assert pad(col, 0) is col

    def test_swap_padded_once(self):
        out = pad(swap_colligation(), 1)
        npt.assert_array_equal(out.a, [[0.0]])
        npt.assert_array_equal(out.b, [[1.0, 0.0]])
        npt.assert_array_equal(out.c, [[1.0], [0.0]])
        npt.assert_array_equal(out.d, np.diag([0.0, 1.0]))

    def test_preserves_transfer_function(self):
        col = random_colligation(2, 2, seed=9)
        out = pad(col, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            npt.assert_allclose(
                charfun_z(out, z).value, charfun_z(col, z).value, atol=1e-12
            )

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            pad(swap_colligation(), -1)


class TestProduct:
    def test_identity_factor_acts_as_padding(self):
        other = random_colligation(1, 2, seed=3)
        combined = product(Colligation(np.eye(3), 1), other)
        assert equivalent_probe(combined, pad(other, 2))

    def test_swap_squared_matrix(self):
        combined = product(swap_colligation(), swap_colligation())
        npt.assert_allclose(
            combined.matrix,
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            atol=1e-14,
        )

    def test_swap_squared_transfer_is_square(self):
        combined = product(swap_colligation(), swap_colligation())
        assert charfun_z(combined, 0.5).value[0, 0] == pytest.approx(0.25)
        for z in (0.3, -0.2 + 0.4j, 0.8j):
            assert charfun_z(combined, z).value[0, 0] == pytest.approx(z * z)

    def test_product_of_random_is_unitary(self):
        combined = product(random_colligation(2, 3, seed=1), random_colligation(2, 2, seed=2))
        assert unitarity_defect(combined.matrix) <= DEFAULT_TOLERANCES.unitarity_tol
        assert combined.inner == 5

    def test_exposed_dimensions_must_agree(self):
        with pytest.raises(AlphaMismatch):
            product(random_colligation(1, 2, seed=0), random_colligation(2, 2, seed=0))


class TestCharfun:
    def test_value_at_zero_is_corner_block(self):
        col = random_colligation(2, 3, seed=6)
        npt.assert_allclose(charfun_z(col, 0.0).value, col.a, atol=1e-14)

    def test_swap_transfer_is_the_argument(self):
        col = swap_colligation()
        for z in (0.1, -0.7, 0.3 + 0.4j):
            assert charfun_z(col, z).value[0, 0] == pytest.approx(z)

    def test_unitary_on_the_circle(self):
        col = random_colligation(2, 3, seed=8)
        for k in range(4):
            z = np.exp(2j * np.pi * (k + 0.3) / 4)
            value = charfun_z(col, z).value
            assert unitarity_defect(value) <= 1e-9

    def test_pole_raises(self):
        with pytest.raises(NearPole) as err:
            charfun_z(Colligation(np.eye(2), 1), 1.0)
        assert err.value.sigma_min <= DEFAULT_TOLERANCES.surface_guard

    def test_certificate_reported(self):
        value = charfun_z(swap_colligation(), 0.5)
        npt.assert_allclose(value.value, [[0.5]], atol=1e-15)
        assert value.sigma_min == pytest.approx(1.0)


def phase_colligation(alpha: int, phases, seed: int) -> Colligation:
    """Unitary whose inner block is exactly diagonal with the given phases."""
    inner = np.diag(np.exp(2j * np.pi * np.asarray(phases, dtype=float)))
    return Colligation(block_diag(haar_unitary(alpha, seed=seed), inner), alpha)


class TestUnitSpectrum:
    def test_diagonal_inner_block(self):
        col = Colligation(np.diag([1.0, 1j, -1.0]), alpha=1)
        assert spectra_match(unit_spectrum(col), [(1j, 1), (-1.0, 1)], 1e-9)

    def test_swap_has_empty_spectrum(self):
        assert unit_spectrum(swap_colligation()) == []

    def test_unit_eigenvalue_one_is_excluded(self):
        col = phase_colligation(1, [0.0, 0.25], seed=0)
        assert spectra_match(unit_spectrum(col), [(1j, 1)], 1e-9)

    def test_union_under_product(self):
        first = phase_colligation(2, [1 / 3, 2 / 3], seed=1)
        second = phase_colligation(2, [1 / 3, 0.5], seed=2)
        combined = product(first, second)
        expected = [(np.exp(2j * np.pi / 3), 2), (np.exp(4j * np.pi / 3), 1), (-1.0, 1)]
        assert spectra_match(unit_spectrum(combined), expected, 4 * DEFAULT_TOLERANCES.rank_tol)


class TestSpectraMatch:
    def test_multiplicity_mismatch(self):
        assert not spectra_match([(1j, 2)], [(1j, 1)], 1e-9)

    def test_total_count_mismatch(self):
        assert not spectra_match([(1j, 1)], [], 1e-9)

    def test_within_radius(self):
        assert spectra_match([(1j, 1)], [(1j * np.exp(1e-12), 1)], 1e-9)


class TestEquivalentProbe:
    def test_inner_conjugation_is_equivalent(self):
        col = random_colligation(2, 3, seed=10)
        assert equivalent_probe(col, conjugate_inner(col, haar_unitary(3, seed=11)))

    def test_padding_is_equivalent(self):
        col = random_colligation(2, 2, seed=12)
        assert equivalent_probe(col, pad(col, 2))

    def test_swap_differs_from_identity(self):
        assert not equivalent_probe(swap_colligation(), Colligation(np.eye(2), 1))

    def test_exposed_dimensions_must_agree(self):
        with pytest.raises(AlphaMismatch):
            equivalent_probe(random_colligation(1, 2, seed=0), random_colligation(2, 2, seed=0))

    def test_distance_that_overflows_differs(self, monkeypatch):
        # A finite value whose modulus overflows has an infinite norm, and so
        # has its distance from any value of finite norm.
        huge = CharValue(np.array([[1.7e308 + 1.7e308j]]), 1.0)
        charvalues = colligation._charvalues

        def second_value_huge(cols, zs, tol):
            return ((vx, huge) for vx, _ in charvalues(cols, zs, tol))

        monkeypatch.setattr(colligation, "_charvalues", second_value_huge)
        col = swap_colligation()
        assert not equivalent_probe(col, col)

    @staticmethod
    def _outcome(probe, x, y, seed, tol):
        try:
            return probe(x, y, seed=seed, tol=tol)
        except NearPole as exc:
            return str(exc)

    @staticmethod
    def _point_by_point(x, y, num_samples=16, seed=0, tol=DEFAULT_TOLERANCES):
        # The probe written as one charfun_z call per point and colligation.
        rng = np.random.default_rng(seed)
        for _ in range(num_samples):
            z = sample_disc(rng, 0.95)
            vx, vy = charfun_z(x, z, tol).value, charfun_z(y, z, tol).value
            if op_norm(vx - vy) > tol.residual_tol * max(1.0, op_norm(vx), op_norm(vy)):
                return False
        return spectra_match(unit_spectrum(x, tol), unit_spectrum(y, tol), 4.0 * tol.rank_tol)

    def test_points_evaluated_together_answer_as_one_by_one(self):
        # Under a strict guard most points are poles; the probe must still
        # give the loop's answer, or its first NearPole message.
        strict = Tolerances(surface_guard=0.5)
        col = random_colligation(2, 1, seed=2)
        big = random_colligation(2, 3, seed=3)
        pairs = [
            (swap_colligation(), Colligation(np.eye(2), 1)),
            (col, conjugate_inner(col, haar_unitary(1, seed=4))),
            (col, pad(col, 1)),
            (big, conjugate_inner(big, haar_unitary(3, seed=5))),
            (big, random_colligation(2, 3, seed=6)),
        ]
        outcomes = set()
        for x, y in pairs:
            for seed in range(4):
                got = self._outcome(equivalent_probe, x, y, seed, strict)
                assert got == self._outcome(self._point_by_point, x, y, seed, strict)
                outcomes.add(got if isinstance(got, bool) else "NearPole")
        assert outcomes == {True, False, "NearPole"}
