import numpy as np
import numpy.testing as npt
import pytest

from colligations import doublecoset, realization, verify, verify_doublecoset
from colligations.doublecoset import (
    dc_charfun,
    dc_charfun_system,
    dc_equivalent,
    dc_realization,
    skew_form,
    transpose_inverse,
)
from colligations.errors import (
    AlphaMismatch,
    ArityMismatch,
    NotOrthogonal,
    NotUnitary,
    OnEigensurface,
)
from colligations.linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    block_diag,
    haar_orthogonal,
    haar_unitary,
    op_norm,
    rel_defect,
    signature_form,
    unitarity_defect,
)
from colligations.multi import multi_product, random_multi

from families import all_identity, assert_pinned


def small_arguments(rng, arity: int) -> tuple[np.ndarray, np.ndarray]:
    def draw():
        g = rng.standard_normal((arity, arity)) + 1j * rng.standard_normal((arity, arity))
        return 0.5 * g / np.linalg.norm(g, 2)

    return draw(), draw()


def dilation_check(fam, s, r, lam):
    real = dc_realization(fam)
    return verify._KINDS["doublecoset"].dilation(fam, real, (s, r), dc_charfun(fam, s, r).value, lam, DEFAULT_TOLERANCES)


def form_defects(fam, s, r) -> tuple[float, float, float]:
    """The pseudo-unitary and symplectic defects of the value at (S, R), and
    the budget ``1e-9 max(1, |chi|^2)`` they are held to."""
    chi = dc_charfun(fam, s, r).value
    na = fam.arity * fam.alpha
    signature, skew = signature_form(na, na), skew_form(fam.arity, fam.alpha)
    return (
        op_norm(chi.conj().T @ signature @ chi - signature),
        op_norm(chi.T @ skew @ chi - skew),
        1e-9 * max(1.0, op_norm(chi) ** 2),
    )


class TestTransposeInverse:
    def test_unitary_becomes_conjugate(self):
        u = haar_unitary(3, seed=0)
        npt.assert_allclose(transpose_inverse(u), u.conj(), atol=1e-12)

    def test_non_unitary_rejected(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        with pytest.raises(NotUnitary):
            transpose_inverse(g)

    def test_gap_whose_norm_overflows_is_rejected(self):
        # The gap is finite, but its norm overflows.
        with pytest.raises(NotUnitary, match="disagrees"):
            transpose_inverse(np.array([[1.7e308 - 1.7e308j]]))

    @pytest.mark.filterwarnings("error")
    def test_inverse_that_overflows_is_rejected(self):
        # LAPACK raises no error for it, and the inverse it returns is NaN.
        with pytest.raises(NotUnitary, match="inverse not finite"):
            transpose_inverse(np.array([[1e-310]]))

    @pytest.mark.parametrize("g", [[[1 / (1.5e308 + 1.5e308j)]], np.zeros((2, 2))], ids=["underflow", "zero"])
    def test_singular_input_is_not_unitary(self, g):
        with pytest.raises(NotUnitary, match="singular"):
            transpose_inverse(np.array(g))


class TestEquivalence:
    def test_identity_action(self):
        fam = random_multi(1, 2, 2, seed=2)
        out = dc_equivalent(fam, np.eye(2), np.eye(2))
        for g, h in zip(fam.members, out.members):
            npt.assert_allclose(g.matrix, h.matrix, atol=1e-14)

    def test_members_stay_unitary(self):
        fam = random_multi(1, 3, 2, seed=3)
        out = dc_equivalent(fam, haar_orthogonal(3, seed=4), haar_orthogonal(3, seed=5))
        for g in out.members:
            assert unitarity_defect(g.matrix) <= DEFAULT_TOLERANCES.unitarity_tol

    def test_complex_conjugator_rejected(self):
        fam = random_multi(1, 2, 2, seed=6)
        with pytest.raises(NotOrthogonal):
            dc_equivalent(fam, haar_unitary(2, seed=7), np.eye(2))

    def test_transfer_function_invariant(self):
        fam = random_multi(1, 2, 2, seed=8)
        out = dc_equivalent(fam, haar_orthogonal(2, seed=9), haar_orthogonal(2, seed=10))
        rng = np.random.default_rng(11)
        for _ in range(5):
            s, r = small_arguments(rng, 2)
            assert rel_defect(dc_charfun(fam, s, r).value, dc_charfun(out, s, r).value) < 1e-9


class TestProduct:
    def test_identity_family_acts_as_padding(self):
        fam = random_multi(1, 2, 2, seed=12)
        combined = multi_product(fam, all_identity(2, 1, 3))
        rng = np.random.default_rng(13)
        for _ in range(5):
            s, r = small_arguments(rng, 2)
            assert rel_defect(dc_charfun(combined, s, r).value, dc_charfun(fam, s, r).value) < 1e-9

    def test_members_unitary(self):
        combined = multi_product(random_multi(1, 2, 2, seed=14), random_multi(1, 3, 2, seed=15))
        for g in combined.members:
            assert unitarity_defect(g.matrix) <= DEFAULT_TOLERANCES.unitarity_tol

    def test_multiplicative_transfer(self):
        x = random_multi(1, 2, 2, seed=16)
        y = random_multi(1, 2, 2, seed=17)
        combined = multi_product(x, y)
        rng = np.random.default_rng(18)
        for _ in range(5):
            s, r = small_arguments(rng, 2)
            lhs = dc_charfun(combined, s, r).value
            rhs = dc_charfun(x, s, r).value @ dc_charfun(y, s, r).value
            assert rel_defect(lhs, rhs) < 1e-9

    def test_mismatches_rejected(self):
        with pytest.raises(ArityMismatch):
            multi_product(random_multi(1, 2, 2, seed=0), random_multi(1, 2, 3, seed=0))
        with pytest.raises(AlphaMismatch):
            multi_product(random_multi(1, 2, 2, seed=0), random_multi(2, 2, 2, seed=0))


class TestCharfun:
    def test_identity_family_value_is_identity(self):
        s = np.array([[0.2, 0.1], [0.0, 0.3]])
        r = np.array([[0.4, 0.0], [0.2, 0.1]])
        value = dc_charfun(all_identity(2, 2, 2), s, r)
        npt.assert_allclose(value.value, np.eye(8), atol=1e-12)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            fam = random_multi(1, 2, 2, seed=seed)
            s, r = small_arguments(rng, 2)
            closed = dc_charfun(fam, s, r).value
            assert rel_defect(closed, dc_charfun_system(fam, s, r)) < 1e-9

    def test_origin_decouples_into_corner_blocks(self):
        fam = random_multi(2, 2, 2, seed=20)
        zero = np.zeros((2, 2))
        value = dc_charfun(fam, zero, zero).value
        plus = block_diag(*(g.a - g.b @ np.linalg.solve(g.d, g.c) for g in fam.members))
        minus = block_diag(*(g.a.conj() for g in fam.members))
        npt.assert_allclose(value, block_diag(plus, minus), atol=1e-10)

    def test_surface_raises(self):
        with pytest.raises(OnEigensurface):
            # The two chains close into a loop through S R, so the identity
            # family is singular exactly where S R has eigenvalue 1.
            dc_charfun(all_identity(2, 1, 1), np.eye(2), np.eye(2))

    def test_wrong_shapes_rejected(self):
        fam = random_multi(1, 2, 2, seed=21)
        with pytest.raises(ArityMismatch):
            dc_charfun(fam, np.eye(3), np.eye(2))
        with pytest.raises(ValueError):
            dc_charfun(fam, np.full((2, 2), np.nan), np.eye(2))


class TestDilation:
    def test_trivial_scalars(self):
        fam = random_multi(1, 2, 2, seed=22)
        s, r = small_arguments(np.random.default_rng(23), 2)
        left, right = dilation_check(fam, s, r, np.ones(2))
        npt.assert_array_equal(left, right)

    def test_constant_scalars(self):
        fam = random_multi(1, 2, 2, seed=24)
        s, r = small_arguments(np.random.default_rng(25), 2)
        left, right = dilation_check(fam, s, r, np.full(2, 1.3))
        assert rel_defect(left, right) < 1e-9

    def test_random_scalars(self):
        rng = np.random.default_rng(26)
        for seed in range(5):
            fam = random_multi(1, 2, 2, seed=seed)
            s, r = small_arguments(rng, 2)
            lam = rng.uniform(0.5, 2.0, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
            left, right = dilation_check(fam, s, r, lam)
            assert rel_defect(left, right) < 1e-9


class TestForms:
    def test_form_matrices(self):
        m = signature_form(6, 6)
        npt.assert_array_equal(m, np.diag([1.0] * 6 + [-1.0] * 6))
        j = skew_form(2, 3)
        npt.assert_allclose(j, -j.T, atol=0)
        assert j.shape == (12, 12)

    def test_pseudo_unitary_for_unitary_arguments(self):
        fam = random_multi(1, 2, 2, seed=29)
        pseudo, _, budget = form_defects(fam, haar_unitary(2, seed=30), haar_unitary(2, seed=31))
        assert pseudo <= budget

    def test_symplectic_for_symmetric_arguments(self):
        rng = np.random.default_rng(32)
        fam = random_multi(1, 2, 2, seed=33)

        def symmetric():
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g = (g + g.T) / 2.0
            return 0.5 * g / np.linalg.norm(g, 2)

        _, symplectic, budget = form_defects(fam, symmetric(), symmetric())
        assert symplectic <= budget

    def test_sign_diagonal_arguments_satisfy_both(self):
        fam = random_multi(1, 2, 2, seed=34)
        s = np.diag([1.0, -1.0])
        r = np.diag([-1.0, 1.0])
        pseudo, symplectic, budget = form_defects(fam, s, r)
        assert pseudo <= budget
        assert symplectic <= budget


class TestAdjointExperiment:
    def test_plain_reading_holds(self):
        fam = random_multi(1, 2, 2, seed=35)
        s, r = small_arguments(np.random.default_rng(36), 2)
        chi = dc_charfun(fam, s, r).value
        plain, negated = verify_doublecoset._adjoint_readings(fam, dc_realization(fam), s, r, chi, DEFAULT_TOLERANCES)
        assert plain < 1e-9
        assert negated > 1e-3


class TestKeptRealization:
    """A realization is kept by the code that built it, such as a verify
    trial, and handed to the laws that evaluate the family again."""

    def test_each_member_is_cross_checked_once(self, monkeypatch):
        # Given the family's realization, the dilation and adjoint helpers
        # run no transpose-inverse cross-check of their own.
        calls = []
        original = doublecoset.transpose_inverse

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(doublecoset, "transpose_inverse", counted)
        tol = Tolerances(residual_tol=1e-8)
        fam = random_multi(1, 2, 3, seed=37)
        s, r = small_arguments(np.random.default_rng(38), 3)
        real = dc_realization(fam, tol)
        chi = realization.charvalue(real, (s, r), tol).value
        verify._KINDS["doublecoset"].dilation(fam, real, (s, r), chi, np.array([1.5, 0.5j, -2.0]), tol)
        verify_doublecoset._adjoint_readings(fam, real, s, r, chi, tol)
        assert len(calls) == fam.arity

    def test_kept_per_tolerance_profile(self):
        # Each call cross-checks the members under its own tolerances.
        fam = random_multi(1, 2, 2, seed=39)
        strict = Tolerances(residual_tol=1e-300)
        for _ in range(2):
            with pytest.raises(NotUnitary):
                dc_realization(fam, strict)
            with pytest.raises(NotUnitary):
                dc_charfun(fam, *small_arguments(np.random.default_rng(40), 2), strict)
        dc_realization(fam)


# --- input checks -----------------------------------------------------------------

INPUT_CHECKS = [
    pytest.param(
        lambda: dc_equivalent(all_identity(), np.eye(2), np.eye(2)),
        ArityMismatch("inner factors do not match the inner dimension"),
        id="equivalence-factor-size",
    ),
]


@pytest.mark.parametrize("call, want", INPUT_CHECKS)
def test_input_check(call, want):
    assert_pinned(call, want)
