import numpy as np
import numpy.testing as npt
import pytest

from colligations.colligation import (
    charfun_z,
    conjugate_inner,
    equivalent_probe,
    pad,
    product,
    random_colligation,
)
from colligations.errors import AlphaMismatch, ArityMismatch, OnEigensurface
from colligations import multi, verify_multi
from colligations.linalg import DEFAULT_TOLERANCES, haar_unitary, rel_defect, sigma_extremes, unitarity_defect
from colligations.multi import (
    MultiColligation,
    elimination_matrix,
    multi_charfun,
    multi_charfun_system,
    multi_conjugate,
    multi_product,
    multi_realization,
    random_multi,
)

from families import all_identity, assert_pinned, regular_argument, swap_pair


def dilation(mc, s, lam):
    real = multi_realization(mc)
    return verify_multi._multi_dilation(mc, real, (s,), multi_charfun(mc, s).value, lam, DEFAULT_TOLERANCES)


class TestFamily:
    def test_shared_split_required(self):
        with pytest.raises(AlphaMismatch):
            MultiColligation([random_colligation(1, 2, seed=0), random_colligation(2, 1, seed=0)])
        with pytest.raises(ArityMismatch):
            MultiColligation([random_colligation(1, 2, seed=0), random_colligation(1, 3, seed=0)])
        with pytest.raises(ArityMismatch):
            MultiColligation([])

    def test_dimensions(self):
        mc = random_multi(2, 3, 2, seed=0)
        assert (mc.alpha, mc.inner, mc.arity) == (2, 3, 2)


class TestConjugate:
    def test_identity_conjugator(self):
        mc = random_multi(2, 2, 2, seed=1)
        out = multi_conjugate(mc, np.eye(2))
        for g, h in zip(mc.members, out.members):
            npt.assert_allclose(g.matrix, h.matrix, atol=1e-14)

    def test_single_member_matches_colligation_route(self):
        col = random_colligation(2, 3, seed=2)
        u = haar_unitary(3, seed=3)
        out = multi_conjugate(MultiColligation([col]), u)
        npt.assert_allclose(out.members[0].matrix, conjugate_inner(col, u).matrix, atol=1e-14)

    def test_transfer_function_invariant(self):
        mc = random_multi(2, 2, 2, seed=4)
        out = multi_conjugate(mc, haar_unitary(2, seed=5))
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = regular_argument(rng, 2)
            assert rel_defect(multi_charfun(mc, s).value, multi_charfun(out, s).value) < 1e-10


class TestProduct:
    def test_identity_family_pads(self):
        mc = random_multi(1, 2, 2, seed=7)
        combined = multi_product(mc, all_identity(2, 1, 3))
        for g, h in zip(combined.members, mc.members):
            assert equivalent_probe(g, pad(h, 3))

    def test_single_member_reduces_to_colligation_product(self):
        x, y = random_colligation(2, 2, seed=8), random_colligation(2, 3, seed=9)
        combined = multi_product(MultiColligation([x]), MultiColligation([y]))
        npt.assert_allclose(combined.members[0].matrix, product(x, y).matrix, atol=1e-14)

    def test_members_unitary(self):
        combined = multi_product(random_multi(2, 2, 2, seed=10), random_multi(2, 3, 2, seed=11))
        for g in combined.members:
            assert unitarity_defect(g.matrix) <= DEFAULT_TOLERANCES.unitarity_tol

    def test_arities_must_agree(self):
        with pytest.raises(ArityMismatch):
            multi_product(random_multi(1, 2, 2, seed=0), random_multi(1, 2, 3, seed=0))


class TestCharfun:
    def test_all_identity_gives_identity(self):
        s = np.array([[0.3, 0.1], [-0.2, 0.4]])
        value = multi_charfun(all_identity(2, 2, 2), s)
        npt.assert_allclose(value.value, np.eye(4), atol=1e-12)

    def test_swap_pair_inverts_the_argument(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            npt.assert_allclose(
                multi_charfun(swap_pair(), s).value, np.linalg.inv(s), atol=1e-9
            )

    def test_single_member_matches_reciprocal_argument(self):
        col = random_colligation(2, 3, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(5):
            s = rng.uniform(0.5, 2.5) * np.exp(2j * np.pi * rng.uniform())
            family_value = multi_charfun(MultiColligation([col]), np.array([[s]])).value
            npt.assert_allclose(family_value, charfun_z(col, 1.0 / s).value, atol=1e-9)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            mc = random_multi(2, 2, 2, seed=seed)
            s = regular_argument(rng, 2)
            closed = multi_charfun(mc, s).value
            assert rel_defect(closed, multi_charfun_system(mc, s)) < 1e-10

    def test_wrong_argument_shape(self):
        with pytest.raises(ArityMismatch):
            multi_charfun(swap_pair(), np.eye(3))

    def test_non_finite_argument(self):
        with pytest.raises(ValueError):
            multi_charfun(swap_pair(), np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestEigensurface:
    def test_swap_pair_determinant(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            s = rng.standard_normal((2, 2))
            assert np.linalg.det(elimination_matrix(swap_pair(), s)) == pytest.approx(np.linalg.det(s))

    def test_all_identity_is_singular_at_identity(self):
        assert abs(np.linalg.det(elimination_matrix(all_identity(2, 1, 1), np.eye(2)))) < 1e-12
        with pytest.raises(OnEigensurface):
            multi_charfun(all_identity(2, 1, 1), np.eye(2))

    def test_determinant_vanishes_where_charfun_fails(self):
        singular = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(OnEigensurface):
            multi_charfun(swap_pair(), singular)
        assert abs(np.linalg.det(elimination_matrix(swap_pair(), singular))) < 1e-12

    def test_sigma_matches_elimination_matrix(self):
        s = np.array([[0.5, 0.2], [0.1, 0.8]])
        system = elimination_matrix(swap_pair(), s)
        smin, smax = sigma_extremes(system)
        singulars = np.linalg.svd(system, compute_uv=False)
        assert smin == pytest.approx(float(singulars[-1]))
        assert smax == pytest.approx(float(singulars[0]))


class TestDiagConjugation:
    def test_trivial_scalars(self):
        mc = random_multi(2, 2, 2, seed=17)
        s = regular_argument(np.random.default_rng(18), 2)
        left, right = dilation(mc, s, np.ones(2))
        npt.assert_allclose(left, right, atol=1e-12)
        npt.assert_allclose(left, multi_charfun(mc, s).value, atol=1e-12)

    def test_swap_pair_closed_form(self):
        lam = np.array([2.0, 0.5 + 0.5j])
        s = np.array([[0.3, 0.4], [0.2, 0.9]])
        left, right = dilation(swap_pair(), s, lam)
        lam_big = np.diag(lam)
        expected = lam_big @ np.linalg.inv(s) @ np.linalg.inv(lam_big)
        npt.assert_allclose(left, expected, atol=1e-10)
        npt.assert_allclose(right, expected, atol=1e-10)

    def test_random_instances_agree(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            mc = random_multi(2, 2, 2, seed=seed)
            s = regular_argument(rng, 2)
            lam = rng.uniform(0.5, 2.0, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
            left, right = dilation(mc, s, lam)
            assert rel_defect(left, right) < 1e-9


class TestKeptRealization:
    """A realization is kept by the code that built it, such as a verify
    trial, and handed to the laws that evaluate the family again."""

    def test_blocks_are_built_once(self, monkeypatch):
        # The "S" form is four block_diag calls, one per block; given the
        # family's realization, the dilation helper runs none.
        mc = random_multi(2, 2, 3, seed=20)
        s = regular_argument(np.random.default_rng(21), 3)
        real = multi_realization(mc)
        chi = multi_charfun(mc, s).value
        calls = []
        original = multi.block_diag

        def counted(*blocks):
            calls.append(1)
            return original(*blocks)

        monkeypatch.setattr(multi, "block_diag", counted)
        multi_realization(mc)
        assert len(calls) == 4
        for _ in range(2):
            verify_multi._multi_dilation(mc, real, (s,), chi, np.array([1.5, 0.5j, -2.0]), DEFAULT_TOLERANCES)
        assert len(calls) == 4


# --- input checks and edge returns -----------------------------------------------

INPUT_CHECKS = [
    pytest.param(
        lambda: MultiColligation([np.eye(2)]), TypeError("members must be Colligation instances"), id="member-type"
    ),
    pytest.param(
        lambda: multi_conjugate(swap_pair(), np.eye(2)),
        ArityMismatch("conjugator has dimension 2, expected 1"),
        id="conjugator-size",
    ),
    pytest.param(lambda: repr(swap_pair()), "MultiColligation(arity=2, alpha=1, inner=1)", id="repr"),
]


@pytest.mark.parametrize("call, want", INPUT_CHECKS)
def test_input_check(call, want):
    assert_pinned(call, want)
