import numpy as np
import numpy.testing as npt
import pytest

from colligations.colligation import Colligation, random_colligation
from colligations.errors import ArityMismatch, BadSplit
from colligations.linalg import DEFAULT_TOLERANCES, Tolerances, op_norm, orthonormal_columns, signature_form
from colligations.multi import MultiColligation, elimination_matrix, multi_charfun, multi_product, random_multi
from colligations.relations import (
    ConstraintSubspace,
    LinearRelation,
    char_relation,
    compose_relations,
    contains,
    form_on_subspace,
    graph_relation,
    identity_relation,
    on_eigensurface,
    subspace_distance,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def swap_pair() -> MultiColligation:
    return MultiColligation([Colligation(SWAP, 1), Colligation(SWAP, 1)])


def all_identity(arity: int = 2, alpha: int = 1, inner: int = 1) -> MultiColligation:
    return MultiColligation([Colligation(np.eye(alpha + inner), alpha) for _ in range(arity)])


def random_relation(rng, dim_v: int, dim_w: int, dim: int) -> LinearRelation:
    raw = rng.standard_normal((dim_v + dim_w, dim)) + 1j * rng.standard_normal((dim_v + dim_w, dim))
    return LinearRelation(dim_v, dim_w, orthonormal_columns(raw, DEFAULT_TOLERANCES.rank_tol))


def random_constraint(rng, n: int) -> ConstraintSubspace:
    raw = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
    return ConstraintSubspace.from_basis(orthonormal_columns(raw, DEFAULT_TOLERANCES.rank_tol))


class TestGraphRelation:
    def test_zero_matrix_gives_horizontal_space(self):
        rel = graph_relation(np.zeros((2, 2)))
        assert rel.dim == 2
        assert op_norm(rel.w_part) < 1e-12

    def test_identity_gives_diagonal(self):
        rel = graph_relation(np.eye(2))
        diagonal = LinearRelation(2, 2, np.vstack([np.eye(2), np.eye(2)]) / np.sqrt(2.0))
        assert subspace_distance(rel, diagonal) < 1e-12

    def test_dimension_is_the_domain(self):
        rng = np.random.default_rng(0)
        rel = graph_relation(rng.standard_normal((3, 2)))
        assert (rel.dim_v, rel.dim_w, rel.dim) == (2, 3, 2)


class TestCompose:
    def test_graphs_compose_as_matrices(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 3))
        composed = compose_relations(graph_relation(a), graph_relation(b))
        assert subspace_distance(composed, graph_relation(b @ a)) < 1e-10

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(2)
        rel = random_relation(rng, 3, 3, 2)
        assert subspace_distance(compose_relations(rel, identity_relation(3)), rel) < 1e-10
        assert subspace_distance(compose_relations(identity_relation(3), rel), rel) < 1e-10

    def test_dimension_bounded_by_matching_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            first = random_relation(rng, 2, 3, rng.integers(1, 4))
            second = random_relation(rng, 3, 2, rng.integers(1, 4))
            match = np.hstack([first.w_part, -second.v_part])
            matching = first.dim + second.dim - np.linalg.matrix_rank(match, tol=1e-9)
            assert compose_relations(first, second).dim <= matching

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_relation_composes_to_empty(self, empty_first):
        # A 0-dimensional factor on either side gives a 0-dimensional
        # relation on the outer split.
        rng = np.random.default_rng(4)
        if empty_first:
            first, second = LinearRelation(2, 3, np.zeros((5, 0))), random_relation(rng, 3, 4, 2)
        else:
            first, second = random_relation(rng, 2, 3, 2), LinearRelation(3, 4, np.zeros((7, 0)))
        composed = compose_relations(first, second)
        assert (composed.dim_v, composed.dim_w, composed.dim) == (2, 4, 0)
        assert composed.basis.shape == (6, 0)

    def test_middle_dimensions_must_agree(self):
        with pytest.raises(BadSplit):
            compose_relations(identity_relation(2), identity_relation(3))


class TestContains:
    def test_reflexive(self):
        rel = random_relation(np.random.default_rng(4), 2, 2, 2)
        assert contains(rel, rel)

    def test_full_space_contains_everything(self):
        rng = np.random.default_rng(5)
        full = LinearRelation(2, 2, np.eye(4))
        for dim in (1, 2, 3):
            assert contains(full, random_relation(rng, 2, 2, dim))

    def test_proper_subspace_does_not_contain_larger(self):
        full = LinearRelation(2, 2, np.eye(4))
        small = random_relation(np.random.default_rng(6), 2, 2, 1)
        assert not contains(small, full)


class TestConstraintSubspace:
    def test_graph_equations(self):
        s = np.array([[0.5, 0.1], [0.0, 0.3]])
        cs = ConstraintSubspace.graph_of(s)
        lhs, rhs = cs.equations()
        npt.assert_allclose(lhs, s, atol=1e-14)
        npt.assert_allclose(rhs, -np.eye(2), atol=1e-14)

    def test_basis_solves_the_equations(self):
        rng = np.random.default_rng(7)
        cs = random_constraint(rng, 3)
        s, sigma = cs.equations()
        basis = cs.basis()
        assert op_norm(s @ basis[:3, :] + sigma @ basis[3:, :]) < 1e-10

    def test_round_trip_between_representations(self):
        rng = np.random.default_rng(8)
        cs = random_constraint(rng, 2)
        rebuilt = ConstraintSubspace.from_equations(*cs.equations())
        gap = subspace_distance(
            LinearRelation(2, 2, cs.basis()), LinearRelation(2, 2, rebuilt.basis())
        )
        assert gap < 1e-10

    def test_rank_deficient_equations_rejected(self):
        with pytest.raises(BadSplit):
            ConstraintSubspace.from_equations(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_rank_holds_where_a_singular_value_overflows(self):
        big = 1.7e308 + 1.7e308j
        assert ConstraintSubspace([[big, 0]]).n == 1
        # Condition number 1e10, past 1 / rank_tol.
        with pytest.raises(BadSplit, match="rank deficient"):
            ConstraintSubspace([[big, 0, 0, 0], [0, big * 1e-10, 0, 0]])

    def test_exactly_one_representation(self):
        with pytest.raises(BadSplit):
            ConstraintSubspace(2)

    def test_is_held_as_its_equation_matrix(self):
        s = np.array([[0.5, 0.1], [0.0, 0.3]])
        cs = ConstraintSubspace(np.hstack([s, -np.eye(2)]))
        assert cs.n == 2
        for got, want in zip(cs.equations(), ConstraintSubspace.graph_of(s).equations()):
            npt.assert_array_equal(got, want)
        for shape in [(0, 0), (2, 3), (4, 2), (4,)]:
            with pytest.raises(BadSplit, match="n x 2n"):
                ConstraintSubspace(np.ones(shape))

    def test_basis_without_full_equations_is_rejected_when_built(self):
        # Orthonormal within unitarity_tol 0.9, but of rank 1 under rank_tol 0.5.
        loose = Tolerances(unitarity_tol=0.9, rank_tol=0.5)
        basis = np.zeros((4, 2))
        basis[0, 0] = 1.0
        basis[:2, 1] = np.array([1.0, 0.5]) / np.hypot(1.0, 0.5)
        with pytest.raises(BadSplit, match="does not determine a full equation system"):
            ConstraintSubspace.from_basis(basis, loose)


class TestOnEigensurface:
    def test_identity_family_meets_identity_graph(self):
        assert on_eigensurface(all_identity(), ConstraintSubspace.graph_of(np.eye(2)))

    def test_forced_zero_inner_state_misses_the_surface(self):
        # Equations v = 0 force the lifted inner state to vanish, so the
        # stacked system is injective and the constraint misses the surface.
        cs = ConstraintSubspace.from_equations(np.eye(2), np.zeros((2, 2)))
        assert not on_eigensurface(swap_pair(), cs)

    def test_matches_determinant_criterion(self):
        generic = np.array([[0.4, 0.1], [0.3, 0.9]])
        singular = np.array([[1.0, 2.0], [0.5, 1.0]])
        assert not on_eigensurface(swap_pair(), ConstraintSubspace.graph_of(generic))
        assert abs(np.linalg.det(elimination_matrix(swap_pair(), generic))) > 1e-3
        assert on_eigensurface(swap_pair(), ConstraintSubspace.graph_of(singular))
        assert abs(np.linalg.det(elimination_matrix(swap_pair(), singular))) < 1e-12

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            on_eigensurface(swap_pair(), ConstraintSubspace.graph_of(np.eye(3)))


class TestCharRelation:
    def test_graph_argument_gives_graph_of_charfun(self):
        mc = random_multi(2, 2, 2, seed=9)
        s = np.array([[0.5, 0.1], [-0.2, 0.6]])
        rel = char_relation(mc, ConstraintSubspace.graph_of(s))
        expected = graph_relation(multi_charfun(mc, s).value)
        assert subspace_distance(rel, expected) < 1e-9

    def test_identity_family_gives_identity_graph(self):
        rng = np.random.default_rng(10)
        rel = char_relation(all_identity(2, 2, 2), random_constraint(rng, 2))
        assert subspace_distance(rel, identity_relation(4)) < 1e-9

    def test_dimension_off_the_surface(self):
        rng = np.random.default_rng(11)
        for seed in range(3):
            mc = random_multi(2, 2, 2, seed=seed)
            cs = random_constraint(rng, 2)
            if on_eigensurface(mc, cs):
                continue
            assert char_relation(mc, cs).dim == mc.arity * mc.alpha

    def test_product_contains_composition(self):
        first = random_multi(1, 2, 2, seed=12)
        second = random_multi(1, 2, 2, seed=13)
        combined = multi_product(first, second)
        cs = random_constraint(np.random.default_rng(14), 2)
        composed = compose_relations(char_relation(second, cs), char_relation(first, cs))
        assert contains(char_relation(combined, cs), composed, DEFAULT_TOLERANCES)

    def test_product_contains_composition_on_surface(self):
        first = random_multi(1, 2, 2, seed=15)
        second = random_multi(1, 2, 2, seed=16)
        combined = multi_product(first, second)
        # Choose the constraint so that its lifted equations annihilate an
        # eigenvector of the product's first inner block exactly.
        mu = np.linalg.eigvals(combined.members[0].d)[0]
        sigma = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
        s = np.array([[0.0, 0.3], [0.0, 1.0]], dtype=complex)
        s[:, 0] = -mu * sigma[:, 0]
        cs = ConstraintSubspace.from_equations(s, sigma)
        assert on_eigensurface(combined, cs)
        composed = compose_relations(char_relation(second, cs), char_relation(first, cs))
        assert contains(char_relation(combined, cs), composed, DEFAULT_TOLERANCES)


class TestForms:
    def test_identity_form_is_positive(self):
        rng = np.random.default_rng(17)
        basis = orthonormal_columns(rng.standard_normal((4, 2)), 1e-9)
        assert form_on_subspace(np.eye(4), basis) == "positive-definite"

    def test_null_vector_is_degenerate(self):
        basis = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert form_on_subspace(np.diag([1.0, -1.0]), basis) == "degenerate"

    def test_split_form_on_the_whole_space_is_indefinite(self):
        assert form_on_subspace(np.diag([1.0, -1.0]), np.eye(2)) == "indefinite"

    def test_empty_basis_is_degenerate(self):
        assert form_on_subspace(np.eye(3), np.zeros((3, 0))) == "degenerate"

    def test_signature_form_layout(self):
        npt.assert_array_equal(signature_form(2, 1), np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            signature_form(-1, 2)

    def test_contraction_graph_definiteness_transfers(self):
        # A strict contraction's graph is positive under diag(I, -I); the
        # characteristic relation at that graph is then strictly negative
        # under the corresponding doubled form.
        mc = random_multi(2, 2, 2, seed=18)
        s = 0.6 * np.linalg.svd(np.random.default_rng(19).standard_normal((2, 2)))[0]
        cs = ConstraintSubspace.graph_of(s)
        upstairs = form_on_subspace(signature_form(2, 2), cs.basis())
        assert upstairs == "positive-definite"
        rel = char_relation(mc, cs)
        downstairs = form_on_subspace(signature_form(4, 4), rel.basis)
        assert downstairs == "negative-definite"

    def test_non_hermitian_form_rejected(self):
        with pytest.raises(BadSplit):
            form_on_subspace(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestNanFailsEveryCheck:
    """A NaN compares false with every tolerance, so each check must fail on it."""

    def test_relation_basis_with_a_nan_is_not_orthonormal(self):
        with pytest.raises(BadSplit, match="not orthonormal"):
            LinearRelation(1, 1, [[np.nan], [0.0]])

    def test_constraint_basis_with_a_nan_is_not_orthonormal(self):
        with pytest.raises(BadSplit, match="not orthonormal"):
            ConstraintSubspace.from_basis([[np.nan], [0.0]])

    def test_form_with_a_nan_is_not_hermitian(self):
        with pytest.raises(BadSplit, match="must be Hermitian"):
            form_on_subspace(np.diag([np.nan, 1.0]), np.eye(2)[:, :1])
