import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colligations.errors import NearSingular, NotOrthogonal, NotUnitary, OnEigensurface
from colligations.linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _svd,
    block_diag,
    haar_orthogonal,
    haar_unitary,
    kernel,
    near_singular,
    op_norm,
    orthonormal_columns,
    rel_defect,
    require_real_orthogonal,
    require_unitary,
    sigma_extremes,
    solve,
    solve_coupled,
    unitarity_defect,
)

from families import assert_pinned

# A finite entry whose modulus overflows, so LAPACK's SVD of it gives NaN;
# its inverse (1 - 1j) / 3.4e308 is representable.
_BIG = 1.7e308 + 1.7e308j
_INVERSE_OF_BIG = (0.5 - 0.5j) / 1.7e308


class TestBlockDiag:
    def test_matches_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(0)
        blocks = [
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
            -np.eye(1),
            np.zeros((3, 1)),
            rng.standard_normal((1, 2)),
        ]
        got = block_diag(*blocks)
        want = scipy_linalg.block_diag(*blocks).astype(complex)
        assert got.dtype == complex
        assert got.shape == want.shape
        npt.assert_array_equal(got, want)
        npt.assert_array_equal(np.signbit(got.real), np.signbit(want.real))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert op_norm(np.zeros((2, 4))) == 0.0

    def test_diagonal_is_largest_modulus(self):
        assert op_norm(np.diag([2j, 1.0])) == pytest.approx(2.0)

    @settings(max_examples=30, derandomize=True)
    @given(st.floats(min_value=-4.0, max_value=4.0), st.integers(min_value=0, max_value=2**32 - 1))
    def test_absolute_homogeneity(self, scale, seed):
        m = np.random.default_rng(seed).standard_normal((3, 3))
        assert op_norm(scale * m) == pytest.approx(abs(scale) * op_norm(m), abs=1e-12)


class TestSolve:
    def test_identity_system(self):
        rhs = np.array([[1.0, 2.0], [3.0, 4.0]])
        x, smin = solve(np.eye(2), rhs, DEFAULT_TOLERANCES)
        npt.assert_allclose(x, rhs)
        assert smin == pytest.approx(1.0)

    def test_diagonal_system(self):
        x, smin = solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]), DEFAULT_TOLERANCES)
        npt.assert_allclose(x, np.array([1.0, 1.0]))
        assert smin == pytest.approx(2.0)

    def test_zero_matrix_raises(self):
        with pytest.raises(NearSingular) as err:
            solve(np.zeros((2, 2)), np.ones(2), DEFAULT_TOLERANCES)
        assert err.value.sigma_min == 0.0

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_residual_is_small(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
        rhs = rng.standard_normal((4, 2))
        x, _ = solve(m, rhs, DEFAULT_TOLERANCES)
        assert op_norm(m @ x - rhs) <= 1e-9 * max(1.0, op_norm(m) * op_norm(x))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("columns", [None, 2], ids=["vector", "matrix"])
    def test_is_the_dense_lu_solve(self, columns):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rhs = rng.standard_normal((4,) if columns is None else (4, columns)) + 0j
        assert solve(m, rhs)[0].tobytes() == np.linalg.solve(m, rhs).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_a_regular_system_whose_singular_value_overflows_is_solved(self):
        x, smin = solve(np.array([[_BIG]]), np.array([1.0]))
        npt.assert_allclose(x, [_INVERSE_OF_BIG], rtol=1e-14)
        assert smin == np.inf
        x, smin = solve(np.diag([_BIG, _BIG / 2]), np.ones(2))
        npt.assert_allclose(x, [_INVERSE_OF_BIG, 2 * _INVERSE_OF_BIG], rtol=1e-14)
        assert np.all(x != 0) and smin == sigma_extremes(np.diag([_BIG, _BIG / 2]))[0]


class TestSolveCoupled:
    def test_is_the_dense_lu_solve(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rhs = rng.standard_normal((4, 2)) + 0j
        assert solve_coupled(m, rhs, DEFAULT_TOLERANCES).tobytes() == np.linalg.solve(m, rhs).tobytes()

    @pytest.mark.parametrize(
        "m", [np.zeros((2, 2)), np.zeros((0, 0)), np.diag([1.0, 1e-9])], ids=["zero", "empty", "guard"]
    )
    def test_singular_raises_on_eigensurface(self, m):
        with pytest.raises(OnEigensurface, match=r"^coupled system is singular \(sigma_min="):
            solve_coupled(m, np.ones((m.shape[0], 1)), Tolerances(surface_guard=1e-8))

    @pytest.mark.filterwarnings("error")
    def test_a_regular_system_whose_singular_value_overflows_is_solved(self):
        x = solve_coupled(np.array([[_BIG]]), np.array([[1.0]]), DEFAULT_TOLERANCES)
        assert x.shape == (1, 1) and np.isfinite(x).all()
        npt.assert_allclose(solve_coupled([[_BIG]], [[1]], DEFAULT_TOLERANCES), [[_INVERSE_OF_BIG]], rtol=1e-14)


class TestHaarSampling:
    def test_unitary_dim_one_has_unit_modulus(self):
        u = haar_unitary(1, seed=3)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary_invariant(self):
        u = haar_unitary(5, seed=42)
        assert unitarity_defect(u) <= DEFAULT_TOLERANCES.unitarity_tol

    def test_unitary_deterministic(self):
        npt.assert_array_equal(haar_unitary(4, seed=11), haar_unitary(4, seed=11))

    def test_unitary_accepts_generator(self):
        direct = haar_unitary(3, seed=np.random.default_rng(9))
        again = haar_unitary(3, seed=np.random.default_rng(9))
        npt.assert_array_equal(direct, again)

    def test_orthogonal_dim_one_is_sign(self):
        values = {complex(haar_orthogonal(1, seed=s)[0, 0]).real for s in range(16)}
        assert values <= {1.0, -1.0}

    def test_orthogonal_invariants(self):
        o = haar_orthogonal(4, seed=7)
        assert unitarity_defect(o) <= DEFAULT_TOLERANCES.unitarity_tol
        assert float(np.max(np.abs(np.asarray(o, dtype=complex).imag))) == 0.0

    def test_orthogonal_deterministic(self):
        npt.assert_array_equal(haar_orthogonal(4, seed=7), haar_orthogonal(4, seed=7))


class TestSubspaceHelpers:
    def test_kernel_of_rank_one(self):
        m = np.array([[1.0, 1.0]])
        k = kernel(m, DEFAULT_TOLERANCES.rank_tol)
        assert k.shape == (2, 1)
        assert op_norm(m @ k) < 1e-12

    def test_orthonormal_columns_span(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((5, 3))
        q = orthonormal_columns(raw, DEFAULT_TOLERANCES.rank_tol)
        npt.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        # Same span: raw columns project onto q exactly.
        npt.assert_allclose(q @ (q.conj().T @ raw), raw, atol=1e-10)

    def test_sigma_extremes_diagonal(self):
        smin, smax = sigma_extremes(np.diag([3.0, 0.5]))
        assert (smin, smax) == (pytest.approx(0.5), pytest.approx(3.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m, want",
        [([[1.7e308 + 1.7e308j, 0], [0, 1]], (1.0, np.inf)), ([[1.7e308 + 1.7e308j]], (np.inf, np.inf))],
        ids=["two-by-two", "one-by-one"],
    )
    def test_an_entry_whose_modulus_overflows_has_an_infinite_norm(self, m, want):
        # Not NaN, and without a warning.
        assert sigma_extremes(m) == want
        assert op_norm(m) == want[1]

    @pytest.mark.parametrize("m", [[[1e308 + 1e308j]], [[8e307 + 8e307j, 0], [0, 1]]], ids=["one-by-one", "two-by-two"])
    def test_entries_near_overflow_keep_the_svds_bits(self, m):
        s = np.linalg.svd(np.array(m, dtype=complex), compute_uv=False)
        assert sigma_extremes(m) == (float(s[-1]), float(s[0]))
        assert sigma_extremes(m)[1] == pytest.approx(abs(m[0][0]), rel=1e-15)

    @pytest.mark.parametrize(
        "s, nullity, rank",
        [(np.nextafter(1e-9, 1.0), 1, 2), (1e-9, 2, 1), (np.nextafter(1e-9, 0.0), 2, 1)],
        ids=["above", "at", "below"],
    )
    def test_kernel_and_span_share_one_rank_rule(self, s, nullity, rank):
        # A singular value counts as zero at or below rtol times the largest.
        m = np.diag([1.0, s, 0.0])
        assert np.linalg.svd(m, compute_uv=False)[1] == s
        assert kernel(m, 1e-9).shape == (3, nullity)
        assert orthonormal_columns(m, 1e-9).shape == (3, rank)

    @pytest.mark.filterwarnings("error")
    def test_rank_holds_where_a_singular_value_overflows(self):
        k = kernel([[_BIG, 0]], 1e-9)
        npt.assert_array_equal(np.abs(k), [[0.0], [1.0]])
        q = orthonormal_columns([[_BIG], [0]], 1e-9)
        npt.assert_array_equal(np.abs(q), [[1.0], [0.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_a_stack_is_scaled_matrix_by_matrix(self, compute_uv):
        # Only the members whose largest singular value overflows are scaled
        # and decomposed again; each gets the bits it gets alone.
        rng = np.random.default_rng(2)
        stack = np.array([np.diag([_BIG, 1.0]), rng.standard_normal((2, 2)) + 0j, np.diag([_BIG, _BIG / 2])])
        scale, got = _svd(stack, compute_uv=compute_uv)
        for k, member in enumerate(stack):
            one_scale, want = _svd(member, compute_uv=compute_uv)
            assert type(one_scale) is float and scale[k] == one_scale == (1.0 if k == 1 else 2.0**-1024)
            for got_part, want_part in zip(got, want) if compute_uv else [(got, want)]:
                assert got_part[k].tobytes() == want_part.tobytes()


class TestNearSingular:
    @pytest.mark.parametrize(
        "s, want", [(np.nextafter(1e-9, 1.0), False), (1e-9, True), (np.nextafter(1e-9, 0.0), True)],
        ids=["above", "at", "below"],
    )
    def test_at_or_below_ratio_times_the_largest(self, s, want):
        assert near_singular(np.diag([1.0, s]), 1e-9) is want

    @pytest.mark.parametrize(
        "m", [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros((0, 2))], ids=["empty", "zero", "no-rows"]
    )
    def test_empty_or_zero_is_near_singular(self, m):
        assert near_singular(m, 1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m, want", [(np.diag([_BIG, _BIG / 2]), False), (np.diag([_BIG, 1.0]), True), ([[_BIG, 0]], False)],
        ids=["conditioned", "ill-conditioned", "wide"],
    )
    def test_holds_where_a_singular_value_overflows(self, m, want):
        assert np.isnan(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])
        assert near_singular(m, 1e-9) is want


class TestRelDefect:
    def test_zero_for_equal(self):
        m = np.arange(6.0).reshape(2, 3)
        assert rel_defect(m, m) == 0.0

    def test_floor_prevents_blowup(self):
        assert rel_defect(np.array([[1e-12]]), np.array([[0.0]])) == pytest.approx(1e-12)

    def test_normalizes_by_larger_operand(self):
        x = np.array([[100.0]])
        y = np.array([[101.0]])
        assert rel_defect(x, y) == pytest.approx(1.0 / 101.0)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.unitarity_tol == 1e-10
        assert tol.residual_tol == 1e-9
        assert tol.rank_tol == 1e-9
        assert tol.surface_guard == 1e-8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(unitarity_tol=2.0)
        with pytest.raises(ValueError):
            Tolerances(residual_tol=0.0)


class TestUnitarityDefect:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [-1e308, 1.4e154, 1e200j], ids=["-1e308", "1.4e154", "1e200j"])
    def test_an_overflowing_gram_matrix_reads_as_inf(self, entry):
        u = np.eye(2, dtype=complex)
        u[0, 0] = entry
        assert unitarity_defect(u) == np.inf
        with pytest.raises(NotUnitary, match=r"defect inf > "):
            require_unitary(u, DEFAULT_TOLERANCES)


# --- input checks and edge returns -----------------------------------------------

INPUT_CHECKS = [
    pytest.param(lambda: op_norm(np.zeros(3)), ValueError("matrix must be two-dimensional, got shape (3,)"), id="1d"),
    pytest.param(lambda: sigma_extremes(np.zeros((0, 3))), (0.0, 0.0), id="sigma-empty"),
    pytest.param(
        lambda: solve(np.zeros((2, 3)), np.zeros(2)),
        ValueError("coefficient matrix must be square, got (2, 3)"),
        id="solve-not-square",
    ),
    pytest.param(lambda: solve(np.eye(2), np.zeros(3)), ValueError("rhs has 3 rows, expected 2"), id="solve-rhs-rows"),
    pytest.param(lambda: solve(np.zeros((0, 0)), np.zeros(0)), (np.zeros(0), 0.0), id="solve-empty-vector"),
    pytest.param(lambda: solve(np.zeros((0, 0)), np.zeros((0, 2))), (np.zeros((0, 2)), 0.0), id="solve-empty-matrix"),
    pytest.param(lambda: kernel(np.zeros((3, 0)), 1e-12), np.zeros((0, 0)), id="kernel-no-columns"),
    pytest.param(lambda: kernel(np.zeros((0, 2)), 1e-12), np.eye(2), id="kernel-no-rows"),
    pytest.param(lambda: kernel(np.zeros((2, 2)), 1e-12), np.eye(2), id="kernel-zero"),
    pytest.param(lambda: unitarity_defect(np.zeros((2, 3))), np.inf, id="defect-not-square"),
    pytest.param(lambda: unitarity_defect(np.zeros((0, 0))), 0.0, id="defect-empty"),
    pytest.param(
        lambda: require_unitary(np.zeros((2, 3)), DEFAULT_TOLERANCES),
        NotUnitary("matrix must be square, got shape (2, 3)"),
        id="unitary-not-square",
    ),
    pytest.param(
        lambda: require_real_orthogonal(np.diag([1.0, 2.0]), DEFAULT_TOLERANCES),
        NotOrthogonal("matrix is not unitary (defect 2.121e+00 > 1.0e-10)"),
        id="orthogonal-not-unitary",
    ),
    pytest.param(lambda: haar_unitary(0, 1), ValueError("dim must be positive, got 0"), id="haar-unitary-dim"),
    pytest.param(lambda: haar_orthogonal(0, 1), ValueError("dim must be positive, got 0"), id="haar-orthogonal-dim"),
]


@pytest.mark.parametrize("call, want", INPUT_CHECKS)
def test_input_check(call, want):
    assert_pinned(call, want)
