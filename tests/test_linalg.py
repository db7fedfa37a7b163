import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colligations.errors import NearSingular, OnEigensurface
from colligations.linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    block_diag,
    haar_orthogonal,
    haar_unitary,
    kernel,
    op_norm,
    orthonormal_columns,
    rel_defect,
    sigma_extremes,
    solve,
    solve_coupled,
    unitarity_defect,
)


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
