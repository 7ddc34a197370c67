import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cmereg import linalg
from cmereg.errors import InputError, NumericalError
from cmereg.embedding import fit, ridge_coefficients
from cmereg.kernels import KernelSpec, cross_gram, gram
from cmereg.linalg import blas_threads, class_ridge_inverse, matmul, solve_spd, sym_eig_max
from cmereg.pendulum import PendulumParams, collect_dataset
from cmereg.sparse import PENALTIES

from oracles import eig_max_dense, openblas_pool_threads, random_spd, traced_peak


class TestSolveSpd:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        res = solve_spd(np.eye(3))
        np.testing.assert_allclose(res.solution @ B, B, atol=1e-14)

    def test_hand_inverse_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = solve_spd(A)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(res.solution, expected, atol=1e-12)

    def test_ridge_shifted_gram_residual(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((12, 2))
        K = gram(KernelSpec("gaussian", 1.0), pts)
        A = K + 0.1 * 12 * np.eye(12)
        res = solve_spd(A)
        tol = 1e-8 * (1 + np.linalg.norm(np.eye(12)))
        assert res.residual_norm <= tol
        assert np.linalg.norm(A @ res.solution - np.eye(12)) <= tol

    def test_residual_property_100_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            A = random_spd(rng, n)
            B = rng.standard_normal((n, int(rng.integers(1, 4))))
            res = solve_spd(A)
            assert np.linalg.norm(A @ (res.solution @ B) - B) <= 1e-8 * (1 + np.linalg.norm(B))
            assert res.residual_norm <= 1e-8

    def test_residual_probe_is_relative_row_sum_residual(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        for shift in (0.0, 0.5, 7.0):  # the probe is of the shifted system A + shift*I
            res = solve_spd(A, shift=shift)
            probe = np.linalg.norm((A + shift * np.eye(2)) @ res.solution.sum(axis=1) - 1.0) / np.sqrt(2.0)
            assert res.residual_norm == pytest.approx(probe, abs=1e-15), shift

    @pytest.mark.parametrize("rhs", [False, True], ids=["inverse", "solve"])
    @pytest.mark.parametrize("n", [5, 50, 400])
    def test_shift_gives_lapack_bits_on_the_shifted_matrix(self, n, rhs):
        # the shift that solve_spd adds to its own copy gives the bits of LAPACK run on
        # K + shift*I formed beforehand: dpotrf, then dpotrs or dpotri mirrored
        rng = np.random.default_rng(n)
        spec, points = KernelSpec("gaussian", 1.0), rng.standard_normal((n, 2))
        K, shift = gram(spec, points), 1e-3 * n
        B = cross_gram(spec, points, rng.standard_normal((9, 2))) if rhs else None
        A = K.copy()
        A.flat[:: n + 1] += shift
        c, info = scipy.linalg.lapack.dpotrf(A, lower=1)
        assert info == 0
        if rhs:
            want = scipy.linalg.lapack.dpotrs(c, B, lower=1)[0]
        else:
            low = scipy.linalg.lapack.dpotri(c, lower=1)[0]
            want = np.tril(low) + np.tril(low, -1).T
        before = K.copy()
        got = solve_spd(K, B, shift=shift).solution
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(K, before)

    @pytest.mark.parametrize("m,bound", [(None, 2.05), (80, 1.15)], ids=["inverse", "solve-80"])
    def test_dense_ridge_peak_memory(self, m, bound):
        # one work copy of K, factored (and inverted) in place, and the solution: no
        # caller-side shifted copy and no LAPACK-side F-ordered copy (3.0 and 2.1 n^2 floats)
        n, spec = 800, KernelSpec("gaussian", 2.0)
        rng = np.random.default_rng(16)
        points = rng.standard_normal((n, 4))
        K = gram(spec, points)
        B = None if m is None else cross_gram(spec, points, rng.standard_normal((m, 4)))
        peak = traced_peak(lambda: ridge_coefficients(spec, K, 1e-3 * n, B))
        assert peak <= bound * 8 * n * n, peak / (8 * n * n)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 64, 201):
            X = solve_spd(random_spd(rng, n)).solution
            assert np.array_equal(X, X.T)

    @pytest.mark.parametrize("n", [5, 50, 400])
    @pytest.mark.parametrize("variant", ["gaussian", "delta"])
    def test_ridge_inverse_matches_cho_solve(self, variant, n):
        rng = np.random.default_rng(n)
        if variant == "gaussian":
            spec = KernelSpec("gaussian", 1.0)
            K, shift = gram(spec, rng.standard_normal((n, 2))), 1e-3 * n
        else:
            spec = KernelSpec("delta")
            K, shift = gram(spec, list(rng.integers(0, 4, n))), n**0.5
        before = K.copy()
        W = ridge_coefficients(spec, K, shift)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(K + shift * np.eye(n)), np.eye(n))
        assert np.linalg.norm(W - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(W, W.T)
        assert np.array_equal(K, before)

    def test_class_ridge_inverse_rejects_a_zero_on_the_diagonal(self):
        # a NaN point equals nothing, so its Gram row is all 0 and argmax put it in
        # class 0: ridge_coefficients gave W[0, 0] = 0.5 where (K + I)^{-1} has 1.0
        K = gram(KernelSpec("delta"), [np.nan, 1.0])
        assert np.array_equal(K, [[0.0, 0.0], [0.0, 1.0]])
        for B in (None, np.ones((2, 1))):
            with pytest.raises(InputError, match="diagonal"):
                ridge_coefficients(KernelSpec("delta"), K, 1.0, B)
        with pytest.raises(InputError, match="diagonal"):
            class_ridge_inverse(np.array([[1.0, 1.0], [1.0, 2.0]]), 1.0)

    def test_class_ridge_inverse_unseen_query_at_a_subnormal_shift(self):
        # a query no point equals has an all-0 column of B; 1/shift overflows at a subnormal
        # shift, and 0 * inf is NaN, so that column must never meet 1/shift
        delta, points, queries = KernelSpec("delta"), [0, 1, 1, 2, 2, 2], [0, 1, 2, 7]
        K, B = gram(delta, points), cross_gram(delta, points, queries)
        for shift in (5e-324, 3e-320, 1e-300, 1e-3, 2.0):
            with np.errstate(over="raise", invalid="raise"):
                A = class_ridge_inverse(K, shift, B)
            # row i of B times g of i's class, g = 1/(c + shift) from one solve of diag(c + shift)
            g = np.diagonal(solve_spd(np.diag(np.array([1, 2, 3]) + shift)).solution)
            assert np.array_equal(A, B * g[[0, 1, 1, 2, 2, 2]][:, None]), shift
            assert np.all(np.isfinite(A)) and not np.any(A[:, 3]) and not np.any(np.signbit(A))

    @pytest.mark.parametrize("spec,points", [(KernelSpec("linear"), [0.0, 1.0]), (KernelSpec("delta"), [0, 1, 1])],
                             ids=["dense", "class"])
    def test_overflowing_inverse_raises_naming_the_shift(self, spec, points):
        # 1/shift overflows at a subnormal shift, so either path's inverse holds inf or NaN;
        # ridge_coefficients, the one check, raises, with no numpy warning on the way
        K = gram(spec, points)
        with np.errstate(all="raise"):
            with pytest.raises(NumericalError, match="^ridge system with shift 2e-310 has a non-finite solution$"):
                ridge_coefficients(spec, K, 2e-310)

    def test_singular_names_pivot(self):
        A = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(NumericalError, match="^non-positive pivot at index 1$"):
            solve_spd(A)

    def test_singular_gram_names_pivot(self):
        # the third symbol repeats the second, so the third leading minor is 0
        K = gram(KernelSpec("delta"), [0, 1, 1, 2])
        with pytest.raises(NumericalError, match="^non-positive pivot at index 2$"):
            solve_spd(K)

    def test_failed_inverse_raises(self, monkeypatch):
        # dpotri fails only on a factor with a zero diagonal, which dpotrf never returns
        class Lapack:
            dpotrf = staticmethod(scipy.linalg.lapack.dpotrf)

            @staticmethod
            def dpotri(c, lower, overwrite_c):
                return c, 2

        monkeypatch.setattr(linalg, "lapack", Lapack)
        with pytest.raises(NumericalError, match="^inverse failed$"):
            solve_spd(np.eye(3))

    def test_shape_checks(self):
        with pytest.raises(InputError):
            solve_spd(np.ones((2, 3)))
        with pytest.raises(InputError):
            solve_spd(np.ones(3))

    def test_right_hand_side_residual(self):
        rng = np.random.default_rng(11)
        A, B = random_spd(rng, 40), rng.standard_normal((40, 7))
        res = solve_spd(A, B)
        assert res.solution.shape == (40, 7)
        assert np.linalg.norm(A @ res.solution - B) <= 1e-12 * np.linalg.norm(B)
        probe = np.linalg.norm(A @ res.solution.sum(axis=1) - B.sum(axis=1)) / np.linalg.norm(B.sum(axis=1))
        assert res.residual_norm == pytest.approx(probe, rel=1e-6, abs=1e-17)
        assert res.residual_norm <= 1e-12

    def test_right_hand_side_summing_to_zero(self):
        # B 1 = 0: the probe is the absolute ||A X 1||, finite and at round-off
        rng = np.random.default_rng(12)
        B = rng.standard_normal((30, 4))
        B[:, -1] = -B[:, :-1].sum(axis=1)
        res = solve_spd(random_spd(rng, 30), B)
        assert np.isfinite(res.residual_norm) and res.residual_norm <= 1e-12

    def test_right_hand_side_keeps_pivot_message(self):
        with pytest.raises(NumericalError, match="^non-positive pivot at index 1$"):
            solve_spd(np.diag([1.0, 0.0, 2.0]), np.ones((3, 2)))
        with pytest.raises(InputError):
            solve_spd(np.eye(3), np.ones((2, 2)))


class TestSymEigMax:
    def test_identity(self):
        assert sym_eig_max(np.eye(5)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert sym_eig_max(np.diag([1.0, 2.0, 5.0])) == pytest.approx(5.0, rel=1e-8)

    def test_random_psd_vs_dense_oracle(self):
        rng = np.random.default_rng(11)
        A = random_spd(rng, 6)
        assert sym_eig_max(A) == pytest.approx(eig_max_dense(A), rel=1e-6)

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(5)
        A = random_spd(rng, 8)
        lam = sym_eig_max(A)
        for _ in range(20):
            v = rng.standard_normal(8)
            assert lam >= (v @ A @ v) / (v @ v) - 1e-7 * lam

    def test_zero_matrix(self):
        assert sym_eig_max(np.zeros((4, 4))) == 0.0

    def test_clustered_spectrum_pendulum_fit(self):
        # the top eigenvalues of W W^T cluster at 1/(lam n)^2 to within ~1e-5,
        # where a power iteration stalls; the oracle is a different LAPACK driver
        train = collect_dataset(PendulumParams(), 400, 0)
        model = fit(train, KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 1.5), 1e-3)
        A = model.W @ model.W.T
        oracle = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=[399, 399])[0]
        assert sym_eig_max(A) == pytest.approx(oracle, rel=1e-12)

    def test_equals_numpy_eigvalsh_on_gaussian_gram(self):
        K = gram(KernelSpec("gaussian", 1.0), np.random.default_rng(4).standard_normal((120, 2)))
        assert sym_eig_max(K) == pytest.approx(np.linalg.eigvalsh(K)[-1], rel=1e-14)

    @staticmethod
    def eigh_evd_max(A):
        return max(0.0, float(scipy.linalg.eigh(A, eigvals_only=True, driver="evd")[-1]))

    @pytest.mark.parametrize("n", [120, 320])
    def test_bitwise_scipy_eigh_evd_on_gaussian_grams(self, n):
        for seed, bandwidth in ((0, 1.0), (1, 2.0)):
            K = gram(KernelSpec("gaussian", bandwidth), np.random.default_rng(seed).standard_normal((n, 4)))
            assert sym_eig_max(K) == self.eigh_evd_max(K)

    def test_bitwise_scipy_eigh_evd_on_w_wt(self):
        train = collect_dataset(PendulumParams(), 200, 0)
        W = fit(train, KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 1.5), 1e-3).W
        A = matmul(W, W.T)
        assert sym_eig_max(A) == self.eigh_evd_max(A)
        assert sym_eig_max(W) == self.eigh_evd_max(W)

    # scipy's eigh raises ValueError for each of these; sym_eig_max rejects the same inputs with
    # the errors the CLI maps to exits 2 and 3. A NaN must not reach dsyevd: max(0.0, nan) is 0.0
    @pytest.mark.parametrize("A,error", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), NumericalError), (np.diag([1.0, np.inf]), NumericalError),
        (np.ones((3, 2)), InputError), (np.ones(3), InputError)], ids=["nan", "inf", "3x2", "vector"])
    def test_bad_input_raises_what_scipy_eigh_raised(self, A, error):
        with pytest.raises(ValueError):
            scipy.linalg.eigh(A, eigvals_only=True, driver="evd")
        with pytest.raises(error):
            sym_eig_max(A)


def operand(rng, shape, layout):
    """A random array of shape: C-ordered, F-ordered, or ("T") the transposed
    view of a C-ordered array."""
    if layout == "T":
        return rng.standard_normal(shape[::-1]).T
    return np.array(rng.standard_normal(shape), order=layout)


class TestMatmul:
    @pytest.mark.parametrize("layout_a", ["C", "F", "T"])
    @pytest.mark.parametrize("layout_b", ["C", "F", "T"])
    @pytest.mark.parametrize("m,k,n", [(7, 4, 5), (3, 9, 1), (1, 6, 8)])
    def test_equals_numpy(self, layout_a, layout_b, m, k, n):
        rng = np.random.default_rng(m * k * n)
        A, B = operand(rng, (m, k), layout_a), operand(rng, (k, n), layout_b)
        expected = A @ B
        C = matmul(A, B)
        assert C.shape == (m, n) and C.flags.c_contiguous
        assert np.linalg.norm(C - expected) <= 1e-15 * np.linalg.norm(expected)

    def test_strided_operand(self):
        rng = np.random.default_rng(2)
        A, B = rng.standard_normal((10, 6))[::2, 1:], rng.standard_normal((5, 3))
        np.testing.assert_allclose(matmul(A, B), A @ B, rtol=1e-15, atol=0)

    def test_w_times_w_transpose(self):
        train = collect_dataset(PendulumParams(), 60, 0)
        W = fit(train, KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 1.5), 1e-3).W
        expected = W @ W.T
        C = matmul(W, W.T)
        assert C.flags.c_contiguous
        assert np.linalg.norm(C - expected) <= 1e-15 * np.linalg.norm(expected)


class TestSoftThreshold:
    """The entrywise soft threshold sign(z) * max(|z| - t, 0), the proximal map of t * entrywise_l1."""

    shrink = staticmethod(PENALTIES["entrywise_l1"][1])

    @pytest.mark.parametrize("z,t,expected", [(2.0, 1.0, 1.0), (-0.5, 1.0, 0.0), (3.0, 0.0, 3.0)])
    def test_values(self, z, t, expected):
        assert self.shrink(z, t) == expected

    @given(z=st.floats(-1e6, 1e6), t=st.floats(0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_shrinks_and_preserves_sign(self, z, t):
        out = float(self.shrink(z, t))
        assert abs(out) <= abs(z)
        assert out == 0.0 or np.sign(out) == np.sign(z)

    def test_matches_sign_max_form(self):
        z = np.random.default_rng(12).standard_normal((40, 30)) * 3.0
        for t in (0.0, 0.7, 2.5):
            np.testing.assert_array_equal(self.shrink(z, t), np.sign(z) * np.maximum(np.abs(z) - t, 0.0))


class TestBlasThreads:
    """blas_threads(k) sets scipy's and numpy's OpenBLAS pools, read here through each
    library's own get_num_threads; an outer blas_threads(2) makes the earlier count 2,
    so a pool left at 1 shows."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_both_pools_read_k_inside(self, k):
        with blas_threads(k):
            assert openblas_pool_threads() == [k, k]

    def test_earlier_counts_come_back(self):
        with blas_threads(2):
            with blas_threads(1):
                pass
            assert openblas_pool_threads() == [2, 2]

    def test_earlier_counts_come_back_after_an_exception(self):
        with blas_threads(2):
            with pytest.raises(ZeroDivisionError):
                with blas_threads(1):
                    1 / 0
            assert openblas_pool_threads() == [2, 2]

    def test_no_pools_found_runs_the_block_and_changes_nothing(self, monkeypatch):
        with blas_threads(2):
            monkeypatch.setattr(linalg, "_OPENBLAS", ((scipy, "no-such-openblas-*.so", ""),
                                                      (np, "no-such-openblas64_-*.so", "64_")))
            monkeypatch.setattr(linalg, "_pools", None)  # resolved again, now finding nothing
            ran = False
            with blas_threads(1):
                ran = True
                assert openblas_pool_threads() == [2, 2]
            assert ran and linalg._pools == []
            assert openblas_pool_threads() == [2, 2]
