import numpy as np
import pytest

from cmereg.embedding import TrainingSet, fit, ridge_coefficients
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec, gram
from cmereg.lowrank import incomplete_cholesky, subset_refit


def random_gram(seed=0, n=10, bw=0.8):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 3, size=(n, 2))
    return gram(KernelSpec("gaussian", bw), pts), pts


def residual_diags(K, ic):
    """Residual diagonal diag(K) - sum_{t<k} G[:, t]^2 after each step k (k = 0 is K's diagonal)."""
    return [np.diag(K) - np.sum(ic.factor[:, :k] ** 2, axis=1) for k in range(len(ic.pivots) + 1)]


class TestIncompleteCholesky:
    def test_full_rank_exact(self):
        K, _ = random_gram(seed=1)
        ic = incomplete_cholesky(K, max_rank=10)
        err = np.linalg.norm(ic.factor @ ic.factor.T - K)
        assert err <= 1e-8 * np.linalg.norm(K)

    def test_rank_one_outer_product(self):
        v = np.array([1.0, 2.0, 3.0])
        K = np.outer(v, v)
        ic = incomplete_cholesky(K, max_rank=1)
        np.testing.assert_allclose(ic.factor @ ic.factor.T, K, atol=1e-12)

    def test_identity_residual_trace(self):
        # each pivot of I removes exactly one unit diagonal entry
        K = np.eye(5)
        ic = incomplete_cholesky(K, max_rank=3)
        assert np.sum(residual_diags(K, ic)[-1]) == pytest.approx(2.0)

    def test_trace_residual_matches_diag_sum(self):
        K, _ = random_gram(seed=2)
        ic = incomplete_cholesky(K, max_rank=4)
        resid = K - ic.factor @ ic.factor.T
        diags = residual_diags(K, ic)
        assert np.trace(resid) == pytest.approx(np.sum(diags[-1]), abs=1e-8)
        # each pivot is a largest residual diagonal entry of its step, and is then used up
        for k, p in enumerate(ic.pivots):
            assert diags[k][p] >= np.max(diags[k]) - 1e-12
            assert abs(diags[k + 1][p]) <= 1e-12

    def test_residual_maxima_non_increasing(self):
        K, _ = random_gram(seed=3, n=12)
        ic = incomplete_cholesky(K, max_rank=12)
        maxima = [np.max(d) for d in residual_diags(K, ic)]
        for a, b in zip(maxima, maxima[1:]):
            assert b <= a + 1e-12

    def test_reconstruction_non_increasing_in_rank(self):
        K, _ = random_gram(seed=4, n=12)
        errs = []
        for m in range(1, 13):
            ic = incomplete_cholesky(K, max_rank=m)
            errs.append(np.linalg.norm(ic.factor @ ic.factor.T - K))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-10

    def test_pivots_are_distinct(self):
        K, _ = random_gram(seed=5, n=15)
        ic = incomplete_cholesky(K, max_rank=15)
        assert len(set(ic.pivots)) == len(ic.pivots)

    def test_nested_pivot_prefix(self):
        K, _ = random_gram(seed=6, n=10)
        ic_small = incomplete_cholesky(K, max_rank=4)
        ic_big = incomplete_cholesky(K, max_rank=8)
        assert ic_big.pivots[:4] == ic_small.pivots

    def test_not_psd_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericalError):
            incomplete_cholesky(A, max_rank=2)

    def test_accepts_gram_and_plain_symmetric_arrays(self):
        K, _ = random_gram(seed=7, n=6)
        assert isinstance(K, np.ndarray)
        from_gram = incomplete_cholesky(K, max_rank=6)
        from_copy = incomplete_cholesky(np.array(K), max_rank=6)
        assert from_gram.pivots == from_copy.pivots
        np.testing.assert_array_equal(from_gram.factor, from_copy.factor)
        ic = incomplete_cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]), max_rank=2)
        np.testing.assert_allclose(ic.factor @ ic.factor.T, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(3)])
    def test_non_symmetric_rejected(self, A):
        with pytest.raises(InputError):
            incomplete_cholesky(A, max_rank=1)

    def test_bad_rank(self):
        K, _ = random_gram()
        with pytest.raises(InputError):
            incomplete_cholesky(K, max_rank=0)
        with pytest.raises(InputError):
            incomplete_cholesky(K, max_rank=11)


class TestSubsetRefit:
    def make_model(self, n=12, seed=0, lam=0.1):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 3, size=(n, 2))
        ys = rng.uniform(0, 3, size=(n, 2))
        spec = KernelSpec("gaussian", 0.8)
        return fit(TrainingSet(xs, ys), spec, spec, lam)

    def test_all_pivots_reproduce_dense(self):
        model = self.make_model()
        M = subset_refit(model, range(model.train.n))
        np.testing.assert_allclose(M, model.W, atol=1e-8)

    def test_single_pivot_single_row(self):
        model = self.make_model()
        M = subset_refit(model, [3])
        nz_rows = np.where(np.any(M != 0, axis=1))[0]
        assert list(nz_rows) == [3]

    def test_empty_pivots_rejected(self):
        model = self.make_model()
        with pytest.raises(InputError):
            subset_refit(model, [])

    def test_out_of_range_pivot(self):
        model = self.make_model()
        with pytest.raises(InputError):
            subset_refit(model, [99])

    def test_nonpivot_rows_zero(self):
        model = self.make_model()
        pivots = [1, 4, 7]
        M = subset_refit(model, pivots)
        mask = np.ones(model.train.n, dtype=bool)
        mask[pivots] = False
        assert np.all(M[mask] == 0.0)
        assert np.all(M[:, mask] == 0.0)

    @pytest.mark.parametrize("variant", ["gaussian", "delta"])
    def test_equals_refit_on_subset_gram(self, variant):
        # the pivot block of the fitted Gram is the subset's own Gram, bit for bit
        rng = np.random.default_rng(4)
        n = 120
        if variant == "delta":
            spec, xs = KernelSpec("delta"), rng.integers(0, 200, n)  # about 90 classes
        else:
            spec, xs = KernelSpec("gaussian", 0.8), rng.uniform(0, 3, size=(n, 4))
        model = fit(TrainingSet(xs, rng.uniform(0, 3, n)), spec, KernelSpec("gaussian", 1.0), 1e-2)
        for rank in (10, 60, 110):
            pivots = incomplete_cholesky(model.kgram, rank).pivots
            expected = np.zeros((n, n))
            expected[np.ix_(pivots, pivots)] = ridge_coefficients(
                spec, gram(spec, model.train.subset(list(pivots)).xs), model.lam * len(pivots))
            assert np.array_equal(subset_refit(model, pivots), expected)
