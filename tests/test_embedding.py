import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cmereg.embedding import (
    TrainingSet,
    _clamp_losses,
    alpha_batch,
    cross_validate,
    empirical_risk,
    fit,
    regularized_objective,
)
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec, cross_gram, gram
from cmereg.linalg import sym_eig_max
from cmereg.ratecheck import DiscreteDistribution, sample
from oracles import delta_by_tuples, delta_ridge_inverse_exact

DELTA = KernelSpec("delta")


def small_model(seed=0, n=8, lam=0.1, bw=1.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 3, size=(n, 2))
    ys = rng.uniform(0, 3, size=(n, 2))
    return fit(TrainingSet(xs, ys), KernelSpec("gaussian", bw), KernelSpec("gaussian", bw), lam)


def test_training_set_validation():
    with pytest.raises(InputError):
        TrainingSet([1.0], [])
    with pytest.raises(InputError):
        TrainingSet([], [])


@pytest.mark.parametrize("xs,ys", [([[1.0, 2.0], [3.0]], [0, 1]), ([0, 1], [[1.0, 2.0], [3.0]])])
def test_training_set_rejects_ragged_points(xs, ys):
    with pytest.raises(InputError):
        TrainingSet(xs, ys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_training_set_rejects_non_finite_points(bad):
    with pytest.raises(InputError):
        TrainingSet([0.0, bad], [0, 1])
    with pytest.raises(InputError):
        TrainingSet([[0.0, 1.0], [2.0, 3.0]], [[1.0], [bad]])


class TestFit:
    def test_n1_scalar(self):
        model = fit(TrainingSet([0.0], [0.0]), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 1.0)
        np.testing.assert_allclose(model.W, [[0.5]])

    def test_duplicate_points_2x2(self):
        # K = all-ones, lam*n = 1, so K + I = [[2,1],[1,2]]
        model = fit(TrainingSet([1.0, 1.0], [0.0, 1.0]), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 0.5)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(model.W, expected, atol=1e-12)

    def test_residual_invariant(self):
        model = small_model()
        n = model.train.n
        A = model.kgram + model.lam * n * np.eye(n)
        resid = np.linalg.norm(model.W @ A - np.eye(n)) / np.linalg.norm(np.eye(n))
        assert resid <= 1e-8
        assert np.array_equal(model.W, model.W.T)

    def test_operator_norm_bound(self):
        model = small_model(lam=0.05)
        n = model.train.n
        opnorm = np.sqrt(sym_eig_max(model.W @ model.W.T))
        assert opnorm <= 1.0 / (model.lam * n) + 1e-8

    def test_ridge_monotonicity_of_norm(self):
        m1 = small_model(lam=0.05)
        m2 = small_model(lam=0.5)
        n1 = np.sqrt(sym_eig_max(m1.W @ m1.W.T))
        n2 = np.sqrt(sym_eig_max(m2.W @ m2.W.T))
        assert n2 <= n1 + 1e-12

    def test_bad_lambda(self):
        with pytest.raises(InputError):
            fit(TrainingSet([0.0], [0.0]), KernelSpec("linear"), KernelSpec("linear"), 0.0)


def _draws(n, codes, seed):
    return np.random.default_rng(seed).integers(0, codes, n)


SIGNED_ZERO_ROWS = [[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [1.0, -0.0, 0.0],
                    [1.0, 0.0, -0.0], [0.0, 1.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]


DELTA_SETS = [  # (points, shift lambda*n) of the exact delta checks
    ([0, 1, 2], 3e-9),
    ([0, 1, 1, 2, 3, 3, 3], 1e-12),
    (_draws(60, 4, 1), 60**0.5),
    (_draws(60, 30, 2), 1e-6),
    (_draws(40, 10, 3), 1e6),
    (SIGNED_ZERO_ROWS, 0.3),
]
DELTA_IDS = ["singletons", "tiny-shift", "4-codes", "30-codes", "huge-shift", "signed-zero-rows"]


class TestDeltaFitExact:
    """A delta fit's W and alpha against (K + sI)^{-1} and (K + sI)^{-1} k_x in exact
    rational arithmetic."""

    @pytest.mark.parametrize("points,shift", DELTA_SETS, ids=DELTA_IDS)
    def test_matches_rational_inverse(self, points, shift):
        points = np.asarray(points)
        n = len(points)
        lam = shift / n
        W = fit(TrainingSet(points, np.zeros(n)), DELTA, KernelSpec("linear"), lam).W
        exact = delta_ridge_inverse_exact(points, lam * n)  # the shift fit forms
        assert np.array_equal(W, W.T)
        for i in range(n):
            for j in range(n):
                if exact[i][j] == 0:
                    assert W[i, j] == 0.0 and not np.signbit(W[i, j]), (i, j)
                else:
                    rel = abs(Fraction(W[i, j]) - exact[i][j]) / abs(exact[i][j])
                    assert rel <= 2e-15, (i, j, float(rel))

    @pytest.mark.parametrize("points,shift", DELTA_SETS, ids=DELTA_IDS)
    def test_alpha_matches_rational_solve(self, points, shift):
        # each distinct point and one the fit never saw; alpha from the class solve, not from W
        points = np.asarray(points)
        n = len(points)
        lam = shift / n
        model = fit(TrainingSet(points, np.zeros(n)), DELTA, KernelSpec("linear"), lam)
        queries = np.concatenate([np.unique(points, axis=0), np.full((1,) + points.shape[1:], 99.0)])
        exact_W = delta_ridge_inverse_exact(points, lam * n)
        A = alpha_batch(model, queries)
        for q, kx in enumerate(delta_by_tuples(points, queries).T):
            for i in range(n):
                exact = sum((exact_W[i][j] for j in range(n) if kx[j]), Fraction(0))
                if exact == 0:
                    assert A[q, i] == 0.0 and not np.signbit(A[q, i]), (q, i)
                else:
                    rel = abs(Fraction(A[q, i]) - exact) / abs(exact)
                    assert rel <= 2e-15, (q, i, float(rel))

    def test_oracle_inverts_shifted_gram(self):
        points, s = [0, 1, 1, 2, 3, 3, 3], Fraction(1e-12)
        exact = delta_ridge_inverse_exact(points, 1e-12)
        n = len(points)
        for i in range(n):
            for j in range(n):
                row = [(points[i] == points[k]) + (s if i == k else 0) for k in range(n)]
                assert sum(a * exact[k][j] for k, a in enumerate(row)) == (i == j)


class TestAlpha:
    def test_n1(self):
        model = fit(TrainingSet([0.0], [0.0]), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 1.0)
        np.testing.assert_allclose(alpha_batch(model, [0.0])[0], [0.5])

    def test_delta_unseen_symbol_gives_zero(self):
        ts = TrainingSet([0, 1], [0, 1])
        model = fit(ts, DELTA, DELTA, 0.1)
        np.testing.assert_array_equal(alpha_batch(model, [2])[0], np.zeros(2))

    def test_dense_solve_matches_coefficients(self):
        model = small_model(seed=4, n=60, lam=1e-3)
        queries = np.random.default_rng(4).uniform(0, 3, size=(25, 2))
        solved = alpha_batch(model, queries)
        multiplied = alpha_batch(model.with_coefficients(model.W), queries)
        assert np.linalg.norm(solved - multiplied) <= 1e-12 * np.linalg.norm(multiplied)

    @pytest.mark.parametrize("delta", [False, True], ids=["gaussian", "delta"])
    def test_same_bits_before_and_after_w_is_read(self, delta):
        if delta:
            model, queries = fit(TrainingSet(_draws(50, 6, 4), np.zeros(50)), DELTA, DELTA, 0.02), np.arange(7)
        else:
            model, queries = small_model(seed=5, n=40), np.random.default_rng(5).uniform(0, 3, size=(9, 2))
        before = alpha_batch(model, queries).tobytes()
        model.W
        assert alpha_batch(model, queries).tobytes() == before

    def test_matches_matrix_vector_oracle(self):
        model = small_model(seed=3)
        x = model.train.xs[2]
        kx = cross_gram(model.kspec, model.train.xs, [x])[:, 0]
        np.testing.assert_allclose(alpha_batch(model, [x])[0], model.W @ kx, atol=1e-14)


class TestPointLoss:
    def test_zero_alpha_gives_lyy(self):
        # disjoint delta alphabet forces alpha(x) = 0
        ts = TrainingSet([0, 1], [0, 1])
        model = fit(ts, DELTA, DELTA, 0.1)
        assert empirical_risk(model, TrainingSet([2], [0])) == pytest.approx(1.0)

    def test_hand_expansion_n1(self):
        # L(y1,y1)=1, alpha=0.5 at the training point with K11=1, lam=1:
        # loss = 1 - 2*0.5 + 0.25 = 0.25
        model = fit(TrainingSet([0.0], [0.0]), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 1.0)
        assert empirical_risk(model, TrainingSet([0.0], [0.0])) == pytest.approx(0.25, abs=1e-12)

    def test_matches_explicit_feature_oracle(self):
        # delta output kernel: L(y,.) is a standard basis vector, so the loss
        # can be computed as a finite-dimensional squared distance; sample
        # draws symbol codes, so a code is its basis index
        dist = DiscreteDistribution(np.array([0.4, 0.3, 0.3]), np.array([[0.7, 0.3], [0.5, 0.5], [0.1, 0.9]]))
        ts = sample(dist, 30, 0)
        model = fit(ts, DELTA, DELTA, 0.05)
        ny = dist.pyx.shape[1]
        for x in range(len(dist.px)):
            for y in range(ny):
                a = alpha_batch(model, [x])[0]
                vec = np.zeros(ny)
                for i, yi in enumerate(ts.ys):
                    vec[yi] += a[i]
                e = np.zeros(ny)
                e[y] = 1.0
                expected = float(np.sum((e - vec) ** 2))
                assert empirical_risk(model, TrainingSet([x], [y])) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        model = small_model(seed=8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0, 3, size=2)
            y = rng.uniform(0, 3, size=2)
            assert empirical_risk(model, TrainingSet([x], [y])) >= 0.0


class TestEmpiricalRisk:
    def test_interpolation_limit_near_zero(self):
        # distinct delta inputs and tiny lam: the model interpolates
        ts = TrainingSet([0, 1, 2], [0, 1, 0])
        model = fit(ts, DELTA, DELTA, 1e-9)
        assert empirical_risk(model, ts) < 1e-6

    def test_zero_model_mean_lyy(self):
        ts = TrainingSet([0, 1], [0.0, 1.0])
        model = fit(ts, DELTA, KernelSpec("gaussian", 1.0), 0.1)
        test = TrainingSet([2, 3], [0.0, 1.0])  # disjoint alphabet: alpha = 0
        assert empirical_risk(model, test) == pytest.approx(1.0)  # mean of L(y,y) = 1

    def test_train_risk_bounded_by_zero_function(self):
        model = small_model(seed=13)
        # the regularized objective at mu=0 is sum of L(y_i, y_i); the fit does
        # at least as well, so the mean train risk is below that mean
        mean_lyy = np.mean(np.diag(model.lgram))
        assert empirical_risk(model, model.train) <= mean_lyy + 1e-12

    def test_empty_test_rejected(self):
        model = small_model()
        with pytest.raises(InputError):
            empirical_risk(model, TrainingSet([], []))


@pytest.mark.parametrize("variant,bw", [("gaussian", 1.0), ("linear", None), ("delta", None)])
def test_query_width_must_match_training(variant, bw):
    # the kernels read widths from the points: a query of another width than the
    # training points is an InputError, in the inputs and in the outputs
    rng = np.random.default_rng(1)

    def codes(m, width):
        return rng.integers(0, 3, (m, width)).astype(float)

    spec = KernelSpec(variant, bw)
    model = fit(TrainingSet(codes(8, 2), codes(8, 2)), spec, spec, 0.1)
    for width in (1, 3):
        other = codes(5, width)
        with pytest.raises(InputError, match="dimension"):
            alpha_batch(model, other)
        for test in (TrainingSet(other, codes(5, 2)), TrainingSet(codes(5, 2), other)):
            with pytest.raises(InputError, match="dimension"):
                empirical_risk(model, test)
    assert np.isfinite(empirical_risk(model, TrainingSet(codes(5, 2), codes(5, 2))))


def clamp_loop(vals):
    """The per-value clamp _losses applied before _clamp_losses."""
    out = []
    for v in vals:
        if v < -1e-10:
            raise NumericalError(f"point loss {v} below round-off tolerance")
        out.append(max(v, 0.0))
    return np.array(out)


class TestClampLosses:
    def test_bit_identical_to_per_value_loop(self):
        rng = np.random.default_rng(0)
        edge = [0.0, -0.0, -1e-10, -5e-11, 5e-324, -5e-324, 1e-300, np.nan, 3.5]
        vals = np.concatenate([rng.uniform(-1e-10, 1.0, 200), edge])
        got, want = _clamp_losses(vals), clamp_loop(vals)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_first_value_below_round_off_raises(self):
        vals = np.array([0.5, -1e-10, -2e-10, -3.0])
        with pytest.raises(NumericalError) as loop:
            clamp_loop(vals)
        with pytest.raises(NumericalError) as vectorized:
            _clamp_losses(vals)
        assert str(vectorized.value) == str(loop.value)
        assert "-2e-10" in str(vectorized.value)

    def test_risk_below_round_off_raises(self):
        # a negated output Gram makes the quadratic term of the loss negative
        model = small_model(seed=2)
        with pytest.raises(NumericalError):
            empirical_risk(replace(model, lgram=-model.lgram), model.train)


class TestRegularizedObjective:
    def test_scalar_closed_form(self):
        # K=L=[[1]], lam=1: J(w) = (1-w)^2 + w^2, minimized at w=0.5 with value 0.5
        model = fit(TrainingSet([0.0], [0.0]), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 1.0)
        assert regularized_objective(model) == pytest.approx(0.5, abs=1e-12)

    def test_large_lambda_limit(self):
        ts = TrainingSet([0.0, 1.0], [0.0, 1.0])
        spec = KernelSpec("gaussian", 1.0)
        model = fit(ts, spec, spec, 1e8)
        assert regularized_objective(model) == pytest.approx(np.sum(np.diag(model.lgram)), rel=1e-6)

    def test_fitted_beats_perturbations(self):
        model = small_model(seed=21)
        base = regularized_objective(model)
        rng = np.random.default_rng(2)
        for _ in range(100):
            eps = 0.1 * rng.standard_normal(model.W.shape)
            perturbed = regularized_objective(model.with_coefficients(model.W + eps))
            assert base <= perturbed + 1e-10

    def test_fitted_beats_zero_matrix(self):
        model = small_model(seed=22)
        zero = regularized_objective(model.with_coefficients(np.zeros_like(model.W)))
        assert regularized_objective(model) <= zero


def test_delta_krr_equivalence():
    # per-output-symbol predictions equal independent scalar kernel ridge
    # regressions on indicator targets
    dist = DiscreteDistribution(np.full(3, 1 / 3),
                                np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]))
    ts = sample(dist, 40, 4)
    lam = 0.07
    model = fit(ts, DELTA, DELTA, lam)
    n = ts.n
    K = gram(DELTA, ts.xs)
    A = K + lam * n * np.eye(n)
    for y in range(dist.pyx.shape[1]):  # sample draws symbol codes
        target = np.array([1.0 if yi == y else 0.0 for yi in ts.ys])
        coef = np.linalg.solve(A, target)  # independent KRR path
        for x in range(len(dist.px)):
            kx = np.array([1.0 if xi == x else 0.0 for xi in ts.xs])
            krr = float(coef @ kx)
            a = alpha_batch(model, [x])[0]
            cme = float(sum(a[i] for i in range(n) if ts.ys[i] == y))
            assert abs(krr - cme) <= 1e-10


class TestCrossValidate:
    def make_train(self, n=40, seed=0):
        dist = DiscreteDistribution(np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.3, 0.7]]))
        return dist, sample(dist, n, seed)

    def test_single_tuple(self):
        _, ts = self.make_train()
        report = cross_validate(ts, DELTA, DELTA, [(0.1, None)], folds=4, seed=0)
        assert report.best == 0

    def test_duplicated_tuple_identical_rows(self):
        _, ts = self.make_train()
        report = cross_validate(ts, DELTA, DELTA, [(0.1, None), (0.1, None)], folds=4, seed=0)
        np.testing.assert_array_equal(report.fold_errors[0], report.fold_errors[1])
        assert report.best == 0  # exact tie with equal lambdas keeps the first row

    def test_tie_breaks_to_larger_lambda(self):
        # disjoint-alphabet inputs force alpha = 0 for held-out points, so every
        # lambda has identical fold errors and the largest lambda must win
        ts = TrainingSet(np.arange(12), [0, 1] * 6)
        report = cross_validate(ts, DELTA, DELTA, [(0.01, None), (1.0, None), (0.1, None)], folds=4, seed=0)
        means = report.fold_errors.mean(axis=1)
        assert means[0] == means[1] == means[2]
        assert report.grid[report.best][0] == 1.0

    def test_deterministic(self):
        _, ts = self.make_train()
        grid = [(0.01, None), (0.1, None), (1.0, None)]
        r1 = cross_validate(ts, DELTA, DELTA, grid, folds=5, seed=3)
        r2 = cross_validate(ts, DELTA, DELTA, grid, folds=5, seed=3)
        np.testing.assert_array_equal(r1.fold_errors, r2.fold_errors)
        assert r1.best == r2.best

    def test_folds_too_large(self):
        _, ts = self.make_train(n=5)
        with pytest.raises(InputError):
            cross_validate(ts, DELTA, DELTA, [(0.1, None)], folds=6, seed=0)

    def test_cv_selection_near_oracle(self):
        # full-grid test-risk sweep oracle: the CV winner's test risk must be
        # within 1.1x of the best achievable on the grid
        dist, ts = self.make_train(n=60, seed=7)
        test = sample(dist, 2000, 99)
        grid = [(lam, None) for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
        report = cross_validate(ts, DELTA, DELTA, grid, folds=5, seed=1)
        risks = []
        for lam, _ in grid:
            model = fit(ts, DELTA, DELTA, lam)
            risks.append(empirical_risk(model, test))
        assert risks[report.best] <= 1.1 * min(risks)
