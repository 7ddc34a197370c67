import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cmereg.embedding import TrainingSet, alpha_batch, fit
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec
from cmereg.ratecheck import (
    DiscreteDistribution,
    RateResult,
    conditional_table,
    excess_risk,
    rate_experiment,
    rate_slope,
    sample,
)

DELTA = KernelSpec("delta")


def dist_2x2(p=0.9, q=0.8):
    return DiscreteDistribution(np.array([0.5, 0.5]), np.array([[p, 1 - p], [1 - q, q]]))


class TestDistribution:
    def test_validation(self):
        with pytest.raises(InputError):
            DiscreteDistribution(np.array([0.9]), np.array([[1.0]]))
        with pytest.raises(InputError):
            DiscreteDistribution(np.array([1.0]), np.array([[0.6, 0.3]]))
        with pytest.raises(InputError):
            DiscreteDistribution(np.array([1.0]), np.array([[1.2, -0.2]]))
        with pytest.raises(InputError):  # one pyx row per px entry
            DiscreteDistribution(np.array([0.5, 0.5]), np.array([[1.0]]))
        with pytest.raises(InputError):
            DiscreteDistribution(np.array([[1.0]]), np.array([[1.0]]))

    @pytest.mark.parametrize("px,pyx", [
        ([np.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]]),  # passed every check, then sample raised numpy's error
        ([0.5, 0.5], [[np.nan, 1.0], [0.0, 1.0]]),  # passed, and rate_experiment ran on it silently
        ([0.5, 0.5], [[np.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_non_finite_entries_rejected(self, px, pyx):
        with pytest.raises(InputError, match="^probabilities must be finite$"):
            DiscreteDistribution(np.array(px), np.array(pyx))


class TestSample:
    def test_point_mass(self):
        d = DiscreteDistribution(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        ts = sample(d, 20, 0)  # codes: x symbol 0, y symbol 1
        assert all(x == 0 for x in ts.xs)
        assert all(y == 1 for y in ts.ys)

    def test_deterministic(self):
        d = dist_2x2()
        t1, t2 = sample(d, 50, 9), sample(d, 50, 9)
        assert np.array_equal(t1.xs, t2.xs) and np.array_equal(t1.ys, t2.ys)

    def test_law_of_large_numbers(self):
        d = DiscreteDistribution(np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.5, 0.5]]))
        ts = sample(d, 100000, 1)
        for x in (0, 1):
            for y in (0, 1):
                freq = np.count_nonzero((ts.xs == x) & (ts.ys == y)) / ts.n
                assert abs(freq - 0.25) < 0.01


def dist_4x4():
    """Acceptance criterion 5's oracle: every conditional row distinct and non-degenerate."""
    return DiscreteDistribution(np.array([0.4, 0.3, 0.2, 0.1]),
                                np.array([[0.70, 0.10, 0.10, 0.10], [0.20, 0.50, 0.20, 0.10],
                                          [0.10, 0.20, 0.60, 0.10], [0.25, 0.25, 0.25, 0.25]]))


def fraction_excess(dist, table) -> Fraction:
    """sum_x px ||table_x - p(.|x)||^2 in exact rational arithmetic on the float inputs."""
    return sum((Fraction(p) * sum((Fraction(t) - Fraction(q)) ** 2 for t, q in zip(row, true_row))
                for p, row, true_row in zip(dist.px.tolist(), np.asarray(table).tolist(), dist.pyx.tolist())),
               Fraction(0))


class TestExactRisk:
    def test_true_embedding_hits_irreducible(self):
        for d in (dist_2x2(), dist_4x4()):
            assert excess_risk(d, d.pyx) == 0.0

    def test_zero_predictor(self):
        d = dist_2x2()  # the zero table's excess is sum_x px sum_y p(y|x)^2
        assert excess_risk(d, np.zeros((2, 2))) == pytest.approx(0.5 * (0.81 + 0.01) + 0.5 * (0.04 + 0.64))

    def test_any_predictor_above_irreducible(self):
        d = dist_2x2()
        rng = np.random.default_rng(0)
        for _ in range(20):
            table = rng.uniform(-1, 1, size=(2, 2))
            assert excess_risk(d, table) > 0.0
            assert excess_risk(d, table) == pytest.approx(float(fraction_excess(d, table)), rel=1e-14)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_matches_exact_rationals_near_the_truth(self, eps):
        # the risk minus the irreducible risk cancels O(1) terms down to O(eps^2): at eps = 1e-6
        # and 1e-8 that difference is 8e-6 and 3e-3 relative off; the direct sum of squares is not
        d = dist_4x4()
        table = d.pyx + eps * np.random.default_rng(5).standard_normal(d.pyx.shape)
        exact = fraction_excess(d, table)
        assert abs(Fraction(excess_risk(d, table)) - exact) <= Fraction(1e-12) * exact

    def test_wrong_shape_rejected(self):
        with pytest.raises(InputError, match="^predictor table must be"):
            excess_risk(dist_2x2(), np.zeros((2, 3)))

    def test_model_risk_and_delta_requirement(self):
        d = dist_2x2()
        ts = sample(d, 60, 2)
        model = fit(ts, DELTA, DELTA, 0.05)
        assert excess_risk(d, conditional_table(d, model)) > 0.0
        numeric = fit(TrainingSet([0.0, 1.0], [0.0, 1.0]),
                      KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 1.0), 0.05)
        with pytest.raises(InputError, match="^exact risk evaluation needs delta kernels on both sides$"):
            conditional_table(d, numeric)


class TestTrueEmbedding:
    def test_deterministic_conditional_one_hot(self):
        d = DiscreteDistribution(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(d.pyx, np.eye(2))

    def test_uniform_conditional(self):
        d = DiscreteDistribution(np.array([1.0]), np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(d.pyx, [[0.5, 0.5]])


class TestConditionalTable:
    def test_converges_to_pyx(self):
        d = dist_2x2()
        errs = []
        for n in (50, 400):
            model = fit(sample(d, n, 3), DELTA, DELTA, n ** -0.5)
            errs.append(np.max(np.abs(conditional_table(d, model) - d.pyx)))
        assert errs[1] < errs[0]

    def test_matches_loop_over_outputs(self):
        # reference: one column update per training output, in index order
        d = DiscreteDistribution(np.array([0.5, 0.3, 0.2]),
                                 np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.3, 0.4, 0.3]]))
        for n in (1, 37, 500):
            model = fit(sample(d, n, n), DELTA, DELTA, n ** -0.5)
            A = alpha_batch(model, [0, 1, 2])
            ref = np.zeros((3, 3))
            for i, y in enumerate(model.train.ys):  # y is a symbol code
                ref[:, y] += A[:, i]
            np.testing.assert_array_equal(conditional_table(d, model), ref)


class TestRateExperiment:
    def test_single_row(self):
        d = dist_2x2()
        results = rate_experiment(d, [10], [0])
        assert len(results) == 1
        assert results[0].excess >= 0.0
        assert results[0].lambda_used == pytest.approx(10 ** -0.5)

    def test_mean_excess_decreasing(self):
        d = dist_2x2()
        results = rate_experiment(d, [25, 100, 400], range(20))
        means = [np.mean([r.excess for r in results if r.n == n]) for n in (25, 100, 400)]
        assert means[1] <= means[0] * 1.1
        assert means[2] <= means[1] * 1.1

    def test_deterministic(self):
        d = dist_2x2()
        r1 = rate_experiment(d, [20, 80], [0, 1])
        r2 = rate_experiment(d, [20, 80], [0, 1])
        assert r1 == r2

    def test_peak_memory_is_one_model(self):
        # each model is freed before the next fit, so the traced peak is about one
        # n = 400 model (its two Grams, bool n x n: no W is formed); a model kept
        # alive through the next fit, or a W, makes it more
        model = fit(sample(dist_2x2(), 400, 0), DELTA, DELTA, 0.05)
        one_model = model.kgram.nbytes + model.lgram.nbytes
        tracemalloc.start()
        try:
            rate_experiment(dist_2x2(), [100, 200, 400], [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * one_model, peak / one_model

    # These shifts once raised "excess inf is not <= 2", "excess 6.01761e+88 is not <= 2" and
    # "ridge inverse with shift 3.16202e-320 has a non-finite entry": W k_x cancelled entries of
    # size 1/(lambda n), or 1/(lambda n) overflowed. alpha from the class solve has no 1/(lambda n),
    # so every table row is exact and the excess is round-off of the true (s/(n+s))^2 < 1e-100.
    @pytest.mark.parametrize("a", [1e-200, 1e-60, 1e-320], ids=str)
    def test_tiny_shift_gives_six_round_off_excesses(self, a):
        d = DiscreteDistribution(np.array([1.0]), np.array([[1.0]]))
        with np.errstate(all="raise"):  # and no numpy warning on the way
            results = rate_experiment(d, [10, 20, 40], [0, 1], schedule=(a, 0.5))
        assert [(r.n, r.seed) for r in results] == [(n, s) for n in (10, 20, 40) for s in (0, 1)]
        assert all(0.0 <= r.excess <= 1e-30 for r in results), [r.excess for r in results]

    def test_unseen_symbol_at_a_subnormal_shift(self):
        # p(x) = 0 for symbol 2, so no fit sees it: its table row is alpha of an all-0 kernel
        # column, which must stay 0 where 1/(lambda n) overflows (0 * inf is NaN), with no
        # numpy error state ignored on the way
        d = DiscreteDistribution(np.array([0.5, 0.5, 0.0]), np.eye(3))
        with np.errstate(over="raise", invalid="raise"):
            results = rate_experiment(d, [10, 20, 40], [0, 1], schedule=(1e-320, 0.5))
            table = conditional_table(d, fit(sample(d, 40, 0), DELTA, DELTA, 1e-320 * 40 ** -0.5))
        assert all(0.0 <= r.excess <= 1e-30 for r in results), [r.excess for r in results]
        assert np.array_equal(table[2], [0.0, 0.0, 0.0]) and np.all(np.isfinite(table))

    def test_bad_grid(self):
        d = dist_2x2()
        with pytest.raises(InputError):
            rate_experiment(d, [100, 50], [0])
        with pytest.raises(InputError):
            rate_experiment(d, [50, 100], [])


class TestRateSlope:
    def test_exact_inverse_n(self):
        results = [RateResult(n=n, excess=3.0 / n, seed=0, lambda_used=0.0) for n in (10, 100, 1000)]
        assert rate_slope(results) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_excess(self):
        results = [RateResult(n=n, excess=0.7, seed=0, lambda_used=0.0) for n in (10, 100, 1000)]
        assert rate_slope(results) == pytest.approx(0.0, abs=1e-12)

    def test_two_thirds_rate(self):
        results = [RateResult(n=n, excess=2.0 * n ** (-2 / 3), seed=0, lambda_used=0.0)
                   for n in (10, 40, 160, 640)]
        assert rate_slope(results) == pytest.approx(-2 / 3, abs=1e-6)

    @pytest.mark.parametrize("excess", [0.0, np.nan, np.inf, -1e-20])
    def test_mean_without_a_logarithm_raises(self, excess):
        # log(0) is -inf: polyfit gave a NaN slope and numpy's divide-by-zero warning
        results = [RateResult(n=n, excess=e, seed=0, lambda_used=0.0)
                   for n, e in ((16, 1e-30), (32, excess), (64, 2e-30))]
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="at n=32 has no logarithm"):
            rate_slope(results)

    def test_needs_three_points(self):
        results = [RateResult(n=n, excess=1.0 / n, seed=0, lambda_used=0.0) for n in (10, 100)]
        with pytest.raises(InputError):
            rate_slope(results)
