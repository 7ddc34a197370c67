import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmereg import sparse
from cmereg.embedding import TrainingSet, empirical_risk, fit
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec
from cmereg.sparse import (
    PENALTIES,
    SparseProblem,
    duality_gap,
    fista_solve,
    grad_smooth,
    kl_distance,
    lasso_objective,
    nnz_fraction,
    row_occupancy,
    score,
    smooth_part,
    sparsity_sweep,
)

from oracles import (
    cd_lasso,
    cd_objective,
    criterion_2_instances,
    dual_norm_oracle,
    fd_gradient,
    fista_three_products,
    lasso_dual_value,
    random_gram_instance,
    random_spd,
    smooth_objective_quadloop,
)

PENALTY_NAMES = ("entrywise_l1", "row_group", "col_group")


def make_problem(seed=0, n=4, gamma=0.1, penalty="entrywise_l1"):
    model = random_gram_instance(np.random.default_rng(seed), n)
    return SparseProblem(K=model.kgram, L=model.lgram, W=model.W, gamma=gamma, penalty=penalty), model


def sym_gram(A):
    return 0.5 * (A + A.T)


class TestObjective:
    def test_at_w_gamma_zero(self):
        prob, _ = make_problem(gamma=0.0)
        assert lasso_objective(prob, prob.W) == 0.0

    def test_at_zero(self):
        prob, _ = make_problem(gamma=0.0)
        K, L, W = prob.K, prob.L, prob.W
        assert lasso_objective(prob, np.zeros_like(W)) == pytest.approx(
            float(np.trace(W.T @ K @ W @ L)), rel=1e-12
        )

    def test_quadloop_oracle(self):
        prob, _ = make_problem(seed=3, n=3, gamma=0.2)
        rng = np.random.default_rng(1)
        M = rng.standard_normal((3, 3))
        expected = smooth_objective_quadloop(prob.K, prob.L, prob.W, M)
        expected += 0.2 * np.sum(np.abs(M))
        assert lasso_objective(prob, M) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_smooth_part_nonnegative(self):
        prob, _ = make_problem(seed=5)
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert smooth_part(prob, rng.standard_normal(prob.W.shape)) >= -1e-12

    def test_shape_mismatch(self):
        prob, _ = make_problem()
        with pytest.raises(InputError):
            lasso_objective(prob, np.zeros((2, 2)))


class TestGradient:
    def test_zero_at_w(self):
        prob, _ = make_problem()
        np.testing.assert_allclose(grad_smooth(prob, prob.W), np.zeros_like(prob.W))

    def test_identity_grams(self):
        n = 3
        W = np.random.default_rng(0).standard_normal((n, n))
        prob = SparseProblem(sym_gram(np.eye(n)), sym_gram(np.eye(n)), W, 0.0)
        M = np.random.default_rng(1).standard_normal((n, n))
        np.testing.assert_allclose(grad_smooth(prob, M), 2 * (M - W), atol=1e-12)

    def test_finite_difference_probes(self):
        # acceptance-grade check lives in test_acceptance; quick version here
        prob, _ = make_problem(seed=9, n=4)
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        G = grad_smooth(prob, M)
        G_fd = fd_gradient(lambda X: smooth_part(prob, X), M)
        np.testing.assert_allclose(G, G_fd, rtol=1e-5, atol=1e-7)


def prox(penalty):
    """The proximal map of t * penalty, as PENALTIES gives it."""
    return PENALTIES[penalty][1]


class TestProx:
    def test_l1_example(self):
        out = prox("entrywise_l1")(np.array([[2.0, -0.5]]), 1.0)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_row_group_halves_row(self):
        V = np.array([[0.0, 2.0]])  # row norm 2, t=1 -> factor 1/2
        np.testing.assert_allclose(prox("row_group")(V, 1.0), [[0.0, 1.0]])

    def test_col_group(self):
        V = np.array([[3.0], [4.0]])  # column norm 5, t=1 -> factor 4/5
        np.testing.assert_allclose(prox("col_group")(V, 1.0), [[2.4], [3.2]])

    @pytest.mark.parametrize("penalty", PENALTY_NAMES)
    def test_zero_threshold_is_identity(self, penalty):
        V = np.random.default_rng(4).standard_normal((3, 3))
        np.testing.assert_array_equal(prox(penalty)(V, 0.0), V)

    @pytest.mark.parametrize("penalty", PENALTY_NAMES)
    def test_out_buffer_gets_the_same_values(self, penalty):
        V = np.random.default_rng(5).standard_normal((6, 4))
        before = V.copy()
        out = np.full_like(V, np.nan)
        assert prox(penalty)(V, 0.8, out=out) is out
        np.testing.assert_array_equal(out, prox(penalty)(V, 0.8))
        np.testing.assert_array_equal(V, before)

    @given(t=st.floats(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_never_grows_entries(self, t):
        V = np.array([[1.0, -2.0], [0.5, 3.0]])
        for penalty in PENALTY_NAMES:
            out = prox(penalty)(V, t)
            assert np.all(np.abs(out) <= np.abs(V) + 1e-12)


class TestFista:
    def test_gamma_zero_recovers_w(self):
        prob, _ = make_problem(seed=1, n=6, gamma=0.0)
        sol = fista_solve(prob)
        assert np.linalg.norm(sol.M - prob.W) <= 1e-6 * (1 + np.linalg.norm(prob.W))

    def test_gamma_zero_returns_w_at_once(self):
        prob, _ = make_problem(seed=3, n=20, gamma=0.0)
        for start in (None, np.ones_like(prob.W)):
            sol = fista_solve(prob, start=start)
            assert sol.converged and sol.iterations == 0
            np.testing.assert_array_equal(sol.M, prob.W)
            assert sol.M is not prob.W
            assert sol.objective == lasso_objective(prob, prob.W) == 0.0
            assert kl_distance(prob, sol.M) == kl_distance(prob, prob.W) == 0.0

    def test_large_gamma_zero_solution(self):
        prob, model = make_problem(seed=2, n=5, gamma=0.0)
        K, L, W = prob.K, prob.L, prob.W
        gamma = 2.0 * np.max(np.abs(K @ W @ L)) + 1e-6
        prob = SparseProblem(prob.K, prob.L, W, gamma)
        sol = fista_solve(prob)
        np.testing.assert_array_equal(sol.M, np.zeros_like(W))
        # first-order optimality at 0: |grad| <= gamma everywhere
        assert np.max(np.abs(grad_smooth(prob, np.zeros_like(W)))) <= gamma

    def test_matches_coordinate_descent_oracle(self):
        prob, _ = make_problem(seed=7, n=5, gamma=0.05)
        sol = fista_solve(prob, tol=1e-12)
        M_cd = cd_lasso(prob.K, prob.L, prob.W, prob.gamma)
        obj_cd = cd_objective(prob.K, prob.L, prob.W, M_cd, prob.gamma)
        assert abs(sol.objective - obj_cd) <= 1e-6

    def test_final_objective_beats_endpoints(self):
        for seed in range(5):
            prob, _ = make_problem(seed=seed, n=5, gamma=0.03)
            sol = fista_solve(prob)
            assert sol.objective <= lasso_objective(prob, np.zeros_like(prob.W)) + 1e-8
            assert sol.objective <= lasso_objective(prob, prob.W) + 1e-8

    def test_objective_field_consistent(self):
        prob, _ = make_problem(seed=11, gamma=0.02)
        for start in (None, np.random.default_rng(8).standard_normal(prob.W.shape)):
            sol = fista_solve(prob, start=start)
            assert sol.objective == pytest.approx(lasso_objective(prob, sol.M), rel=1e-10)

    def test_deterministic(self):
        prob, _ = make_problem(seed=12, gamma=0.04)
        s1 = fista_solve(prob)
        s2 = fista_solve(prob)
        np.testing.assert_array_equal(s1.M, s2.M)

    def test_group_penalties_sparsify_rows(self):
        prob, _ = make_problem(seed=13, n=6, gamma=2.0, penalty="row_group")
        sol = fista_solve(prob)
        assert row_occupancy(sol.M) < 1.0
        assert sol.objective <= lasso_objective(prob, np.zeros_like(prob.W)) + 1e-8

    def test_subgradient_certificate(self):
        prob, _ = make_problem(seed=14, n=5, gamma=0.05)
        sol = fista_solve(prob, tol=1e-14, max_iter=100000)
        G = grad_smooth(prob, sol.M)
        eps = 1e-4 * (1 + prob.gamma)
        zero = np.abs(sol.M) <= 1e-12
        assert np.all(np.abs(G[zero]) <= prob.gamma + eps)
        nz = ~zero
        assert np.all(np.abs(G[nz] + prob.gamma * np.sign(sol.M[nz])) <= eps)

    def test_converged_flag(self):
        prob, _ = make_problem(seed=16, n=5, gamma=0.02)
        assert not fista_solve(prob, max_iter=1).converged
        K, L, W = prob.K, prob.L, prob.W
        above = SparseProblem(prob.K, prob.L, W, 2.0 * np.max(np.abs(K @ W @ L)) + 1e-6)
        assert fista_solve(above).converged

    def test_start_shape_rejected(self):
        prob, _ = make_problem(seed=17, n=4)
        with pytest.raises(InputError):
            fista_solve(prob, start=np.zeros((3, 3)))

    def test_warm_path_matches_cold_solves(self):
        prob, _ = make_problem(seed=19, n=6)
        M = None
        for gamma in (0.2, 0.05, 0.01, 0.002):
            p = SparseProblem(prob.K, prob.L, prob.W, gamma)
            warm = fista_solve(p, tol=1e-12, start=M)
            cold = fista_solve(p, tol=1e-12)
            assert warm.converged and cold.converged
            assert warm.objective == pytest.approx(cold.objective, rel=1e-8)
            M = warm.M

    @pytest.mark.parametrize("penalty", PENALTY_NAMES)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_iterates_match_three_product_recursion(self, penalty, warm):
        rng = np.random.default_rng(21)
        n = 9
        K, L = random_spd(rng, n, jitter=0.5), random_spd(rng, n, jitter=0.5)
        W = rng.standard_normal((n, n))
        start = rng.standard_normal((n, n)) if warm else None
        gamma = dual_norm_oracle(penalty, 2.0 * K @ W @ L) / 2.0  # half the gradient's at zero
        prob = SparseProblem(K, L, W, gamma, penalty)
        reference = fista_three_products(K, L, W, gamma, penalty, 60, start=start)
        for k in (1, 2, 3, 10, 60):
            sol = fista_solve(prob, max_iter=k, tol=1e-300, start=start)
            assert sol.iterations == k and not sol.converged
            assert np.linalg.norm(sol.M - reference[k - 1]) <= 1e-10 * np.linalg.norm(reference[k - 1])
        zero = reference[-1] == 0
        axis = {"row_group": 1, "col_group": 0}.get(penalty)
        zero_groups = zero if axis is None else np.all(zero, axis=axis)  # entries, rows or columns
        assert 0 < np.mean(zero_groups) < 1  # the penalty is active, not all or nothing

    def test_non_finite_objective_raises(self):
        # finite inputs: the first iterate is W shrunk by 5e199, whose objective overflows to inf
        prob = SparseProblem(np.eye(2), np.eye(2), np.full((2, 2), 1e200), 1e200)
        with pytest.raises(NumericalError, match="^objective became non-finite at iteration 1$"):
            fista_solve(prob)

    def test_start_is_not_written(self):
        prob, _ = make_problem(seed=20, n=5, gamma=0.05)
        start = np.random.default_rng(9).standard_normal(prob.W.shape)
        before = start.copy()
        sol = fista_solve(prob, start=start)
        np.testing.assert_array_equal(start, before)
        assert sol.M is not start


class TestDualityGap:
    def test_brackets_coordinate_descent_oracle(self):
        """On criterion 2's instances the oracle's objective lies in [D, F] of
        the solver's solution, and the gap at the oracle's own solution is tiny."""
        for prob in criterion_2_instances():
            K, L, W = prob.K, prob.L, prob.W
            sol = fista_solve(prob, max_iter=100000, tol=1e-14)
            F = sol.objective
            D = F * (1.0 - sol.gap)
            M_cd = cd_lasso(K, L, W, prob.gamma)
            assert D <= cd_objective(K, L, W, M_cd, prob.gamma) <= F
            assert 0.0 <= duality_gap(prob, M_cd, K @ (M_cd - W) @ L) < 1e-8

    @pytest.mark.parametrize("penalty", PENALTY_NAMES)
    def test_matches_dual_value_by_explicit_solves(self, penalty):
        prob, _ = make_problem(seed=22, n=6, gamma=0.05, penalty=penalty)
        K, L, W = prob.K, prob.L, prob.W
        M = np.random.default_rng(10).standard_normal(W.shape) * 0.1
        G = 2.0 * K @ (M - W) @ L
        Y = -min(1.0, prob.gamma / dual_norm_oracle(penalty, G)) * G
        F = lasso_objective(prob, M)
        expected = (F - lasso_dual_value(K, L, W, Y)) / F
        assert duality_gap(prob, M, K @ (M - W) @ L) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("penalty", PENALTY_NAMES)
    def test_solution_reports_gap_at_its_m(self, penalty):
        prob, _ = make_problem(seed=23, n=6, gamma=0.05, penalty=penalty)
        for max_iter in (5, 20000):
            sol = fista_solve(prob, max_iter=max_iter)
            K, L, W = prob.K, prob.L, prob.W
            assert sol.gap == pytest.approx(duality_gap(prob, sol.M, K @ (sol.M - W) @ L), rel=1e-9, abs=1e-15)
            assert sol.gap >= 0.0
        assert fista_solve(prob, max_iter=5).gap > sol.gap

    def test_zero_at_gamma_zero_and_at_the_zero_solution(self):
        prob, _ = make_problem(seed=24, n=5, gamma=0.0)
        assert fista_solve(prob).gap == 0.0
        K, L, W = prob.K, prob.L, prob.W
        above = SparseProblem(K, L, W, 2.0 * np.max(np.abs(K @ W @ L)) + 1e-6)
        sol = fista_solve(above)
        np.testing.assert_array_equal(sol.M, np.zeros_like(W))
        assert sol.gap == pytest.approx(0.0, abs=1e-12)  # c = 1: the dual point is the gradient itself


class TestKlDistance:
    def test_zero_at_w(self):
        prob, _ = make_problem()
        assert kl_distance(prob, prob.W) == 0.0

    def test_identity_grams_is_frobenius(self):
        n = 4
        W = np.random.default_rng(5).standard_normal((n, n))
        prob = SparseProblem(sym_gram(np.eye(n)), sym_gram(np.eye(n)), W, 0.0)
        M = np.random.default_rng(6).standard_normal((n, n))
        assert kl_distance(prob, M) == pytest.approx(np.linalg.norm(M - W), rel=1e-12)

    def test_square_equals_smooth_part(self):
        prob, _ = make_problem(seed=15)
        M = np.random.default_rng(7).standard_normal(prob.W.shape)
        assert kl_distance(prob, M) ** 2 == pytest.approx(smooth_part(prob, M), rel=1e-12)


class TestSweep:
    def make_model(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 3, size=(n, 2))
        ys = rng.uniform(0, 3, size=(n, 2))
        spec = KernelSpec("gaussian", 0.3)  # narrow bandwidth keeps K well conditioned
        return fit(TrainingSet(xs, ys), spec, spec, 0.1), TrainingSet(
            rng.uniform(0, 3, size=(10, 2)), rng.uniform(0, 3, size=(10, 2))
        )

    def test_score_at_w_and_zero(self):
        model, test = self.make_model()
        W = model.W
        assert score(model, test, W) == (nnz_fraction(W), row_occupancy(W), 0.0, empirical_risk(model, test))
        zero = np.zeros_like(model.W)
        nnz, occupancy, kl, risk = score(model, test, zero)
        assert (nnz, occupancy) == (0.0, 0.0)
        assert kl == pytest.approx(np.sqrt(np.sum(model.kgram * (W @ model.lgram @ W.T))), rel=1e-12)
        assert risk == empirical_risk(model.with_coefficients(zero), test)

    def test_gamma_zero_row(self):
        model, test = self.make_model()
        rows = sparsity_sweep(model, test, [0.0])
        assert len(rows) == 1
        assert rows[0].kl_distance <= 1e-6
        dense = np.count_nonzero(np.abs(model.W) > 1e-12) / model.W.size
        assert abs(rows[0].nnz_fraction - dense) <= 0.05  # solver noise can wake dormant entries

    def test_kl_monotone_in_gamma(self):
        model, test = self.make_model(seed=2)
        rows = sparsity_sweep(model, test, [0.001, 0.01, 0.1])
        for a, b in zip(rows, rows[1:]):
            assert a.kl_distance <= b.kl_distance + 1e-8

    def test_unsorted_gammas_rejected(self):
        model, test = self.make_model()
        with pytest.raises(InputError):
            sparsity_sweep(model, test, [0.1, 0.01])

    @pytest.mark.parametrize("wide", ["xs", "ys"])
    def test_test_width_checked_before_any_solve(self, monkeypatch, wide):
        # a test set of another width failed only when the first solution was scored
        model, test = self.make_model()
        points = {"xs": test.xs, "ys": test.ys}
        points[wide] = np.hstack([points[wide], points[wide][:, :1]])
        solves = []
        monkeypatch.setattr(sparse, "fista_solve", lambda *a, **k: solves.append(a) or fista_solve(*a, **k))
        with pytest.raises(InputError, match="^points have dimension 3, kernel expects 2$"):
            sparsity_sweep(model, TrainingSet(**points), [0.01, 0.1])
        assert solves == []

    def test_solves_do_not_depend_on_heap_addresses(self):
        # blas.dasum sums the same entries to different last bits at different addresses,
        # so a solve's objective and gap varied with where its iterate was allocated
        model, _ = self.make_model(seed=3)
        results, held = set(), []
        for k in range(64):
            held.append(np.empty(130 + 2 * k))  # moves where the next arrays are allocated
            M, run = None, []
            for gamma in (0.1, 0.01, 0.001):
                sol = fista_solve(SparseProblem(model.kgram, model.lgram, model.W, gamma), start=M)
                run.append((sol.iterations, sol.objective, sol.gap, sol.M.tobytes()))
                M = sol.M
            results.add(tuple(run))
        assert len(results) == 1

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_buffers_start_on_64_byte_boundaries(self, order):
        # wherever the heap puts them: on 16-byte offsets an iteration ran about 6% slower
        held = []
        for k in range(16):
            held.append(np.empty(1 + k))  # moves where the next array is allocated
            A = sparse._aligned((5, 7), order=order)
            assert A.ctypes.data % 64 == 0 and A.shape == (5, 7) and A.flags[f"{order}_CONTIGUOUS"]

    def test_rows_follow_descending_warm_path(self):
        model, test = self.make_model(seed=3)
        gammas = [0.001, 0.003, 0.01, 0.1]
        rows = sparsity_sweep(model, test, gammas)
        assert [r.gamma for r in rows] == gammas
        M = None
        for g, row in reversed(list(zip(gammas, rows))):
            p = SparseProblem(model.kgram, model.lgram, model.W, g)
            sol = fista_solve(p, start=M)
            assert (row.kl_distance, row.iterations, row.converged, row.gap) == (
                kl_distance(p, sol.M), sol.iterations, True, sol.gap)
            M = sol.M
