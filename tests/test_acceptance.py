"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure). The heavy fixtures are
session-scoped so the discrete-oracle and pendulum experiments run once.
"""

import json
import time

import numpy as np
import pytest

from cmereg import embedding, lowrank, pendulum, ratecheck, sparse
from cmereg.cli import main as cli_main
from cmereg.embedding import fit
from cmereg.kernels import KernelSpec, gram, median_bandwidth
from cmereg.sparse import fista_solve, grad_smooth, smooth_part

from oracles import cd_lasso, cd_objective, criterion_2_instances, fd_gradient, random_instance

# ------------------------------------------------------------ shared setup

# 4x4 discrete oracle: every conditional row is distinct and non-degenerate
DIST = ratecheck.DiscreteDistribution(
    np.array([0.4, 0.3, 0.2, 0.1]),
    np.array([
        [0.70, 0.10, 0.10, 0.10],
        [0.20, 0.50, 0.20, 0.10],
        [0.10, 0.20, 0.60, 0.10],
        [0.25, 0.25, 0.25, 0.25],
    ]),
)
N_GRID = [50, 200, 800, 3200]
SEEDS = list(range(20))
DELTA = KernelSpec("delta")


def report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def rate_results():
    return ratecheck.rate_experiment(DIST, N_GRID, SEEDS)


@pytest.fixture(scope="session")
def table_errors():
    """Mean max-entry error of the fitted conditional table, per n."""
    errs = {n: [] for n in N_GRID}
    for n in N_GRID:
        lam = n ** -0.5
        for seed in SEEDS:
            model = fit(ratecheck.sample(DIST, n, seed), DELTA, DELTA, lam)
            table = ratecheck.conditional_table(DIST, model)
            errs[n].append(np.max(np.abs(table - DIST.pyx)))
    return {n: float(np.mean(v)) for n, v in errs.items()}


@pytest.fixture(scope="session")
def pendulum_compare():
    """Lasso sweep vs incomplete-Cholesky baseline on n=200 pendulum data."""
    t0 = time.perf_counter()
    params = pendulum.PendulumParams()
    train = pendulum.collect_dataset(params, 200, 0)
    test = pendulum.collect_dataset(params, 300, 1)
    kspec = KernelSpec("gaussian", 2.0)
    lspec = KernelSpec("gaussian", 1.5)
    model = fit(train, kspec, lspec, 1e-2)
    gammas = [1.6e-4, 5e-4, 1.6e-3, 5e-3, 1.6e-2, 5e-2, 0.159]
    lasso = [(r.nnz_fraction, r.kl_distance)
             for r in sparse.sparsity_sweep(model, test, gammas, max_iter=8000)]
    chol = []
    for rank in (10, 25, 40, 60, 80, 110, 140):
        ic = lowrank.incomplete_cholesky(model.kgram, rank)
        M = lowrank.subset_refit(model, ic.pivots)
        nnz, _, kl, _ = sparse.score(model, test, M)
        chol.append((nnz, kl))
    return lasso, chol, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pendulum_returns():
    params = pendulum.PendulumParams()
    train = pendulum.collect_dataset(params, 200, 0)
    kspec = KernelSpec("gaussian", median_bandwidth(train.xs))
    lspec = KernelSpec("gaussian", median_bandwidth(train.ys))
    model = fit(train, kspec, lspec, 1e-4)
    policy = pendulum.policy_iteration(train, kspec, model.W, params, sweeps=80)
    learned = pendulum.evaluate_policy(policy, params, 100, 100, seed=1)
    rand = pendulum.evaluate_policy(pendulum.RandomTorquePolicy(params), params, 100, 100, seed=1)
    return learned, rand


# ------------------------------------------------------------ criteria


def test_criterion_1_gamma_zero_recovery():
    # gamma = 0 returns W itself; gamma = 1e-10 runs FISTA from zero, whose minimizer is within
    # about 1e-10 of W, so the bound checks the solver's iterations too
    t0 = time.perf_counter()
    exact, converged, worst, iterations = True, True, 0.0, []
    for seed in range(20):
        prob = random_instance(seed)
        exact &= bool(np.array_equal(fista_solve(prob, max_iter=6000, tol=1e-14).M, prob.W))
        sol = fista_solve(random_instance(seed, gamma=1e-10), max_iter=6000, tol=1e-14)
        converged &= sol.converged
        iterations.append(sol.iterations)
        worst = max(worst,
                    np.linalg.norm(sol.M - prob.W) / (1 + np.linalg.norm(prob.W)))
    elapsed = time.perf_counter() - t0
    report(1, exact and converged and worst <= 1e-6 and elapsed < 10.0,
           f"gamma=0 returns W {exact}; gamma=1e-10 FISTA converged {converged} "
           f"({min(iterations)}-{max(iterations)} iterations) "
           f"worst rel error {worst:.2e} over 20 instances in {elapsed:.1f}s")


def test_criterion_2_coordinate_descent_oracle():
    worst_gap = 0.0
    cert_ok = True
    for prob in criterion_2_instances():
        gamma = prob.gamma
        sol = fista_solve(prob, max_iter=100000, tol=1e-14)
        M_cd = cd_lasso(prob.K, prob.L, prob.W, gamma)
        gap = abs(sol.objective
                  - cd_objective(prob.K, prob.L, prob.W, M_cd, gamma))
        worst_gap = max(worst_gap, gap)
        G = grad_smooth(prob, sol.M)
        eps = 1e-4 * (1 + gamma)
        zero = np.abs(sol.M) <= 1e-12
        cert_ok &= bool(np.all(np.abs(G[zero]) <= gamma + eps))
        cert_ok &= bool(np.all(np.abs(G[~zero] + gamma * np.sign(sol.M[~zero])) <= eps))
    report(2, worst_gap <= 1e-6 and cert_ok,
           f"objective gap to coordinate-descent oracle {worst_gap:.2e}; "
           f"subgradient certificate {'holds' if cert_ok else 'violated'}")


def test_criterion_3_gradient_finite_differences():
    worst = 0.0
    for seed in range(20):
        prob = random_instance(300 + seed, n=int(np.random.default_rng(seed).integers(3, 8)))
        M = np.random.default_rng(400 + seed).standard_normal(prob.W.shape)
        G = grad_smooth(prob, M)
        G_fd = fd_gradient(lambda X: smooth_part(prob, X), M)
        worst = max(worst, np.max(np.abs(G - G_fd)) / max(1.0, np.max(np.abs(G_fd))))
    report(3, worst <= 1e-5, f"gradient vs central differences, max rel error {worst:.2e}")


def test_criterion_4_per_symbol_ridge_equivalence():
    train = ratecheck.sample(DIST, 60, 2)
    lam = 0.05
    model = fit(train, DELTA, DELTA, lam)
    K = gram(DELTA, train.xs)
    n = train.n
    # brute-force oracle: one scalar kernel ridge regression per output symbol,
    # on indicator targets; sample draws symbol codes
    Z = np.array([[1.0 if y == b else 0.0 for b in range(DIST.pyx.shape[1])] for y in train.ys])
    ridge = np.linalg.solve(K + lam * n * np.eye(n), Z)
    worst = 0.0
    for x in range(len(DIST.px)):
        kq = np.array([1.0 if xi == x else 0.0 for xi in train.xs])
        krr_pred = kq @ ridge
        cme_pred = embedding.alpha_batch(model, [x])[0] @ Z
        worst = max(worst, np.max(np.abs(krr_pred - cme_pred)))
    report(4, worst <= 1e-10, f"per-symbol ridge oracle max deviation {worst:.2e}")


def test_criterion_5_minimizer_coincidence(table_errors, rate_results):
    errs = [table_errors[n] for n in N_GRID]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    nonneg = all(r.excess >= 0.0 for r in rate_results)
    report(5, decreasing and nonneg,
           "conditional table max-entry error "
           + " > ".join(f"{e:.3f}" for e in errs)
           + f" over n={N_GRID}; excess risk nonnegative {nonneg}")


def test_criterion_6_rate_slope(rate_results):
    slope = ratecheck.rate_slope(rate_results)
    report(6, -1.3 <= slope <= -0.5, f"log-log excess-risk slope {slope:.3f} in [-1.3, -0.5]")


def test_criterion_7_sparsity_comparison(pendulum_compare):
    lasso, chol, elapsed = pendulum_compare
    wins = 0
    for l_nnz, l_kl in lasso:
        if not 0.005 <= l_nnz <= 0.95:
            continue
        matched = [c_kl for c_nnz, c_kl in chol
                   if abs(c_nnz - l_nnz) <= 0.02 and 0.005 <= c_nnz <= 0.95]
        if matched and l_kl < min(matched):
            wins += 1
    report(7, wins >= 3 and elapsed < 300.0,
           f"lasso beats incomplete Cholesky at {wins} matched interior "
           f"sparsity levels in {elapsed:.0f}s")


def test_criterion_8_incomplete_cholesky_exactness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 41))
        pts = rng.uniform(0, 3, size=(n, 2))
        K = gram(KernelSpec("gaussian", 1.0), pts)
        ic = lowrank.incomplete_cholesky(K, n)
        rel = (np.linalg.norm(ic.factor @ ic.factor.T - K)
               / np.linalg.norm(K))
        worst = max(worst, rel)
    report(8, worst <= 1e-8, f"full-rank factorization max rel Frobenius error {worst:.2e}")


def test_criterion_9_policy_improvement(pendulum_returns):
    learned, rand = pendulum_returns
    goal = pendulum.reward(0.0, 0.0)
    report(9, learned > rand and goal == 1.0,
           f"learned policy return {learned:.3f} > random {rand:.3f}; "
           f"upright reward exactly {goal}")


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    lines = ["x0,x1,y0,y1"]
    for row in rng.uniform(0, 3, size=(20, 4)):
        lines.append(",".join(f"{v:.12g}" for v in row))
    data.write_text("\n".join(lines) + "\n")
    gauss = {"variant": "gaussian", "bandwidth": 0.5}
    configs = {
        "fit": {"dataset": str(data), "lambda": 0.1, "x_kernel": gauss, "y_kernel": gauss},
        "cv": {"dataset": str(data), "lambdas": [0.01, 0.1], "folds": 3, "seed": 0,
               "x_kernel": gauss, "y_kernel": gauss},
        "sparsify": {"dataset": str(data), "lambda": 0.1, "gammas": [0.001, 0.01],
                     "x_kernel": gauss, "y_kernel": gauss, "max_iter": 3000},
        "compare": {"dataset": {"train": str(data), "test": str(data)}, "lambda": 0.1,
                    "x_bandwidth": 0.5, "y_bandwidth": 0.5, "gammas": [0.0, 0.01],
                    "ranks": [2, 5], "seed": 0, "max_iter": 3000},
        "rate": {"px": [0.5, 0.5], "pyx": [[0.9, 0.1], [0.2, 0.8]],
                 "n_grid": [20, 40, 80], "seeds": [0, 1]},
        "pendulum": {"n": 40, "seed": 0, "sweeps": 10, "episodes": 5, "horizon": 10},
    }
    all_identical = True
    for cmd, cfg in configs.items():
        cfg_path = tmp_path / f"{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / cmd / run
            assert cli_main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            all_identical &= (a / name).read_bytes() == (b / name).read_bytes()
    report(10, all_identical, "all six CLI commands rerun byte-identically")
