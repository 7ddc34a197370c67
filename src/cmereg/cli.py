"""Command-line surface: reproducible experiments from JSON configs to CSVs.

Commands: fit | cv | sparsify | compare | rate | pendulum.
Exit codes: 0 success, 2 config error, 3 numeric failure.

All randomness is seeded from the config (or --seed), so rerunning a command
with the same config yields byte-identical CSVs. Output files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import embedding, lowrank, pendulum, ratecheck, sparse
from .errors import InputError, NumericalError
from .kernels import KernelSpec, median_bandwidth


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- plumbing


def _check_keys(cfg: dict, allowed, required, where: str):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _positive(cfg, key, where):
    v = cfg[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not v > 0:
        raise ConfigError(f"{where}: {key} must be a positive number")
    return float(v)


def _kernel_spec(cfg, domain_dim: int, where: str) -> KernelSpec:
    _check_keys(cfg, {"variant", "bandwidth"}, {"variant"}, where)
    try:
        return KernelSpec(
            variant=cfg["variant"],
            bandwidth=cfg.get("bandwidth"),
            domain_dim=domain_dim,
        )
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def read_dataset(path: str) -> embedding.TrainingSet:
    """Headered CSV with input columns x0..x{d-1} and output columns y0..y{k-1}."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in row] for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    except (StopIteration, ValueError) as exc:
        raise ConfigError(f"malformed dataset {path}: {exc}") from exc
    xcols = [i for i, h in enumerate(header) if h.startswith("x")]
    ycols = [i for i, h in enumerate(header) if h.startswith("y")]
    if not xcols or not ycols or not rows:
        raise ConfigError(f"dataset {path} needs x*/y* columns and at least one row")
    arr = np.asarray(rows)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"dataset {path} has a non-finite value")
    return embedding.TrainingSet(arr[:, xcols], arr[:, ycols])


def _fmt(v) -> str:
    if isinstance(v, (bool, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: str, header, rows):
    """Write atomically; fixed column order, '.' decimals, trailing newline."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_bandwidth(value, points, where: str) -> float:
    if value is None or value == "median":
        return median_bandwidth(points)
    if not isinstance(value, (int, float)) or value <= 0:
        raise ConfigError(f"{where}: bandwidth must be positive or 'median'")
    return float(value)


# ---------------------------------------------------------------- commands


def run_fit(cfg: dict, out: str):
    _check_keys(cfg, {"dataset", "lambda", "x_kernel", "y_kernel", "seed"},
                {"dataset", "lambda", "x_kernel", "y_kernel"}, "fit")
    lam = _positive(cfg, "lambda", "fit")
    train = read_dataset(cfg["dataset"])
    d = np.asarray(train.xs).shape[1]
    k = np.asarray(train.ys).shape[1]
    kspec = _kernel_spec(cfg["x_kernel"], d, "fit.x_kernel")
    lspec = _kernel_spec(cfg["y_kernel"], k, "fit.y_kernel")
    model = embedding.fit(train, kspec, lspec, lam)
    from .linalg import sym_eig_max

    opnorm = sym_eig_max(model.W @ model.W.T) ** 0.5
    bound = 1.0 / (lam * train.n) + 1e-8
    write_csv(
        os.path.join(out, "summary.csv"),
        ["n", "lambda", "x_variant", "x_bandwidth", "y_variant", "y_bandwidth",
         "train_risk", "w_opnorm", "w_opnorm_bound", "bound_ok"],
        [[train.n, lam, kspec.variant, kspec.bandwidth or 0.0, lspec.variant,
          lspec.bandwidth or 0.0, embedding.empirical_risk(model, train),
          opnorm, bound, int(opnorm <= bound)]],
    )
    write_csv(
        os.path.join(out, "coefficients.csv"),
        [f"c{j}" for j in range(train.n)],
        model.W,
    )


def run_cv(cfg: dict, out: str):
    _check_keys(cfg, {"dataset", "lambdas", "bandwidths", "folds", "seed", "x_kernel", "y_kernel"},
                {"dataset", "lambdas", "folds", "seed", "x_kernel", "y_kernel"}, "cv")
    lambdas = cfg["lambdas"]
    if not isinstance(lambdas, list) or not lambdas or any(not l > 0 for l in lambdas):
        raise ConfigError("cv: lambdas must be a nonempty list of positive numbers")
    bandwidths = cfg.get("bandwidths", [None])
    train = read_dataset(cfg["dataset"])
    d = np.asarray(train.xs).shape[1]
    k = np.asarray(train.ys).shape[1]
    kspec = _kernel_spec(cfg["x_kernel"], d, "cv.x_kernel")
    lspec = _kernel_spec(cfg["y_kernel"], k, "cv.y_kernel")
    grid = [(lam, bw) for lam in lambdas for bw in bandwidths]
    folds = cfg["folds"]
    if not isinstance(folds, int) or folds < 2:
        raise ConfigError("cv: folds must be an integer >= 2")
    if folds > train.n:
        raise ConfigError("cv: folds exceeds the number of samples")
    report = embedding.cross_validate(train, kspec, lspec, grid, folds, int(cfg["seed"]))
    rows = []
    for g, (lam, bw) in enumerate(report.grid):
        for f in range(folds):
            rows.append([g, lam, bw if bw is not None else 0.0, f,
                         report.fold_errors[g, f], int(g == report.best)])
    write_csv(os.path.join(out, "cv.csv"),
              ["grid_index", "lambda", "bandwidth", "fold", "error", "best"], rows)


def _sweep_rows(rows):
    return [[r.gamma, r.nnz_fraction, r.row_occupancy, r.kl_distance, r.test_risk, r.iterations,
             int(r.converged)]
            for r in rows]


def run_sparsify(cfg: dict, out: str):
    _check_keys(
        cfg,
        {"dataset", "test_dataset", "lambda", "x_kernel", "y_kernel", "gammas", "penalty", "max_iter", "tol", "seed"},
        {"dataset", "lambda", "x_kernel", "y_kernel", "gammas"},
        "sparsify",
    )
    lam = _positive(cfg, "lambda", "sparsify")
    gammas = cfg["gammas"]
    if not isinstance(gammas, list) or not gammas or any(g < 0 for g in gammas):
        raise ConfigError("sparsify: gammas must be a nonempty list of nonnegative numbers")
    if sorted(gammas) != gammas:
        raise ConfigError("sparsify: gammas must be sorted ascending")
    penalty = cfg.get("penalty", "entrywise_l1")
    if penalty not in sparse.PENALTIES:
        raise ConfigError(f"sparsify: unknown penalty {penalty!r}")
    train = read_dataset(cfg["dataset"])
    test = read_dataset(cfg["test_dataset"]) if "test_dataset" in cfg else train
    d = np.asarray(train.xs).shape[1]
    k = np.asarray(train.ys).shape[1]
    kspec = _kernel_spec(cfg["x_kernel"], d, "sparsify.x_kernel")
    lspec = _kernel_spec(cfg["y_kernel"], k, "sparsify.y_kernel")
    model = embedding.fit(train, kspec, lspec, lam)
    rows = sparse.sparsity_sweep(
        model, test, gammas, penalty=penalty,
        max_iter=int(cfg.get("max_iter", 20000)), tol=float(cfg.get("tol", 1e-8)),
    )
    write_csv(os.path.join(out, "sparsify.csv"),
              ["gamma", "nnz_fraction", "row_occupancy", "kl_distance", "test_risk", "iterations",
               "converged"],
              _sweep_rows(rows))


def _compare_data(cfg: dict, seed: int):
    if ("pendulum" in cfg) == ("dataset" in cfg):
        raise ConfigError("compare: give exactly one of 'pendulum' or 'dataset'")
    if "pendulum" in cfg:
        pcfg = dict(cfg["pendulum"])
        _check_keys(pcfg, {"n", "n_test", "dt", "discount", "friction", "torque_levels"},
                    {"n", "n_test"}, "compare.pendulum")
        n, n_test = int(pcfg.pop("n")), int(pcfg.pop("n_test"))
        params = pendulum.PendulumParams(**pcfg)
        train = pendulum.collect_dataset(params, n, seed).training_set()
        test = pendulum.collect_dataset(params, n_test, seed + 1).training_set()
        return train, test
    dcfg = dict(cfg["dataset"])
    _check_keys(dcfg, {"train", "test"}, {"train", "test"}, "compare.dataset")
    return read_dataset(dcfg["train"]), read_dataset(dcfg["test"])


def run_compare(cfg: dict, out: str):
    _check_keys(
        cfg,
        {"pendulum", "dataset", "lambda", "x_bandwidth", "y_bandwidth", "gammas", "ranks", "penalty", "seed", "max_iter", "tol"},
        {"lambda", "gammas", "ranks", "seed"},
        "compare",
    )
    lam = _positive(cfg, "lambda", "compare")
    seed = int(cfg["seed"])
    gammas = cfg["gammas"]
    ranks = cfg["ranks"]
    if not isinstance(gammas, list) or not gammas or sorted(gammas) != gammas:
        raise ConfigError("compare: gammas must be a nonempty ascending list")
    if not isinstance(ranks, list) or not ranks or any(not isinstance(r, int) or r < 1 for r in ranks):
        raise ConfigError("compare: ranks must be a nonempty list of positive integers")
    penalty = cfg.get("penalty", "entrywise_l1")
    train, test = _compare_data(cfg, seed)
    d = np.asarray(train.xs).shape[1]
    k = np.asarray(train.ys).shape[1]
    kspec = KernelSpec("gaussian", _resolve_bandwidth(cfg.get("x_bandwidth"), train.xs, "compare"), d)
    lspec = KernelSpec("gaussian", _resolve_bandwidth(cfg.get("y_bandwidth"), train.ys, "compare"), k)
    model = embedding.fit(train, kspec, lspec, lam)
    rows = []
    for r in sparse.sparsity_sweep(model, test, gammas, penalty=penalty,
                                   max_iter=int(cfg.get("max_iter", 20000)),
                                   tol=float(cfg.get("tol", 1e-8))):
        rows.append(["lasso", r.gamma, r.nnz_fraction, r.kl_distance, r.test_risk])
    for rank in ranks:
        if rank > train.n:
            raise ConfigError(f"compare: rank {rank} exceeds n={train.n}")
        ic = lowrank.incomplete_cholesky(model.kgram, rank)
        M = lowrank.subset_refit(train, ic.pivots, kspec, lam)
        problem = sparse.SparseProblem(K=model.kgram, L=model.lgram, W=model.W, gamma=0.0)
        rows.append([
            "cholesky", rank,
            float(np.count_nonzero(np.abs(M) > 1e-12)) / M.size,
            sparse.kl_distance(problem, M),
            embedding.empirical_risk(model.with_coefficients(M), test),
        ])
    write_csv(os.path.join(out, "compare.csv"),
              ["method", "sparsity_level", "nnz_fraction", "kl_distance", "test_risk"], rows)


def run_rate(cfg: dict, out: str):
    _check_keys(
        cfg,
        {"x_symbols", "y_symbols", "px", "pyx", "n_grid", "seeds", "schedule", "synthetic_excess_c", "seed"},
        {"px", "pyx", "n_grid", "seeds"},
        "rate",
    )
    px = cfg["px"]
    pyx = cfg["pyx"]
    xsym = tuple(cfg.get("x_symbols", [f"x{i}" for i in range(len(px))]))
    ysym = tuple(cfg.get("y_symbols", [f"y{j}" for j in range(len(pyx[0]))]))
    try:
        dist = ratecheck.DiscreteDistribution(xsym, ysym, np.asarray(px), np.asarray(pyx))
    except InputError as exc:
        raise ConfigError(f"rate: {exc}") from exc
    n_grid = cfg["n_grid"]
    seeds = cfg["seeds"]
    if not isinstance(n_grid, list) or len(n_grid) < 1:
        raise ConfigError("rate: n_grid must be a nonempty list")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("rate: seeds must be a nonempty list of integers")
    sched_cfg = cfg.get("schedule", {})
    _check_keys(sched_cfg, {"a", "beta"}, set(), "rate.schedule")
    schedule = (float(sched_cfg.get("a", 1.0)), float(sched_cfg.get("beta", 0.5)))
    if "synthetic_excess_c" in cfg:
        # testing hook: exact c/n excess data through the same CSV/slope path
        c = _positive(cfg, "synthetic_excess_c", "rate")
        results = [ratecheck.RateResult(n=int(n), excess=c / n, seed=int(s), lambda_used=0.0)
                   for n in n_grid for s in seeds]
    else:
        results = ratecheck.rate_experiment(dist, n_grid, [int(s) for s in seeds], schedule)
    write_csv(os.path.join(out, "rate.csv"),
              ["n", "seed", "lambda", "excess"],
              [[r.n, r.seed, r.lambda_used, r.excess] for r in results])
    slope = ratecheck.rate_slope(results) if len(set(r.n for r in results)) >= 3 else float("nan")
    path = os.path.join(out, "slope.txt")
    fd, tmp = tempfile.mkstemp(dir=out, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(f"slope={slope:.12g}\n")
    os.replace(tmp, path)


def run_pendulum(cfg: dict, out: str):
    _check_keys(
        cfg,
        {"n", "seed", "lambda", "x_bandwidth", "y_bandwidth", "sweeps", "episodes", "horizon",
         "dt", "discount", "friction", "torque_levels"},
        {"n", "seed"},
        "pendulum",
    )
    params = pendulum.PendulumParams(
        dt=float(cfg.get("dt", 0.1)),
        discount=float(cfg.get("discount", 0.95)),
        friction=float(cfg.get("friction", 0.05)),
        torque_levels=int(cfg.get("torque_levels", 9)),
    )
    seed = int(cfg["seed"])
    data = pendulum.collect_dataset(params, int(cfg["n"]), seed)
    train = data.training_set()
    lam = float(cfg.get("lambda", 1e-4))
    if lam <= 0:
        raise ConfigError("pendulum: lambda must be positive")
    kspec = KernelSpec("gaussian", _resolve_bandwidth(cfg.get("x_bandwidth"), train.xs, "pendulum"), 4)
    lspec = KernelSpec("gaussian", _resolve_bandwidth(cfg.get("y_bandwidth"), train.ys, "pendulum"), 3)
    model = embedding.fit(train, kspec, lspec, lam)
    policy = pendulum.policy_iteration(model, params, sweeps=int(cfg.get("sweeps", 50)))
    episodes = int(cfg.get("episodes", 100))
    horizon = int(cfg.get("horizon", 100))
    learned = pendulum.evaluate_policy(policy, params, episodes, horizon, seed + 1)
    rand = pendulum.evaluate_policy(pendulum.RandomTorquePolicy(params), params, episodes, horizon, seed + 1)
    rows = []
    for i, row in enumerate(np.asarray(train.ys)):
        s = pendulum.output_state(row)
        rows.append([i, s.theta, s.omega, policy.values[i], policy.greedy_torque[i]])
    write_csv(os.path.join(out, "policy.csv"),
              ["index", "theta", "omega", "value", "greedy_torque"], rows)
    write_csv(os.path.join(out, "returns.csv"),
              ["policy", "mean_return"],
              [["learned", learned], ["random", rand]])


COMMANDS = {
    "fit": run_fit,
    "cv": run_cv,
    "sparsify": run_sparsify,
    "compare": run_compare,
    "rate": run_rate,
    "pendulum": run_pendulum,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cmereg", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory for CSVs")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            cfg["seed"] = args.seed
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](cfg, args.out)
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
