"""Command-line surface: reproducible experiments from JSON configs to CSVs.

Commands: fit | cv | sparsify | compare | rate | pendulum.
Exit codes: 0 success, 2 config error, 3 numeric failure.

main checks each config against the command's table in SCHEMAS: unknown
keys, missing required keys and values of the wrong type or range are config
errors, and absent optional keys get their defaults. cv, compare and pendulum
alone draw random numbers and take a seed (or --seed). Reruns with the same
config yield byte-identical CSVs, written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import reprlib
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import embedding, lowrank, pendulum, ratecheck, sparse
from .errors import InputError, NumericalError
from .kernels import VARIANTS, KernelSpec, median_bandwidth
from .linalg import blas_threads, sym_eig_max


# ---------------------------------------------------------------- schema
# A table maps each key to (check, default); REQUIRED marks a key without a
# default. A check returns the value as the command uses it, or raises
# ValueError saying what is wrong with it.

REQUIRED = object()


def _is(test, what):
    def check(v):
        if not test(v):
            raise ValueError(f"{reprlib.repr(v)} is not {what}")
        return v
    return check


def _real(low=-float("inf"), strict=False):
    """A finite number (never a bool) >= low, or > low if strict; as a float."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{reprlib.repr(v)} is not a finite number")
        if v < low or (strict and v == low):
            raise ValueError(f"{reprlib.repr(v)} is not {'>' if strict else '>='} {low}")
        return float(v)
    return check


def _integer(low, high=float("inf")):
    """An integral-valued finite number in [low, high] (1e4 passes, 2.7 does not), as an
    int; an int comes back unchanged, so 2**53 + 1 is not rounded through a float."""
    real, integral = _real(low), _is(float.is_integer, "an integer")
    at_most = _is(lambda v: v <= high, f"<= {high}")

    def check(v):
        num = real(v)  # a finite number >= low, never a bool
        return at_most(v if isinstance(v, int) else int(integral(num)))
    return check


def _list(item, ascending=False, distinct=False):
    """A nonempty list whose items pass `item`."""
    def check(v):
        out = [item(x) for x in _is(lambda v: isinstance(v, list) and v, "a nonempty list")(v)]
        if ascending and out != sorted(out):
            raise ValueError(f"{reprlib.repr(v)} is not ascending")
        if distinct and len(set(out)) != len(out):
            raise ValueError(f"{reprlib.repr(v)} has repeated items")
        return out
    return check


def _rows(v):
    """A rectangular matrix of finite numbers, as a list of rows."""
    return _is(lambda rows: len({len(r) for r in rows}) == 1, "rectangular")(_list(_list(_real()))(v))


def _fill(cfg, table) -> dict:
    """cfg checked against table, with every absent optional key at its default."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{reprlib.repr(cfg)} is not an object")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    out = {}
    for key, (check, default) in table.items():
        if key in cfg:
            try:
                out[key] = check(cfg[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        elif default is REQUIRED:
            raise ValueError(f"missing required key {key!r}")
        else:
            out[key] = default
    return out


def _table(table):
    return lambda v: _fill(v, table)


def _one_of(options):
    options = tuple(options)  # compared by ==, so an unhashable JSON value is simply not one
    return _is(lambda v: v in options, f"one of {list(options)}")


_STRING = _is(lambda v: isinstance(v, str), "a string")
_SYMBOL = _is(lambda v: isinstance(v, (str, int)) and not isinstance(v, bool), "a string or an integer")
_POSITIVE = _real(0.0, strict=True)
_SEED = _integer(0)
# Ceilings on counts, each at least 10x the largest value that a test, script,
# README example or benchmark workload puts in a config; a larger count (say
# 1e300) is a config error, where it would fail to allocate or run without end.
MAX_N = 10_000  # training transitions (pendulum n); each Gram is n x n
MAX_N_TEST = 10_000  # held-out transitions (compare.pendulum n_test)
MAX_N_GRID = 50_000  # each sample size of a rate study
MAX_RANK = 10_000  # each incomplete-Cholesky rank
MAX_EPISODES = 1_000  # rollouts per policy
MAX_HORIZON = 1_000  # steps per rollout
MAX_SWEEPS = 10_000  # value-iteration sweeps
MAX_ITER = 1_000_000  # FISTA iterations per gamma
MAX_TORQUE_LEVELS = 100  # torque grid points; value iteration keeps an n x |grid| torque factor
MAX_FOLDS = 100  # cross-validation folds
# (check, default) of a bandwidth key: a number > 0, or "median" for median_bandwidth
_BANDWIDTH = (lambda v: v if v == "median" else _POSITIVE(v), "median")
_KERNEL = _table({"variant": (_one_of(VARIANTS), REQUIRED), "bandwidth": (_POSITIVE, None)})
_DATA = {"dataset": (_STRING, REQUIRED), "x_kernel": (_KERNEL, REQUIRED), "y_kernel": (_KERNEL, REQUIRED)}
_SWEEP = {
    "gammas": (_list(_real(0.0), ascending=True), REQUIRED),
    "penalty": (_one_of(sparse.PENALTIES), "entrywise_l1"),
    "max_iter": (_integer(1, MAX_ITER), 20000),
    "tol": (_POSITIVE, 1e-8),
}
# The PendulumParams fields a config may set; PendulumParams checks their ranges.
# compare.pendulum takes only the dynamics, the fields collect_dataset reads.
_DYNAMICS = {"dt": (_real(), pendulum.PendulumParams.dt),
             "friction": (_real(), pendulum.PendulumParams.friction)}
_PARAMS = {**_DYNAMICS, "discount": (_real(), pendulum.PendulumParams.discount),
           "torque_levels": (_integer(1, MAX_TORQUE_LEVELS), pendulum.PendulumParams.torque_levels)}
_SCHEDULE = {"a": (_POSITIVE, 1.0), "beta": (_real(), 0.5)}

SCHEMAS = {
    "fit": {**_DATA, "lambda": (_POSITIVE, REQUIRED)},
    "cv": {**_DATA, "lambdas": (_list(_POSITIVE), REQUIRED), "bandwidths": (_list(_POSITIVE), [None]),
           "folds": (_integer(2, MAX_FOLDS), REQUIRED), "seed": (_SEED, REQUIRED)},
    "sparsify": {**_DATA, **_SWEEP, "test_dataset": (_STRING, None), "lambda": (_POSITIVE, REQUIRED)},
    "compare": {
        **_SWEEP,
        "pendulum": (_table({**_DYNAMICS, "n": (_integer(1, MAX_N), REQUIRED),
                              "n_test": (_integer(1, MAX_N_TEST), REQUIRED)}), None),
        "dataset": (_table({"train": (_STRING, REQUIRED), "test": (_STRING, REQUIRED)}), None),
        "lambda": (_POSITIVE, REQUIRED), "x_bandwidth": _BANDWIDTH, "y_bandwidth": _BANDWIDTH,
        "ranks": (_list(_integer(1, MAX_RANK)), REQUIRED), "seed": (_SEED, REQUIRED),
    },
    "rate": {
        "x_symbols": (_list(_SYMBOL, distinct=True), None), "y_symbols": (_list(_SYMBOL, distinct=True), None),
        "px": (_list(_real()), REQUIRED), "pyx": (_rows, REQUIRED),
        "n_grid": (_list(_integer(1, MAX_N_GRID)), REQUIRED), "seeds": (_list(_SEED), REQUIRED),
        "schedule": (_table(_SCHEDULE), _fill({}, _SCHEDULE)),
    },
    "pendulum": {
        **_PARAMS, "n": (_integer(1, MAX_N), REQUIRED), "seed": (_SEED, REQUIRED),
        "lambda": (_POSITIVE, 1e-4), "x_bandwidth": _BANDWIDTH, "y_bandwidth": _BANDWIDTH,
        "sweeps": (_integer(1, MAX_SWEEPS), 50), "episodes": (_integer(1, MAX_EPISODES), 100),
        "horizon": (_integer(0, MAX_HORIZON), 100),
    },
}


# ---------------------------------------------------------------- plumbing


def read_dataset(path: str) -> embedding.TrainingSet:
    """Headered CSV with input columns x0..x{d-1} and output columns y0..y{k-1}."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = []
            for row in filter(None, reader):  # blank lines skipped
                if len(row) != len(header):
                    raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                                     f"the header {len(header)}")  # reported as malformed below
                rows.append([float(v) for v in row])
    except OSError as exc:
        raise InputError(f"cannot read dataset {path}: {exc}") from exc
    except (StopIteration, ValueError) as exc:
        raise InputError(f"malformed dataset {path}: {exc}") from exc
    xcols = [i for i, h in enumerate(header) if h.startswith("x")]
    ycols = [i for i, h in enumerate(header) if h.startswith("y")]
    if not xcols or not ycols or not rows:
        raise InputError(f"dataset {path} needs x*/y* columns and at least one row")
    arr = np.asarray(rows)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"dataset {path} has a non-finite value")
    return embedding.TrainingSet(arr[:, xcols], arr[:, ycols])


def _fmt(v) -> str:
    if isinstance(v, (bool, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return str(v)


@contextmanager
def _atomic(path: str):
    """Text file handle whose contents replace path only if the block succeeds."""
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    """Write atomically; fixed column order, '.' decimals, trailing newline.
    A float64 array row is formatted in one operation, to the bytes _fmt gives."""
    with _atomic(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, np.ndarray) and row.dtype == np.float64:
                fh.write(",".join(["%.12g"] * len(row)) % tuple(row.tolist()) + "\n")
            else:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _data(cfg: dict):
    """(training set, x kernel, y kernel) of a command whose table holds _DATA."""
    return read_dataset(cfg["dataset"]), KernelSpec(**cfg["x_kernel"]), KernelSpec(**cfg["y_kernel"])


def _gaussian(bandwidth, points) -> KernelSpec:
    """The gaussian kernel of a bandwidth key; "median" means median_bandwidth(points)."""
    return KernelSpec("gaussian", median_bandwidth(points) if bandwidth == "median" else bandwidth)


# ---------------------------------------------------------------- commands
# Each command gets its config from main, already checked against its
# table in SCHEMAS and with every default filled.


def run_fit(cfg: dict, out: str):
    lam = cfg["lambda"]
    train, kspec, lspec = _data(cfg)
    model = embedding.fit(train, kspec, lspec, lam)
    opnorm = sym_eig_max(model.W)  # W = (K + lam*n*I)^{-1} is symmetric positive definite
    bound = 1.0 / (lam * train.n)
    # rounding puts ||W|| up to a few 1e-15 above the bound, relative to it: a 1e-12 slack, and 1e-8 absolute
    bound_ok = opnorm <= bound * (1.0 + 1e-12) + 1e-8
    write_csv(
        os.path.join(out, "summary.csv"),
        ["n", "lambda", "x_variant", "x_bandwidth", "y_variant", "y_bandwidth",
         "train_risk", "w_opnorm", "w_opnorm_bound", "bound_ok"],
        [[train.n, lam, kspec.variant, kspec.bandwidth or 0.0, lspec.variant,
          lspec.bandwidth or 0.0, embedding.empirical_risk(model, train), opnorm, bound, int(bound_ok)]],
    )
    write_csv(os.path.join(out, "coefficients.csv"), [f"c{j}" for j in range(train.n)], model.W)


def run_cv(cfg: dict, out: str):
    train, kspec, lspec = _data(cfg)
    grid = [(lam, bw) for lam in cfg["lambdas"] for bw in cfg["bandwidths"]]
    folds = cfg["folds"]  # cross_validate rejects folds > n
    report = embedding.cross_validate(train, kspec, lspec, grid, folds, cfg["seed"])
    rows = [[g, lam, bw if bw is not None else 0.0, f, report.fold_errors[g, f], int(g == report.best)]
            for g, (lam, bw) in enumerate(report.grid) for f in range(folds)]
    write_csv(os.path.join(out, "cv.csv"),
              ["grid_index", "lambda", "bandwidth", "fold", "error", "best"], rows)


def run_sparsify(cfg: dict, out: str):
    train, kspec, lspec = _data(cfg)
    test = train if cfg["test_dataset"] is None else read_dataset(cfg["test_dataset"])
    model = embedding.fit(train, kspec, lspec, cfg["lambda"])
    rows = sparse.sparsity_sweep(model, test, cfg["gammas"], cfg["penalty"], cfg["max_iter"], cfg["tol"])
    write_csv(os.path.join(out, "sparsify.csv"),
              ["gamma", "nnz_fraction", "row_occupancy", "kl_distance", "test_risk", "iterations",
               "converged", "gap"],
              [[r.gamma, r.nnz_fraction, r.row_occupancy, r.kl_distance, r.test_risk, r.iterations,
                int(r.converged), r.gap] for r in rows])


def run_compare(cfg: dict, out: str):
    pcfg, dcfg = cfg["pendulum"], cfg["dataset"]
    if (pcfg is None) == (dcfg is None):
        raise InputError("compare: give exactly one of 'pendulum' or 'dataset'")
    if pcfg is not None:
        params = pendulum.PendulumParams(**{k: pcfg[k] for k in _DYNAMICS})
        train = pendulum.collect_dataset(params, pcfg["n"], cfg["seed"])
        test = pendulum.collect_dataset(params, pcfg["n_test"], cfg["seed"] + 1)
    else:
        train, test = read_dataset(dcfg["train"]), read_dataset(dcfg["test"])
    if max(cfg["ranks"]) > train.n:
        raise InputError(f"compare: rank {max(cfg['ranks'])} exceeds n={train.n}")
    lam = cfg["lambda"]
    kspec, lspec = _gaussian(cfg["x_bandwidth"], train.xs), _gaussian(cfg["y_bandwidth"], train.ys)
    model = embedding.fit(train, kspec, lspec, lam)
    rows = [["lasso", r.gamma, r.nnz_fraction, r.kl_distance, r.test_risk, int(r.converged), r.gap]
            for r in sparse.sparsity_sweep(model, test, cfg["gammas"], cfg["penalty"],
                                           cfg["max_iter"], cfg["tol"])]
    # Greedy pivots are nested: the first `rank` of one run to max(ranks) are a run to `rank`.
    pivots = lowrank.incomplete_cholesky(model.kgram, max(cfg["ranks"])).pivots
    for rank in cfg["ranks"]:
        M = lowrank.subset_refit(model, pivots[:rank])
        nnz, _, kl, risk = sparse.score(model, test, M)
        rows.append(["cholesky", rank, nnz, kl, risk, 1, 0.0])  # an exact refit: no gap to its own problem
    write_csv(os.path.join(out, "compare.csv"),
              ["method", "sparsity_level", "nnz_fraction", "kl_distance", "test_risk", "converged", "gap"], rows)


def run_rate(cfg: dict, out: str):
    px, pyx = cfg["px"], cfg["pyx"]
    for key, size in (("x_symbols", len(px)), ("y_symbols", len(pyx[0]))):  # labels only name the codes
        if cfg[key] is not None and len(cfg[key]) != size:
            raise InputError(f"rate: {key} has {len(cfg[key])} labels for {size} symbols")
    dist = ratecheck.DiscreteDistribution(np.asarray(px), np.asarray(pyx))
    schedule = (cfg["schedule"]["a"], cfg["schedule"]["beta"])
    results = ratecheck.rate_experiment(dist, cfg["n_grid"], cfg["seeds"], schedule)
    slope = ratecheck.rate_slope(results) if len(cfg["n_grid"]) >= 3 else float("nan")
    write_csv(os.path.join(out, "rate.csv"),
              ["n", "seed", "lambda", "excess"],
              [[r.n, r.seed, r.lambda_used, r.excess] for r in results])
    with _atomic(os.path.join(out, "slope.txt")) as fh:
        fh.write(f"slope={slope:.12g}\n")


def run_pendulum(cfg: dict, out: str):
    params = pendulum.PendulumParams(**{k: cfg[k] for k in _PARAMS})
    seed = cfg["seed"]
    train = pendulum.collect_dataset(params, cfg["n"], seed)
    kspec, lspec = _gaussian(cfg["x_bandwidth"], train.xs), _gaussian(cfg["y_bandwidth"], train.ys)
    # Planning reads W and the state Gram alone. The model and its L go before W is formed
    # (by the call model.W makes, so the same bits), and K before the planner builds S:
    # at most two n x n arrays are alive at once.
    K = embedding.fit(train, kspec, lspec, cfg["lambda"]).kgram
    W = embedding.ridge_coefficients(kspec, K, cfg["lambda"] * train.n)
    del K
    policy = pendulum.policy_iteration(train, kspec, W, params, sweeps=cfg["sweeps"])
    episodes, horizon = cfg["episodes"], cfg["horizon"]
    learned = pendulum.evaluate_policy(policy, params, episodes, horizon, seed + 1)
    rand = pendulum.evaluate_policy(pendulum.RandomTorquePolicy(params), params, episodes, horizon, seed + 1)
    theta, omega = pendulum.output_state(train.ys)
    write_csv(os.path.join(out, "policy.csv"),
              ["index", "theta", "omega", "value", "greedy_torque"],
              zip(range(train.n), theta, omega, policy.values, policy.greedy_torque))
    write_csv(os.path.join(out, "returns.csv"),
              ["policy", "mean_return"],
              [["learned", learned], ["random", rand]])
    deltas = policy.sweep_deltas
    write_csv(os.path.join(out, "planning.csv"),
              ["sweeps", "last_delta", "tol", "converged"],
              [[len(deltas), deltas[-1], pendulum.PLAN_TOL, int(deltas[-1] < pendulum.PLAN_TOL)]])


COMMANDS = {
    "fit": run_fit,
    "cv": run_cv,
    "sparsify": run_sparsify,
    "compare": run_compare,
    "rate": run_rate,
    "pendulum": run_pendulum,
}


# (glibc mallopt parameter, value) that _keep_freed_pages sets: M_MMAP_THRESHOLD (-3), so
# blocks up to 32 MiB, glibc's 64-bit ceiling, come from the heap rather than mmap (an
# n = 1600 float array is 20.5 MB), and M_TRIM_THRESHOLD (-1), so the heap's free top goes
# back to the system only past 1 GiB.
_MALLOPTS = ((-3, 32 << 20), (-1, 1 << 30))


def _keep_freed_pages():
    """Keep freed memory in this process's C heap, so a fit reuses the pages of the
    fit before it instead of faulting in and zeroing fresh ones. Both thresholds
    are set: setting either one turns off glibc's dynamic thresholds, and a trim
    threshold alone would send every n x n array to mmap. Without glibc's mallopt
    (another C library), nothing is set. Library callers keep their allocator's
    defaults; only main calls this."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the process's own symbols
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        for param, value in _MALLOPTS:
            mallopt(param, value)


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
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise InputError(f"cannot load config {args.config}: {exc}") from exc
        if isinstance(cfg, dict) and args.seed is not None:
            cfg["seed"] = args.seed
        try:
            cfg = _fill(cfg, SCHEMAS[args.command])
        except ValueError as exc:
            raise InputError(f"{args.command}: {exc}") from None
        os.makedirs(args.out, exist_ok=True)
        _keep_freed_pages()  # each fit reuses the pages its predecessor freed; same bits
        with blas_threads(1):  # one thread per pool: same bits for any OPENBLAS_NUM_THREADS
            COMMANDS[args.command](cfg, args.out)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:  # e.g. a bandwidth whose square overflows
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
