#!/usr/bin/env python3
"""Time the layers of a fit: kernels.gram, the dense ridge inverse, a whole
embedding.fit and a fit followed by its score; one rollout step of the pendulum
policies; and a FISTA iteration at each gamma of the sparse path.

    python3 scripts/bench_layers.py [--src DIR] [--repeats N] [--label NAME --out FILE]

For n in 320, 800 and 1600 and for the gaussian and delta kernels, times
`kernels.gram` over n points: gaussian on 4-d standard normal points
(bandwidth 2, lambda 1e-3, as in plan-pendulum's fits), delta on n integer
codes drawn from four (lambda n^-1/2, the rate schedule). Gaussian cases also
time, as "ridge_inverse", `embedding.ridge_coefficients` of that Gram with the
fit's shift lambda*n (the dense solve), the W that `fit`, `sparsify` and
`compare` form; no code path forms a delta Gram's dense inverse. Delta cases
also time "gram_distinct", `kernels.gram` over n distinct codes (a seeded
permutation of 0..n-1), where no point repeats and so no row is shared. "fit"
times `embedding.fit` on those points as inputs and outputs, with the same
kernel on both sides and the same shift: the two Grams. "fit_then_score" times
that fit followed by `embedding.alpha_batch` of its model at a fit's queries,
as one rate fit (the four codes, delta, by the class solve) or one CV fold (80
fresh points, gaussian, a held-out share at n = 400, by the dense solve) uses
its model. Each case runs once as a warm-up and then --repeats times; the
result gives min and median milliseconds of wall time and of
`time.process_time()` (`cpu_`), the CPU of all the process's threads.

For n in 320 and 800, gaussian cases also give "dense_memory": the tracemalloc
peaks of that `kernels.gram`, of its "ridge_inverse" and of its ridge solve at the
80 queries' kernel columns (`ridge_coefficients` given B, as a CV fold solves),
in n^2 floats (8 n^2 bytes). The "pendulum-400" and "pendulum-800" cases give
the "dense_memory" of the `pendulum` command's body (`cli.run_pendulum`, seed 1,
median bandwidths, lambda 1e-4, 2 sweeps, 1 episode of 1 step) on n transitions:
its fit, ridge inverse and plan, in n^2 floats. Each runs once: the peaks are
deterministic.

"rollout_step" gives min and median microseconds (wall and CPU) per call of
`pendulum.Policy.act` (learned) and `RandomTorquePolicy.act` (random), each
timed over the same 1000 seeded states, on plan-pendulum's model: 800
transitions (seed 1), median bandwidths, lambda 1e-4, 80 sweeps of
`policy_iteration` on the fitted W.

"fista_per_gamma" gives, for each gamma of criterion 7 (the sparsify-pendulum
problem: 120 transitions, seed 0, bandwidths 2.0/1.5, lambda 1e-2), the
accepted iterations of `sparse.fista_solve` (max_iter 8000, warm-started from
the previous gamma's solution, largest gamma first), its products K D L
(two `dgemm` calls each, counted on a separate run: every trial step and the
start's product, so the rejected trials are products minus iterations
minus 1), and min and median microseconds per product of that solve.

"rate_memory" gives the tracemalloc peak of one `ratecheck.rate_experiment` on
criterion 5's 4x4 oracle at n_grid [800, 1600] and seeds [0, 1] (a, beta =
1, 0.5, as rate-delta's largest fits), in MB and in n = 1600 models (the bytes
of one such model's two Grams, K.nbytes + L.nbytes, whatever their dtype). It
runs once: the peak is deterministic.

"rate_faults" gives the wall time and the minor page faults (`ru_minflt`) of
the same `rate_experiment`, each run in a fresh process on one BLAS thread:
--repeats processes with the heap setting of the CLI
(`cli._keep_freed_pages`, "kept") and as many without ("defaults"), in
alternating order; min, median and max of each.

"cli_import" gives, over --repeats fresh processes, the wall time and CPU of
`import cmereg.cli` after `import numpy`, then the CPU minus wall of a 50 ms
loop of 64 x 64 `dgemm` calls on one BLAS thread (`linalg.blas_threads(1)`, as
the CLI runs a command) right after it: an OpenBLAS worker still spinning
from its library's load shows there as CPU beyond the wall time. Milliseconds,
min, median and max of each. "right_after_numpy" imports cmereg at once, as
the CLI does; "numpy_settled" 0.3 s later, once the worker of numpy's own
OpenBLAS has stopped spinning from numpy's import, so what is left is
cmereg's.

"blas_threads" times, for n in 120, 320, 800 and 1600, the dense ridge inverse
of a gaussian Gram (`ridge_coefficients`, as above) and one FISTA iteration's
two `dgemm` calls (D^T K^T, then L^T times that, into F-ordered buffers, as
`sparse.fista_solve` makes them) on n x n operands, inside
`linalg.blas_threads(1)` and `blas_threads(2)`: min and median microseconds
per call of wall time and of CPU, so the CPU that a second thread burns shows.
A sample makes round((800/n)^3) calls back to back (at least one), long enough
for process_time to see the other thread; each thread count starts after a
0.3 s pause, once the workers of the calls before it have stopped spinning.

Every case but "blas_threads" runs inside `linalg.blas_threads(1)`, as each CLI
command does (`cmereg.cli.main`), and the result says so as "case_threads": 1.

--src is the source tree cmereg is imported from (default: this checkout's
src), so one script times two commits alike. The result, with its
provenance (machine, library versions, BLAS builds, `git describe --dirty`
and a SHA-256 of the cmereg sources), is printed as JSON; with --out it is
also stored under --label in FILE, next to the labels already there.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (320, 800, 1600)
GAMMAS = (0.159, 5e-2, 1.6e-2, 5e-3, 1.6e-3, 5e-4, 1.6e-4)  # criterion 7's, largest first
# criterion 5's 4x4 oracle (px, pyx), and the rate cases' n_grid and seeds
ORACLE = ([0.4, 0.3, 0.2, 0.1], [[0.70, 0.10, 0.10, 0.10], [0.20, 0.50, 0.20, 0.10],
                                 [0.10, 0.20, 0.60, 0.10], [0.25, 0.25, 0.25, 0.25]])
RATE_GRID = ([800, 1600], [0, 1])


def _blas(config: dict) -> dict:
    """Name, version and build string of the BLAS a package was built against."""
    blas = config["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def provenance(src: str) -> dict:
    import numpy as np
    import scipy

    commit = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"], capture_output=True, text=True)
    digest = hashlib.sha256()
    pkg = os.path.join(src, "cmereg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_describe": commit.stdout.strip() or None,
        "src_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
    }


def timed(fn, repeats: int) -> dict:
    fn()  # warm-up: first-touch pages, thread pools
    wall, cpu = [], []
    for _ in range(repeats):
        start, start_cpu = time.perf_counter(), time.process_time()
        fn()
        wall.append(time.perf_counter() - start)
        cpu.append(time.process_time() - start_cpu)
    return {f"{prefix}{stat}_ms": round(1e3 * f(times), 2) for prefix, times in (("", wall), ("cpu_", cpu))
            for stat, f in (("min", min), ("median", statistics.median))}


def per_call(fn, calls: int, repeats: int) -> dict:
    """timed(fn, repeats) for fn making `calls` calls, in microseconds per call."""
    return {key[:-2] + "us": round(1e3 * ms / calls, 2) for key, ms in timed(fn, repeats).items()}


def blas_thread_counts(repeats: int) -> dict:
    import numpy as np
    from scipy.linalg import blas
    from cmereg import linalg
    from cmereg.embedding import ridge_coefficients
    from cmereg.kernels import KernelSpec, gram

    rng = np.random.default_rng(3)
    result = {}
    for n in (120, 320, 800, 1600):
        K = gram(KernelSpec("gaussian", 2.0), rng.standard_normal((n, 4)))
        L = gram(KernelSpec("gaussian", 1.5), rng.standard_normal((n, 4)))
        D = rng.standard_normal((n, n))
        Kt, Lt = np.asfortranarray(K.T), np.asfortranarray(L.T)
        DK, DKL = np.empty_like(D, order="F"), np.empty_like(D, order="F")

        def products():
            blas.dgemm(1.0, D.T, Kt, c=DK, overwrite_c=1)
            blas.dgemm(1.0, Lt, DK, c=DKL, overwrite_c=1)

        def inverse():
            ridge_coefficients(KernelSpec("gaussian", 2.0), K, 1e-3 * n)

        calls = max(1, round((800 / n) ** 3))  # a sample lasts tens of milliseconds at any n
        for k in (1, 2):
            time.sleep(0.3)  # idle OpenBLAS workers spin (about 0.14 s on a 2-core VM) before they sleep
            with linalg.blas_threads(k):
                result[f"n{n}-threads{k}"] = {
                    name: per_call(lambda: [fn() for _ in range(calls)], calls, repeats)
                    for name, fn in (("ridge_inverse", inverse), ("fista_products", products))}
    return result


def rollout_step(repeats: int) -> dict:
    import numpy as np
    from cmereg import pendulum
    from cmereg.embedding import fit
    from cmereg.kernels import KernelSpec, median_bandwidth

    params = pendulum.PendulumParams()
    train = pendulum.collect_dataset(params, 800, 1)
    kspec = KernelSpec("gaussian", median_bandwidth(train.xs))
    lspec = KernelSpec("gaussian", median_bandwidth(train.ys))
    learned = pendulum.policy_iteration(train, kspec, fit(train, kspec, lspec, 1e-4).W, params, sweeps=80)
    rand = pendulum.RandomTorquePolicy(params)
    rng = np.random.default_rng(2)
    theta = rng.uniform(-np.pi, np.pi, 1000)
    states = list(zip(theta, rng.uniform(-pendulum.OMEGA_MAX, pendulum.OMEGA_MAX, 1000)))

    def run(policy):
        for theta, omega in states:
            policy.act(theta, omega, rng)

    return {"learned": per_call(lambda: run(learned), len(states), repeats),
            "random": per_call(lambda: run(rand), len(states), repeats)}


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn() runs, by tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_memory(spec, points, shift, queries) -> dict:
    from cmereg.embedding import ridge_coefficients
    from cmereg.kernels import cross_gram, gram

    n = len(points)
    K, B = gram(spec, points), cross_gram(spec, points, queries)
    runs = {"gram": lambda: gram(spec, points), "ridge_inverse": lambda: ridge_coefficients(spec, K, shift),
            "ridge_solve": lambda: ridge_coefficients(spec, K, shift, B)}
    return {name: round(traced_peak(run) / (8 * n * n), 3) for name, run in runs.items()}


def pendulum_memory(n: int) -> dict:
    """The tracemalloc peak of the pendulum command's body on n transitions, in n^2 floats."""
    import tempfile
    from cmereg import cli

    cfg = cli._fill({"n": n, "seed": 1, "sweeps": 2, "episodes": 1, "horizon": 1}, cli.SCHEMAS["pendulum"])
    with tempfile.TemporaryDirectory() as out:
        return {"pendulum": round(traced_peak(lambda: cli.run_pendulum(cfg, out)) / (8 * n * n), 3)}


def rate_memory() -> dict:
    from cmereg.embedding import fit
    from cmereg.kernels import KernelSpec
    from cmereg.ratecheck import DiscreteDistribution, rate_experiment, sample

    dist = DiscreteDistribution(*ORACLE)
    n, spec = RATE_GRID[0][-1], KernelSpec("delta")
    model = fit(sample(dist, n, 0), spec, spec, n**-0.5)
    gram_bytes = model.kgram.nbytes + model.lgram.nbytes
    peak = traced_peak(lambda: rate_experiment(dist, *RATE_GRID))
    return {"peak_mb": round(peak / 1e6, 2), "models": round(peak / gram_bytes, 3)}


# One rate_experiment in a fresh process importing cmereg from argv[1], on one BLAS thread
# as the CLI runs it, with the CLI's heap setting if argv[2] is 1; prints its wall time
# and minor page faults as JSON.
_RATE_FAULTS_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cmereg import cli, linalg
from cmereg.ratecheck import DiscreteDistribution, rate_experiment
if sys.argv[2] == "1":
    cli._keep_freed_pages()
dist = DiscreteDistribution(*json.loads(sys.argv[3]))
with linalg.blas_threads(1):
    faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    rate_experiment(dist, *json.loads(sys.argv[4]))
    wall = time.perf_counter() - start
print(json.dumps({"ms": 1e3 * wall, "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}))
"""


def rate_faults(src: str, repeats: int) -> dict:
    runs = {"kept": [], "defaults": []}
    for _ in range(repeats):
        for name, flag in (("kept", "1"), ("defaults", "0")):  # alternating, so drift hits both alike
            child = subprocess.run([sys.executable, "-c", _RATE_FAULTS_CHILD, src, flag, json.dumps(ORACLE),
                                    json.dumps(RATE_GRID)], capture_output=True, text=True, check=True)
            runs[name].append(json.loads(child.stdout))
    return {name: {f"{key}_{stat}": round(f([r[key] for r in rs]), 2) for key in ("ms", "minflt")
                   for stat, f in (("min", min), ("median", statistics.median), ("max", max))}
            for name, rs in runs.items()}


# Import cmereg.cli from argv[1] in a fresh process argv[2] seconds after numpy, then run
# 64 x 64 dgemm calls on one BLAS thread for 50 ms; prints the import's wall and CPU and
# the loop's CPU minus wall, in milliseconds, as JSON.
_CLI_IMPORT_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
time.sleep(float(sys.argv[2]))

def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

cpu0, start = cpu(), time.perf_counter()
import cmereg.cli
wall, used = time.perf_counter() - start, cpu() - cpu0
from cmereg import linalg
A = np.ones((64, 64))
with linalg.blas_threads(1):
    cpu0, start = cpu(), time.perf_counter()
    while time.perf_counter() - start < 0.05:
        linalg.blas.dgemm(1.0, A, A)
    spin = (cpu() - cpu0) - (time.perf_counter() - start)
print(json.dumps({"import_ms": 1e3 * wall, "import_cpu_ms": 1e3 * used, "dgemm_spin_ms": 1e3 * spin}))
"""


def cli_import(src: str, repeats: int) -> dict:
    result = {}
    for name, pause in (("right_after_numpy", "0"), ("numpy_settled", "0.3")):
        runs = [json.loads(subprocess.run([sys.executable, "-c", _CLI_IMPORT_CHILD, src, pause], capture_output=True,
                                          text=True, check=True).stdout) for _ in range(repeats)]
        result[name] = {f"{key[:-3]}_{stat}_ms": round(f([r[key] for r in runs]), 2) for key in runs[0]
                        for stat, f in (("min", min), ("median", statistics.median), ("max", max))}
    return result


def fista_per_gamma(repeats: int) -> dict:
    from cmereg import pendulum, sparse
    from cmereg.embedding import fit
    from cmereg.kernels import KernelSpec
    from cmereg.sparse import SparseProblem, fista_solve

    train = pendulum.collect_dataset(pendulum.PendulumParams(), 120, 0)
    model = fit(train, KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 1.5), 1e-2)
    dgemm = sparse.blas.dgemm
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return dgemm(*args, **kwargs)

    result, start = {}, None
    for gamma in GAMMAS:
        problem = SparseProblem(model.kgram, model.lgram, model.W, gamma)
        solve = partial(fista_solve, problem, max_iter=8000, start=start)
        calls.clear()
        sparse.blas.dgemm = counted
        try:
            sol = solve()
        finally:
            sparse.blas.dgemm = dgemm
        products = len(calls) // 2
        result[f"{gamma:g}"] = {"iterations": sol.iterations, "products": products,
                                **per_call(solve, products, repeats)}
        start = sol.M
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to import cmereg from")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--label", default="run", help="key of this result in --out")
    parser.add_argument("--out", help="JSON file to store the result in, under --label")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy as np
    from cmereg import linalg
    from cmereg.embedding import TrainingSet, alpha_batch, fit, ridge_coefficients
    from cmereg.kernels import KernelSpec, gram

    rng = np.random.default_rng(0)
    cases = {}
    with linalg.blas_threads(1):  # the CLI's thread count
        for n in SIZES:
            setups = {
                "gaussian": (KernelSpec("gaussian", 2.0), rng.standard_normal((n, 4)), 1e-3 * n,
                             rng.standard_normal((80, 4))),
                "delta": (KernelSpec("delta"), rng.integers(0, 4, n), n**0.5, np.arange(4)),
            }
            for variant, (spec, points, shift, queries) in setups.items():
                train = TrainingSet(points, points)
                case = cases[f"{variant}-{n}"] = {"gram": timed(lambda: gram(spec, points), args.repeats)}
                if variant == "gaussian":
                    K = gram(spec, points)
                    case["ridge_inverse"] = timed(lambda: ridge_coefficients(spec, K, shift), args.repeats)
                    if n < 1600:
                        case["dense_memory"] = dense_memory(spec, points, shift, queries)
                case["fit"] = timed(lambda: fit(train, spec, spec, shift / n), args.repeats)
                case["fit_then_score"] = timed(
                    lambda: alpha_batch(fit(train, spec, spec, shift / n), queries), args.repeats)
                if variant == "delta":  # its own generator: rng, and so every other case's points, stays as it was
                    distinct = np.random.default_rng(n).permutation(n)
                    case["gram_distinct"] = timed(lambda: gram(spec, distinct), args.repeats)
        cases["pendulum-400"] = {"dense_memory": pendulum_memory(400)}
        cases["pendulum-800"] = {"rollout_step": rollout_step(args.repeats), "dense_memory": pendulum_memory(800)}
        cases["fista-120"] = {"fista_per_gamma": fista_per_gamma(args.repeats)}
        cases["rate-delta"] = {"rate_memory": rate_memory(), "rate_faults": rate_faults(src, args.repeats)}
    cases["cli_import"] = cli_import(src, args.repeats)
    cases["blas_threads"] = blas_thread_counts(args.repeats)
    result = {"provenance": provenance(src), "repeats": args.repeats, "case_threads": 1, "cases": cases}
    print(json.dumps(result, indent=1))
    if args.out:
        stored = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                stored = json.load(fh)
        stored[args.label] = result
        with open(args.out, "w") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
