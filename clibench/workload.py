"""One workload in a fresh process: generate its inputs, then run its CLI sequence.

    PYTHONPATH=src python3 clibench/workload.py --workload NAME --seed N --work DIR \
        [--trace FILE] [--setup-only]

run.py starts this script once per repetition. Everything the library sees
is a JSON config or CSV file written under DIR from the seed; each
operation is one call of the public entry point ``cmereg.cli.main``. The
script writes DIR/result.json: the monotonic time at which set-up ended,
each operation's exit code and wall time, the command sequence's wall and CPU time, the
process's peak resident set, and the BLAS build it ran on. With --trace the
public functions of cmereg are wrapped first (see tracer.py) and their spans
are written to FILE after the last operation.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The 4x4 discrete oracle of acceptance criterion 5.
PX = [0.4, 0.3, 0.2, 0.1]
PYX = [
    [0.70, 0.10, 0.10, 0.10],
    [0.20, 0.50, 0.20, 0.10],
    [0.10, 0.20, 0.60, 0.10],
    [0.25, 0.25, 0.25, 0.25],
]
# The gammas of acceptance criterion 7.
GAMMAS = [1.6e-4, 5e-4, 1.6e-3, 5e-3, 1.6e-2, 5e-2, 0.159]


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def pendulum_rows(n: int, rng) -> np.ndarray:
    """n pendulum transitions with uniform random state and torque, one per row:
    sin, cos, omega, torque, then sin, cos, omega after one step.

    Same dynamics, default parameters and draw order as
    cmereg.pendulum.collect_dataset (semi-implicit Euler, dt=0.1, friction
    0.05, |torque| <= 5, |omega| <= 7), computed here so the library only
    ever reads the finished CSV.
    """
    dt, friction, omega_max, torque_max = 0.1, 0.05, 7.0, 5.0
    theta = rng.uniform(-math.pi, math.pi, n)
    omega = rng.uniform(-omega_max, omega_max, n)
    torque = rng.uniform(-torque_max, torque_max, n)
    acc = 9.81 * np.sin(theta) + (torque - friction * omega)
    omega2 = np.clip(omega + dt * acc, -omega_max, omega_max)
    theta2 = (theta + dt * omega2 + math.pi) % (2.0 * math.pi) - math.pi
    return np.column_stack([np.sin(theta), np.cos(theta), omega, torque,
                            np.sin(theta2), np.cos(theta2), omega2])


def write_pendulum_csv(path: str, rows: np.ndarray) -> str:
    with open(path, "w") as fh:
        fh.write("x0,x1,x2,x3,y0,y1,y2\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return path


def rate_delta(work: str, seed: int):
    """Criterion-5 rate study, n up to 1600: dense delta-kernel fits."""
    cfg = {
        "x_symbols": ["a", "b", "c", "d"],
        "y_symbols": ["u", "v", "w", "x"],
        "px": PX,
        "pyx": PYX,
        "n_grid": [50, 200, 800, 1600],
        "seeds": [10 * seed + i for i in range(10)],
        "schedule": {"a": 1.0, "beta": 0.5},
    }
    return [("rate", _write_json(os.path.join(work, "rate.json"), cfg))]


def sparsify_pendulum(work: str, seed: int):
    """Criterion 7 at n=120: one small fit, seven FISTA solves, six refits.

    FISTA's iteration count depends on the data (about 19,000 to 26,000 over
    fresh draws), so the data are fixed draws with criterion 7's seeds
    (train 0, test 1) and the workload seed shuffles their rows: different
    input files, the same problem up to rounding.
    """
    order = np.random.default_rng(seed)
    train_rows = pendulum_rows(120, np.random.default_rng(0))[order.permutation(120)]
    test_rows = pendulum_rows(300, np.random.default_rng(1))[order.permutation(300)]
    train = write_pendulum_csv(os.path.join(work, "train.csv"), train_rows)
    test = write_pendulum_csv(os.path.join(work, "test.csv"), test_rows)
    cfg = {
        "dataset": {"train": train, "test": test},
        "lambda": 1e-2,
        "x_bandwidth": 2.0,
        "y_bandwidth": 1.5,
        "gammas": GAMMAS,
        "ranks": [10, 25, 40, 60, 80, 110],
        "seed": seed,
        "max_iter": 8000,
    }
    return [("compare", _write_json(os.path.join(work, "compare.json"), cfg))]


def plan_pendulum(work: str, seed: int):
    """CV grid and one fit on a 400-transition CSV, then a planning run."""
    data = write_pendulum_csv(os.path.join(work, "data.csv"), pendulum_rows(400, np.random.default_rng(seed)))
    cv = {
        "dataset": data,
        "lambdas": [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2],
        "bandwidths": [1.0, 2.0, 4.0],
        "folds": 5,
        "seed": seed,
        "x_kernel": {"variant": "gaussian", "bandwidth": 1.0},
        "y_kernel": {"variant": "gaussian", "bandwidth": 1.5},
    }
    fit = {
        "dataset": data,
        "lambda": 1e-3,
        "x_kernel": {"variant": "gaussian", "bandwidth": 2.0},
        "y_kernel": {"variant": "gaussian", "bandwidth": 1.5},
    }
    plan = {"n": 800, "seed": seed, "sweeps": 80, "episodes": 100, "horizon": 100}
    return [
        ("cv", _write_json(os.path.join(work, "cv.json"), cv)),
        ("fit", _write_json(os.path.join(work, "fit.json"), fit)),
        ("pendulum", _write_json(os.path.join(work, "pendulum.json"), plan)),
    ]


WORKLOADS = {
    "rate-delta": rate_delta,
    "sparsify-pendulum": sparsify_pendulum,
    "plan-pendulum": plan_pendulum,
}

# Command-sequence seconds of each workload on a 2-core SkylakeX VM with
# OpenBLAS 0.3.31 (2 threads); run.py makes round(--seconds / NOMINAL_S)
# repetitions, so --seconds sets the run length and two commits run alike.
NOMINAL_S = {"rate-delta": 6.5, "sparsify-pendulum": 11.0, "plan-pendulum": 12.5}

# Call counts the configs above imply; a traced run that sees fewer missed a binding.
EXPECTED_CALLS = {
    "rate-delta": {"embedding.fit": 40, "linalg.solve_spd": 40, "kernels.gram": 80},
    "sparsify-pendulum": {"sparse.fista_solve": 7, "linalg.solve_spd": 7, "linalg.sym_eig_max": 14},
    "plan-pendulum": {"embedding.fit": 92, "pendulum.Policy.act": 10000},
}


def blas_info() -> list:
    """Build string and thread count of each OpenBLAS that numpy and scipy bundle."""
    found = []
    for pkg in ("numpy", "scipy"):
        mod = sys.modules[pkg]
        pattern = os.path.join(os.path.dirname(mod.__file__), os.pardir, pkg + ".libs", "*openblas*.so*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
                threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
                    break
            found.append(entry)
    return found


def _cpu_s() -> float:
    """User plus system CPU of this process, all its threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(cli, command: str, config: str, out: str) -> int:
    try:
        return cli.main([command, "--config", config, "--out", out])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is an operation result, not a harness failure
        traceback.print_exc()
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = os.path.abspath(args.work)
    ops = WORKLOADS[args.workload](work, args.seed)

    from cmereg import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"cmereg imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}")
        tracer.install()
    result = {"ready": time.monotonic(), "ops": []}
    if not args.setup_only:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for i, (command, config) in enumerate(ops):
            out = os.path.join(work, "out", f"{i}-{command}")
            start = time.perf_counter()
            code = run_op(cli, command, config, out)
            result["ops"].append({"command": command, "config": config, "out": out, "exit": code,
                                  "wall_s": time.perf_counter() - start})
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": sys.modules["scipy"].__version__}
    result["blas"] = blas_info()
    if tracer is not None:
        tracer.write(args.trace)
    _write_json(os.path.join(work, "result.json"), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
