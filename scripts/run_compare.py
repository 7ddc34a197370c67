#!/usr/bin/env python3
"""Sparse-coefficient lasso vs incomplete-Cholesky baseline on pendulum data.

Writes compare.csv (method, sparsity_level, nnz_fraction, kl_distance,
test_risk, converged, gap) ready for plotting approximation error against sparsity.
"""

import argparse
import json
import sys
import tempfile

from cmereg.cli import main as cli_main


def build_config(args):
    return {
        "pendulum": {"n": args.n, "n_test": args.n_test},
        "lambda": 1e-2,
        "x_bandwidth": 2.0,
        "y_bandwidth": 1.5,
        "gammas": [1.6e-4, 5e-4, 1.6e-3, 5e-3, 1.6e-2, 5e-2, 0.159],
        "ranks": [r for r in (10, 25, 40, 60, 80, 110, 140) if r <= args.n],
        "seed": args.seed,
        "max_iter": 8000,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="training transitions")
    parser.add_argument("--n-test", type=int, default=300, help="held-out transitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/compare")
    args = parser.parse_args()
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(build_config(args), fh)
        fh.flush()
        return cli_main(["compare", "--config", fh.name, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
