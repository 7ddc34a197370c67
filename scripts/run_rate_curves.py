#!/usr/bin/env python3
"""Excess-risk decay of the embedding estimator on a 4x4 discrete oracle.

For each sample size the estimator is refit with lambda_n = n^{-1/2} and its
excess surrogate risk is computed exactly, as the p(x)-weighted squared
distance of its conditional table to p(y|x). Writes
rate.csv (per n, per seed) and slope.txt with the fitted log-log slope.
"""

import argparse
import json
import sys
import tempfile

from cmereg.cli import main as cli_main


def build_config(args):
    return {
        "x_symbols": ["a", "b", "c", "d"],
        "y_symbols": ["u", "v", "w", "x"],
        "px": [0.4, 0.3, 0.2, 0.1],
        "pyx": [
            [0.70, 0.10, 0.10, 0.10],
            [0.20, 0.50, 0.20, 0.10],
            [0.10, 0.20, 0.60, 0.10],
            [0.25, 0.25, 0.25, 0.25],
        ],
        "n_grid": args.n_grid,
        "seeds": list(range(args.seeds)),
        "schedule": {"a": 1.0, "beta": 0.5},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-grid", type=int, nargs="+", default=[50, 200, 800, 3200])
    parser.add_argument("--seeds", type=int, default=20, help="number of repetitions per n")
    parser.add_argument("--out", default="results/rate")
    args = parser.parse_args()
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(build_config(args), fh)
        fh.flush()
        return cli_main(["rate", "--config", fh.name, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
