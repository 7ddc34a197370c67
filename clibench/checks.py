"""Checks on the CSVs each CLI command wrote, independent of the library.

check(command, config_path, out_dir) returns a list of problems (empty when
the outputs are right) and a dict of facts worth printing. The rate check
recomputes every excess risk from the same seeded sample with the delta-kernel
closed form alpha_i(x) = 1[x_i = x] / (c_x + lambda n).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# rate.csv holds 12 significant digits; the dense solve adds far less error.
RATE_RTOL, RATE_ATOL = 1e-9, 1e-12


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(rows, skip=()) -> bool:
    return all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k not in skip)


def closed_form_excess(cfg: dict, n: int, seed: int) -> float:
    """Exact excess surrogate risk of the delta-kernel ridge fit on cmereg's seeded sample."""
    px, pyx = np.asarray(cfg["px"], dtype=float), np.asarray(cfg["pyx"], dtype=float)
    schedule = cfg.get("schedule", {})
    lam = schedule.get("a", 1.0) * n ** (-schedule.get("beta", 0.5))
    rng = np.random.default_rng(seed)  # the draw order of cmereg.ratecheck.sample
    xi = rng.choice(len(px), size=n, p=px)
    yi = (rng.random(n)[:, None] > np.cumsum(pyx, axis=1)[xi]).sum(axis=1)
    counts = np.zeros(pyx.shape)
    np.add.at(counts, (xi, yi), 1.0)
    table = counts / (counts.sum(axis=1, keepdims=True) + lam * n)
    risk = px @ (np.sum(table**2, axis=1) - 2.0 * np.sum(pyx * table, axis=1) + 1.0)
    base = px @ (1.0 - np.sum(pyx**2, axis=1))
    return max(float(risk - base), 0.0)


def _rate(cfg, out):
    problems = []
    rows = _rows(os.path.join(out, "rate.csv"))
    expected = [(n, s) for n in cfg["n_grid"] for s in cfg["seeds"]]
    if [(int(r["n"]), int(r["seed"])) for r in rows] != expected:
        problems.append("rate.csv rows do not cover n_grid x seeds in order")
    worst = 0.0
    for r in rows:
        got, ref = float(r["excess"]), closed_form_excess(cfg, int(r["n"]), int(r["seed"]))
        err = abs(got - ref)
        worst = max(worst, err / max(abs(ref), 1e-300))
        if not err <= RATE_RTOL * abs(ref) + RATE_ATOL:
            problems.append(f"rate n={r['n']} seed={r['seed']}: excess {got} != closed form {ref}")
    with open(os.path.join(out, "slope.txt")) as fh:
        slope = float(fh.read().strip().split("=", 1)[1])
    if not math.isfinite(slope):
        problems.append(f"rate slope {slope} is not finite")
    return problems, {"slope": slope, "max_rel_err": worst}


def _criterion7_wins(lasso, chol) -> int:
    """Matched interior sparsity levels where the lasso beats incomplete Cholesky."""
    wins = 0
    for l_nnz, l_kl in lasso:
        if not 0.005 <= l_nnz <= 0.95:
            continue
        matched = [c_kl for c_nnz, c_kl in chol if abs(c_nnz - l_nnz) <= 0.02 and 0.005 <= c_nnz <= 0.95]
        if matched and l_kl < min(matched):
            wins += 1
    return wins


def _compare(cfg, out):
    problems = []
    rows = _rows(os.path.join(out, "compare.csv"))
    if not _finite(rows, skip=("method",)):
        problems.append("compare.csv has a non-finite value")
    if any(not 0.0 <= float(r["nnz_fraction"]) <= 1.0 for r in rows):
        problems.append("compare.csv nnz_fraction outside [0, 1]")
    lasso = [(float(r["nnz_fraction"]), float(r["kl_distance"])) for r in rows if r["method"] == "lasso"]
    chol = [(float(r["nnz_fraction"]), float(r["kl_distance"])) for r in rows if r["method"] == "cholesky"]
    if len(lasso) != len(cfg["gammas"]) or len(chol) != len(cfg["ranks"]):
        problems.append("compare.csv does not have one row per gamma and per rank")
    kl = [d for _, d in lasso]
    if any(b < a for a, b in zip(kl, kl[1:])):
        problems.append(f"lasso kl_distance decreases as gamma grows: {kl}")
    return problems, {"criterion7_wins": _criterion7_wins(lasso, chol)}


def _cv(cfg, out):
    problems = []
    rows = _rows(os.path.join(out, "cv.csv"))
    grid = len(cfg["lambdas"]) * len(cfg.get("bandwidths", [None]))
    if len(rows) != grid * cfg["folds"]:
        problems.append("cv.csv does not have one row per grid point and fold")
    errors = [float(r["error"]) for r in rows]
    if not all(math.isfinite(e) and e >= 0.0 for e in errors):
        problems.append("cv.csv has an error that is negative or not finite")
    best = {r["grid_index"] for r in rows if r["best"] == "1"}
    if len(best) != 1 or sum(r["best"] == "1" for r in rows) != cfg["folds"]:
        problems.append(f"cv.csv marks grid points {sorted(best)} best, not exactly one")
    return problems, {"best": sorted(best)}


def _fit(cfg, out):
    problems = []
    summary = _rows(os.path.join(out, "summary.csv"))[0]
    if summary["bound_ok"] != "1":
        problems.append(f"fit: ||W|| {summary['w_opnorm']} above bound {summary['w_opnorm_bound']}")
    if not _finite(_rows(os.path.join(out, "coefficients.csv"))):
        problems.append("fit: coefficients.csv has a non-finite value")
    return problems, {}


def _pendulum(cfg, out):
    returns = {r["policy"]: float(r["mean_return"]) for r in _rows(os.path.join(out, "returns.csv"))}
    problems = []
    if not returns["learned"] > returns["random"]:
        problems.append(f"pendulum: learned return {returns['learned']} does not beat random {returns['random']}")
    return problems, returns


CHECKS = {"rate": _rate, "compare": _compare, "cv": _cv, "fit": _fit, "pendulum": _pendulum}


def check(command: str, config_path: str, out: str):
    with open(config_path) as fh:
        cfg = json.load(fh)
    try:
        return CHECKS[command](cfg, out)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"], {}
