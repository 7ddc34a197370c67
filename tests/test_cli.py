import csv
import ctypes
import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmereg import cli, pendulum, ratecheck
from cmereg.cli import COMMANDS, SCHEMAS, main, read_dataset, write_csv
from cmereg.linalg import blas_threads
from cmereg.pendulum import PendulumParams, collect_dataset
from cmereg.ratecheck import RateResult, rate_slope

from oracles import openblas_pool_threads, traced_peak


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_dataset(path, xs, ys):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] == 1:
        xs = xs.T
    if ys.shape[0] == 1:
        ys = ys.T
    header = [f"x{i}" for i in range(xs.shape[1])] + [f"y{j}" for j in range(ys.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for xr, yr in zip(xs, ys):
            w.writerow(list(xr) + list(yr))
    return str(path)


def random_dataset(path, n=20, seed=0):
    rng = np.random.default_rng(seed)
    return write_dataset(path, rng.uniform(0, 3, (n, 2)), rng.uniform(0, 3, (n, 2)))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cmereg_child(*argvs, threads=1, prelude=""):
    """Run each argv through cli.main in one fresh Python process, which imports this
    cmereg, runs OpenBLAS on `threads` threads, executes `prelude` first and stops at the
    first nonzero exit code. The captured stderr shows numpy's warnings too."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys\nfrom cmereg import cli\n" + prelude
            + "\nfor argv in json.loads(sys.argv[1]):\n    if code := cli.main(argv):\n        sys.exit(code)\n")
    return subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, env=env)


@pytest.fixture
def tiny_dataset(tmp_path):
    return write_dataset(tmp_path / "data.csv", [0.0, 0.5, 1.0, 1.5, 2.0],
                         [0.1, 0.4, 1.1, 1.6, 1.9])


GAUSS = {"variant": "gaussian", "bandwidth": 1.0}


def keep_full_precision(write_csv):
    """write_csv that also saves each array it writes as <path>.npy: the CSV keeps 12 digits."""
    def write(path, header, rows):
        write_csv(path, header, rows)
        if isinstance(rows, np.ndarray):
            np.save(path + ".npy", rows)
    return write


# (OpenBLAS threads, prelude) of each variant's fresh process: one change against the reference
BYTE_VARIANTS = {
    "2_threads": (2, ""),
    "glibc_heap": (1, "cli._keep_freed_pages = lambda: None\n"),  # glibc's default thresholds
}


@pytest.fixture(scope="module")
def byte_matrix(tmp_path_factory):
    """Root of the --out trees of all six commands: under reference/, run in this process on one
    thread with freed heap pages kept; under <variant>/, run in one fresh process per variant.
    Returns (root, {variant: process})."""
    root = tmp_path_factory.mktemp("bytes")
    d300, d60 = random_dataset(root / "d300.csv", n=300, seed=6), random_dataset(root / "d60.csv", n=60, seed=7)
    configs = {
        "fit": {"dataset": d300, "lambda": 1e-3, "x_kernel": GAUSS, "y_kernel": GAUSS},
        "cv": {"dataset": d300, "lambdas": [1e-3, 1e-2], "bandwidths": [0.5, 1.0], "folds": 3, "seed": 0,
               "x_kernel": GAUSS, "y_kernel": GAUSS},
        "sparsify": {"dataset": d60, "test_dataset": random_dataset(root / "t30.csv", n=30, seed=107),
                     "penalty": "row_group", "lambda": 1e-2, "gammas": [1e-3, 1e-2],
                     "x_kernel": GAUSS, "y_kernel": GAUSS},
        "compare": {"pendulum": {"n": 60, "n_test": 30}, "lambda": 1e-2, "gammas": [1e-3, 1e-2],
                    "ranks": [5, 20], "seed": 0},
        "rate": {"px": [0.4, 0.3, 0.2, 0.1],
                 "pyx": [[0.7, 0.1, 0.1, 0.1], [0.2, 0.5, 0.2, 0.1], [0.1, 0.2, 0.6, 0.1], [0.25, 0.25, 0.25, 0.25]],
                 "n_grid": [100, 200, 400], "seeds": [0, 1]},
        "pendulum": {"n": 300, "seed": 1, "episodes": 10, "horizon": 50},
    }
    paths = {command: write_config(root, cfg, command + ".json") for command, cfg in configs.items()}

    def argvs(variant):
        return [[command, "--config", path, "--out", str(root / variant / command)] for command, path in paths.items()]

    save = ("import numpy as np\n" + inspect.getsource(keep_full_precision)
            + "cli.write_csv = keep_full_precision(cli.write_csv)\n")
    with ThreadPoolExecutor(len(BYTE_VARIANTS)) as pool:  # the children run while this process does
        children = {variant: pool.submit(cmereg_child, *argvs(variant), threads=threads, prelude=save + prelude)
                    for variant, (threads, prelude) in BYTE_VARIANTS.items()}
        with pytest.MonkeyPatch.context() as mp, blas_threads(1):  # one thread whatever the environment
            mp.setattr(cli, "write_csv", keep_full_precision(cli.write_csv))
            assert [main(argv) for argv in argvs("reference")] == [0] * len(configs)
        return root, {variant: child.result() for variant, child in children.items()}


def assert_same_out_tree(byte_matrix, command, variant):
    """The --out tree of `command` in the fresh process of `variant` is the reference's, byte for byte."""
    root, procs = byte_matrix
    assert (procs[variant].returncode, procs[variant].stderr) == (0, "")
    reference, tree = ({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))}
                       for out in (root / "reference" / command, root / variant / command))
    assert reference and tree == reference


class TestFit:
    def test_smoke(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0.1,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS})
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 1
        assert rows[0]["n"] == "5"
        assert rows[0]["bound_ok"] == "1"
        coef = read_rows(out / "coefficients.csv")
        assert len(coef) == 5 and len(coef[0]) == 5

    def test_lambda_zero_rejected(self, tmp_path, tiny_dataset, capsys):
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        cfg = write_config(tmp_path, {"dataset": str(tmp_path / "nope.csv"), "lambda": 0.1,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0.1,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS, "lamda": 0.2})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_non_finite_w_keeps_scipy_eighs_value_error(self, tmp_path, tiny_dataset, monkeypatch, capsys):
        # the id is older than the behaviour: sym_eig_max raised scipy eigh's ValueError for a
        # non-finite matrix, which main mapped to no exit (a traceback, exit 1); it now raises
        # NumericalError, exit 3
        real_fit = cli.embedding.fit

        def fit_with_nan(*args):
            model = real_fit(*args)
            W = model.W.copy()
            W[0, 0] = np.nan
            return model.with_coefficients(W)

        monkeypatch.setattr(cli.embedding, "fit", fit_with_nan)
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0.1,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == ["numeric failure: A has a non-finite entry: no eigenvalues"]

    @staticmethod
    def exits_three_with_one_line(tmp_path, capsys, cfg, lines):
        """fit, then sparsify at gamma 0.1, on cfg: each exits 3 with no numpy warning and
        prints one stderr line, lines[command]."""
        for command, extra in (("fit", {}), ("sparsify", {"gammas": [0.1]})):
            path = write_config(tmp_path, {**cfg, **extra})
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the test
                assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 3
            assert capsys.readouterr().err.splitlines() == [lines[command]], command

    def test_overflowing_ridge_inverse_exits_three(self, tmp_path, capsys):
        # K = [[0, 0], [0, 1]] and lambda*n = 2e-310, so (K + 2e-310 I)^{-1} holds 1/2e-310 = inf. The
        # dense inverse passed it on: fit died in sym_eig_max with a traceback (exit 1), and sparsify
        # called it a config error (exit 2)
        data = write_dataset(tmp_path / "two.csv", [0.0, 1.0], [0.0, 1.0])
        line = "numeric failure: ridge system with shift 2e-310 has a non-finite solution"
        self.exits_three_with_one_line(tmp_path, capsys, {
            "dataset": data, "lambda": 1e-310, "x_kernel": {"variant": "linear"},
            "y_kernel": {"variant": "linear"}}, {"fit": line, "sparsify": line})

    def test_overflowing_mean_loss_exits_three(self, tmp_path, capsys):
        # each point's loss is finite, near 1e308, and their sum overflows: fit wrote train_risk=inf
        # and sparsify test_risk=inf, each with numpy's overflow warning, and both exited 0
        data = write_dataset(tmp_path / "big.csv", [1.0, 2.0, 3.0], [1e154, -1e154, 5e153])
        risk = "mean loss inf over 3 test points is not finite"
        self.exits_three_with_one_line(tmp_path, capsys, {
            "dataset": data, "lambda": 1.0, "x_kernel": GAUSS, "y_kernel": {"variant": "linear"}},
            {"fit": f"numeric failure: {risk}", "sparsify": f"numeric failure: gamma=0.1: {risk}"})

    def test_singular_system_exits_three(self, tmp_path):
        # linear kernel on identical points: the ridge shift underflows into
        # the all-ones Gram matrix, so the factorization hits a zero pivot
        data = write_dataset(tmp_path / "dup.csv", [1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        cfg = write_config(tmp_path, {"dataset": data, "lambda": 1e-18,
                                      "x_kernel": {"variant": "linear"},
                                      "y_kernel": {"variant": "linear"}})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_clustered_spectrum_fit_exits_zero(self, tmp_path):
        # W W^T of this fit has its top eigenvalues within ~1e-5 of each other
        from cmereg.pendulum import PendulumParams, collect_dataset

        data = collect_dataset(PendulumParams(), 400, 0)
        path = write_dataset(tmp_path / "pend.csv", data.xs, data.ys)
        cfg = write_config(tmp_path, {"dataset": path, "lambda": 1e-3,
                                      "x_kernel": {"variant": "gaussian", "bandwidth": 2.0},
                                      "y_kernel": {"variant": "gaussian", "bandwidth": 1.5}})
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        assert read_rows(out / "summary.csv")[0]["bound_ok"] == "1"
        assert len(read_rows(out / "coefficients.csv")) == 400

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_dataset_exits_two(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,y0\n0.0,0.1\n1.0,{bad}\n2.0,1.9\n")
        cfg = write_config(tmp_path, {"dataset": str(path), "lambda": 0.1,
                                      "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_delta_kernels_on_csv(self, tmp_path):
        rows = np.random.default_rng(5).integers(0, 2, size=(30, 3)).astype(float)
        path = write_dataset(tmp_path / "sym.csv", rows[:, :2], rows[:, 2:])
        delta = {"variant": "delta"}
        cfg = write_config(tmp_path, {"dataset": path, "lambda": 0.1,
                                      "x_kernel": delta, "y_kernel": delta})
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        assert read_rows(out / "summary.csv")[0]["bound_ok"] == "1"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_w_opnorm_is_spectral_norm(self, tmp_path, monkeypatch, seed):
        # the fit of the plan-pendulum benchmark workload: n=400 pendulum transitions, lambda 1e-3
        train = collect_dataset(PendulumParams(), 400, seed)
        data = write_dataset(tmp_path / "data.csv", train.xs, train.ys)
        cfg = write_config(tmp_path, {"dataset": data, "lambda": 1e-3,
                                      "x_kernel": {"variant": "gaussian", "bandwidth": 2.0},
                                      "y_kernel": {"variant": "gaussian", "bandwidth": 1.5}})
        written = {}
        monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: written.update(
            {os.path.basename(path): (list(header), rows)}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, rows = written["summary.csv"]
        opnorm = rows[0][header.index("w_opnorm")]
        exact = np.linalg.norm(written["coefficients.csv"][1], 2)
        assert abs(opnorm - exact) <= 1e-12 * exact

    def test_delta_fit_at_tiny_lambda_scores_through_alpha(self, tmp_path, monkeypatch, capsys):
        # train_risk once came from W k_x, whose entries of size 1/(lambda n) cancel: at these
        # lambdas it wrote 0.656832 (1e-15), 1.28e167 (1e-100) or nan with numpy warnings (1e-300);
        # ||W|| sits a few ulps above the bound 1/(lambda n), and the absolute slack alone wrote bound_ok=0
        rng = np.random.default_rng(5)
        xs, ys = rng.integers(0, 7, 300), rng.integers(0, 3, 300)
        data = write_dataset(tmp_path / "codes.csv", xs, ys)
        written = {}
        monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: written.update({path: (header, rows)}))
        for lam in (1e-12, 1e-15, 1e-100, 1e-300):
            cfg = write_config(tmp_path, {"dataset": data, "lambda": lam, "x_kernel": {"variant": "delta"},
                                          "y_kernel": {"variant": "delta"}})
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the test
                assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err == ""
            header, rows = written[str(tmp_path / "summary.csv")]
            row = dict(zip(header, rows[0]))
            # exact: mu(x) = counts(x, .)/(c + s), s = lambda n, so point (x, y) loses 1 - 2 mu_y + ||mu||^2
            s, risk = Fraction(lam * 300), Fraction(0)
            for x in range(7):
                counts = [Fraction(int(np.sum((xs == x) & (ys == y)))) for y in range(3)]
                mu = [k / (sum(counts) + s) for k in counts]
                risk += sum(k * (1 - 2 * m + sum(v * v for v in mu)) for k, m in zip(counts, mu))
            assert row["train_risk"] == pytest.approx(float(risk / 300), rel=1e-12), lam
            assert row["w_opnorm_bound"] == 1.0 / (lam * 300)
            assert row["bound_ok"] == 1, (lam, row["w_opnorm"], row["w_opnorm_bound"])


    def test_w_agrees_across_blas_thread_counts(self, byte_matrix):
        # fit's W at full precision (keep_full_precision); main runs it on one thread per pool
        W = [np.load(byte_matrix[0] / v / "fit" / "coefficients.csv.npy") for v in ("reference", "2_threads")]
        assert W[0].shape == (300, 300)
        np.testing.assert_array_equal(*W)

class TestCv:
    def base_cfg(self, dataset):
        return {"dataset": dataset, "lambdas": [0.01, 0.1, 1.0], "folds": 3,
                "seed": 0, "x_kernel": GAUSS, "y_kernel": GAUSS}

    def test_single_point_grid(self, tmp_path, tiny_dataset):
        cfg = self.base_cfg(tiny_dataset)
        cfg["lambdas"] = [0.1]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["cv", "--config", path, "--out", str(out)]) == 0
        rows = read_rows(out / "cv.csv")
        assert all(r["grid_index"] == "0" and r["best"] == "1" for r in rows)
        assert len(rows) == 3  # one per fold

    def test_best_matches_sweep_oracle(self, tmp_path):
        data = random_dataset(tmp_path / "d.csv", n=30, seed=1)
        path = write_config(tmp_path, self.base_cfg(data))
        out = tmp_path / "out"
        assert main(["cv", "--config", path, "--out", str(out)]) == 0
        rows = read_rows(out / "cv.csv")
        means = {}
        for r in rows:
            means.setdefault(int(r["grid_index"]), []).append(float(r["error"]))
        means = {g: np.mean(v) for g, v in means.items()}
        best = {int(r["grid_index"]) for r in rows if r["best"] == "1"}
        assert len(best) == 1
        assert means[best.pop()] <= 1.1 * min(means.values())

    def test_non_finite_mean_fold_error_exits_three(self, tmp_path, capsys):
        # each fold error is finite, near 1e308, and their sum overflows: the run printed numpy's
        # overflow warning, let the inf mean pick the best grid point and exited 0
        data = write_dataset(tmp_path / "big.csv", [1.0, 2.0, 3.0], [1e154, -1e154, 5e153])
        cfg = write_config(tmp_path, {"dataset": data, "lambdas": [1.0], "folds": 3, "seed": 0,
                                      "x_kernel": GAUSS, "y_kernel": {"variant": "linear"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            assert main(["cv", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: mean fold error inf at grid point 0 is not finite"]
        assert os.listdir(tmp_path / "out") == []

    def test_folds_validation(self, tmp_path, tiny_dataset):
        cfg = self.base_cfg(tiny_dataset)
        cfg["folds"] = 1
        assert main(["cv", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        cfg["folds"] = 10  # only 5 samples
        assert main(["cv", "--config", write_config(tmp_path, cfg, "c2.json"), "--out", str(tmp_path)]) == 2


class TestSparsify:
    def test_smoke_and_schema(self, tmp_path):
        data = random_dataset(tmp_path / "d.csv", n=20, seed=2)
        cfg = write_config(tmp_path, {
            "dataset": data, "lambda": 0.1, "gammas": [0.001, 0.01, 0.1],
            "x_kernel": {"variant": "gaussian", "bandwidth": 0.3},
            "y_kernel": {"variant": "gaussian", "bandwidth": 0.3},
            "max_iter": 5000,
        })
        out = tmp_path / "out"
        assert main(["sparsify", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sparsify.csv")
        assert [float(r["gamma"]) for r in rows] == [0.001, 0.01, 0.1]
        kls = [float(r["kl_distance"]) for r in rows]
        assert kls == sorted(kls)
        assert [r["converged"] for r in rows] == ["1", "1", "1"]
        assert list(rows[0])[-2:] == ["converged", "gap"]
        assert all(0.0 < float(r["gap"]) < 1.0 for r in rows)

    def test_converged_column_reports_cap(self, tmp_path):
        data = random_dataset(tmp_path / "d.csv", n=20, seed=2)
        cfg = write_config(tmp_path, {
            "dataset": data, "lambda": 0.1, "gammas": [0.001, 0.01], "max_iter": 1,
            "x_kernel": {"variant": "gaussian", "bandwidth": 0.3},
            "y_kernel": {"variant": "gaussian", "bandwidth": 0.3},
        })
        out = tmp_path / "out"
        assert main(["sparsify", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sparsify.csv")
        assert [(r["iterations"], r["converged"]) for r in rows] == [("1", "0"), ("1", "0")]

    def test_rows_agree_across_blas_thread_counts(self, byte_matrix):
        # each l1 row stops on the stopping rule, at an iteration that rounding decides, so
        # identical rows need identical rounding paths under either thread count
        rows = [[r for r in read_rows(byte_matrix[0] / variant / "compare" / "compare.csv") if r["method"] == "lasso"]
                for variant in ("reference", "2_threads")]
        assert [r["converged"] for r in rows[0]] == ["1", "1"] and rows[0] == rows[1]

    def test_unsorted_gammas(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0.1,
                                      "gammas": [0.1, 0.01], "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["sparsify", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestCompare:
    def test_gamma_zero_full_rank(self, tmp_path):
        train = random_dataset(tmp_path / "train.csv", n=20, seed=3)
        test = random_dataset(tmp_path / "test.csv", n=10, seed=4)
        cfg = write_config(tmp_path, {
            "dataset": {"train": train, "test": test},
            "lambda": 0.1, "x_bandwidth": 0.3, "y_bandwidth": 0.3,
            "gammas": [0.0], "ranks": [20], "seed": 0, "max_iter": 20000,
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "compare.csv")
        assert list(rows[0]) == ["method", "sparsity_level", "nnz_fraction", "kl_distance", "test_risk",
                                 "converged", "gap"]
        assert {r["method"] for r in rows} == {"lasso", "cholesky"}
        for r in rows:
            assert float(r["kl_distance"]) <= 1e-6
            assert r["converged"] == "1"
            assert r["gap"] == "0"

    def test_capped_lasso_row_writes_zero(self, tmp_path):
        train = random_dataset(tmp_path / "train.csv", n=20, seed=3)
        test = random_dataset(tmp_path / "test.csv", n=10, seed=4)
        cfg = write_config(tmp_path, {
            "dataset": {"train": train, "test": test},
            "lambda": 0.1, "x_bandwidth": 0.3, "y_bandwidth": 0.3,
            "gammas": [0.0, 0.01], "ranks": [5], "seed": 0, "max_iter": 1,
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        converged = {(r["method"], float(r["sparsity_level"])): r["converged"]
                     for r in read_rows(out / "compare.csv")}
        assert converged == {("lasso", 0.0): "1", ("lasso", 0.01): "0", ("cholesky", 5.0): "1"}

    def test_gap_column(self, tmp_path):
        rows = self.run_compare(tmp_path, "compare", self.compare_config(tmp_path, gammas=[0.0, 0.001, 0.01]))
        gaps = {(r["method"], float(r["sparsity_level"])): float(r["gap"]) for r in rows}
        assert gaps[("lasso", 0.0)] == 0.0 and gaps[("cholesky", 5.0)] == 0.0
        assert 0.0 < gaps[("lasso", 0.001)] < 1.0 and 0.0 < gaps[("lasso", 0.01)] < 1.0

    def compare_config(self, tmp_path, **change):
        train = random_dataset(tmp_path / "train.csv", n=20, seed=3)
        test = random_dataset(tmp_path / "test.csv", n=10, seed=4)
        cfg = {"dataset": {"train": train, "test": test}, "lambda": 0.1, "x_bandwidth": 0.3,
               "y_bandwidth": 0.4, "gammas": [0.001, 0.01, 0.1], "ranks": [5], "seed": 0, "max_iter": 300}
        return {**cfg, **change}

    def run_compare(self, tmp_path, name, cfg):
        out = tmp_path / name
        assert main(["compare", "--config", write_config(tmp_path, cfg, name + ".json"), "--out", str(out)]) == 0
        return read_rows(out / "compare.csv")

    def test_lasso_rows_match_sparsify(self, tmp_path):
        cfg = self.compare_config(tmp_path)
        lasso = [r for r in self.run_compare(tmp_path, "compare", cfg) if r["method"] == "lasso"]
        sparsify = {"dataset": cfg["dataset"]["train"], "test_dataset": cfg["dataset"]["test"],
                    "x_kernel": {"variant": "gaussian", "bandwidth": cfg["x_bandwidth"]},
                    "y_kernel": {"variant": "gaussian", "bandwidth": cfg["y_bandwidth"]},
                    "lambda": cfg["lambda"], "gammas": cfg["gammas"], "max_iter": cfg["max_iter"]}
        out = tmp_path / "sparsify"
        assert main(["sparsify", "--config", write_config(tmp_path, sparsify, "sparsify.json"),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "sparsify.csv")
        assert len(rows) == len(lasso) == 3
        for s_row, c_row in zip(rows, lasso):
            assert s_row["gamma"] == c_row["sparsity_level"]
            for key in ("nnz_fraction", "kl_distance", "test_risk", "converged", "gap"):
                assert s_row[key] == c_row[key], key

    def test_ranks_in_one_run_match_single_rank_runs(self, tmp_path):
        def cholesky(name, ranks):
            cfg = self.compare_config(tmp_path, gammas=[0.1], ranks=ranks)
            return [r for r in self.run_compare(tmp_path, name, cfg) if r["method"] == "cholesky"]

        assert cholesky("both", [5, 12]) == cholesky("five", [5]) + cholesky("twelve", [12])

    def test_both_data_sources_rejected(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {
            "dataset": {"train": tiny_dataset, "test": tiny_dataset},
            "pendulum": {"n": 10, "n_test": 10},
            "lambda": 0.1, "gammas": [0.0], "ranks": [2], "seed": 0,
        })
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key,value,code", [
        ("dt", 0.2, 0), ("friction", 0.1, 0), ("discount", 0.9, 2), ("torque_levels", 3, 2),
    ])
    def test_pendulum_takes_only_dynamics_keys(self, tmp_path, key, value, code):
        # collect_dataset reads dt and friction; discount and torque_levels would change nothing
        cfg = write_config(tmp_path, {"pendulum": {"n": 10, "n_test": 10, key: value}, "lambda": 0.1,
                                      "gammas": [0.01], "ranks": [2], "seed": 0, "max_iter": 20})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == code

    def test_rank_exceeds_n(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {
            "dataset": {"train": tiny_dataset, "test": tiny_dataset},
            "lambda": 0.1, "x_bandwidth": 1.0, "y_bandwidth": 1.0,
            "gammas": [0.0], "ranks": [50], "seed": 0,
        })
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestRate:
    DIST = {"px": [0.5, 0.5], "pyx": [[0.9, 0.1], [0.2, 0.8]]}

    def test_shape(self, tmp_path):
        cfg = write_config(tmp_path, dict(self.DIST, n_grid=[10, 20, 40], seeds=[0, 1]))
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "rate.csv")
        assert len(rows) == 6
        slope_line = (out / "slope.txt").read_text()
        assert slope_line.startswith("slope=") and slope_line.endswith("\n")

    def test_slope_matches_rate_csv(self, tmp_path):
        cfg = write_config(tmp_path, dict(self.DIST, n_grid=[10, 20, 40], seeds=[0, 1]))
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        results = [RateResult(n=int(r["n"]), excess=float(r["excess"]), seed=int(r["seed"]),
                              lambda_used=float(r["lambda"])) for r in read_rows(out / "rate.csv")]
        assert sorted({r.n for r in results}) == [10, 20, 40]
        slope = float((out / "slope.txt").read_text().strip().split("=")[1])
        assert slope == pytest.approx(rate_slope(results), abs=1e-9)

    def test_out_holds_only_outputs(self, tmp_path):
        cfg = write_config(tmp_path, dict(self.DIST, n_grid=[10, 20, 40], seeds=[0]))
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["rate.csv", "slope.txt"]

    def test_bad_distribution(self, tmp_path):
        cfg = write_config(tmp_path, {"px": [0.7, 0.7], "pyx": [[1.0, 0.0], [0.0, 1.0]],
                                      "n_grid": [10], "seeds": [0]})
        assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 2

    # labels only name the symbols, but they must name each one exactly once
    # (a repeated x label is TestContract's)
    @pytest.mark.parametrize("labels", [
        {"y_symbols": [0, 0]}, {"x_symbols": ["a"]}, {"x_symbols": ["a", "b", "c"]},
        {"y_symbols": ["u", "v", "w"]},
    ])
    def test_labels_must_name_the_table(self, tmp_path, labels):
        cfg = write_config(tmp_path, dict(self.DIST, n_grid=[10], seeds=[0], **labels))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_labels_leave_the_output_unchanged(self, tmp_path):
        plain = write_config(tmp_path, dict(self.DIST, n_grid=[10, 20, 40], seeds=[0]), "plain.json")
        named = write_config(tmp_path, dict(self.DIST, n_grid=[10, 20, 40], seeds=[0],
                                            x_symbols=["a", "b"], y_symbols=[3, 7]), "named.json")
        for cfg, out in ((plain, "a"), (named, "b")):
            assert main(["rate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        for name in ("rate.csv", "slope.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # At these a the run wrote inf, 6e88 or NaN (W k_x cancelled entries of size 1/(lambda n), or
    # 1/(lambda n) overflowed), then exited 3 with "excess inf is not <= 2", "excess 6.01761e+88 is
    # not <= 2" and "ridge inverse with shift 3.16202e-320 has a non-finite entry". alpha from the
    # class solve has no 1/(lambda n), so the run writes the round-off of an excess below 1e-100.
    @pytest.mark.parametrize("a", [1e-200, 1e-60, 1e-320], ids=str)
    def test_tiny_shift_writes_a_round_off_excess(self, tmp_path, a):
        cfg = write_config(tmp_path, {"px": [1], "pyx": [[1]], "n_grid": [10, 20, 40], "seeds": [0, 1],
                                      "schedule": {"a": a}})
        out = tmp_path / "out"
        proc = cmereg_child(["rate", "--config", cfg, "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")  # no numpy warning either
        excess = [float(r["excess"]) for r in read_rows(out / "rate.csv")]
        assert len(excess) == 6 and all(0.0 <= e <= 1e-30 for e in excess), excess

    def test_zero_mean_excess_exits_three_with_one_line(self, tmp_path):
        # at a = 1e-60, c/(c + s) rounds to 1 at n = 16 and 64, so the mean excess there is 0, whose
        # log is -inf: the run wrote slope=nan with numpy's divide-by-zero warning and exited 0
        cfg = write_config(tmp_path, {"px": [1], "pyx": [[1]], "n_grid": [16, 32, 64], "seeds": [0],
                                      "schedule": {"a": 1e-60}})
        two = write_config(tmp_path, {"px": [1], "pyx": [[1]], "n_grid": [16, 32], "seeds": [0],
                                      "schedule": {"a": 1e-60}}, "two.json")
        proc = cmereg_child(["rate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 3
        assert proc.stderr == "numeric failure: mean excess 0 at n=16 has no logarithm: no slope\n"
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")
        # fewer than 3 sample sizes give no slope to fit: nan, as before
        proc = cmereg_child(["rate", "--config", two, "--out", str(tmp_path / "two")])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "two" / "slope.txt").read_text() == "slope=nan\n"

    def test_small_shift_keeps_its_digits(self, tmp_path):
        # at a = 1e-12 the table is (n/(n+s)) with s = lambda*n, so the excess is (s/(n+s))^2, about
        # 1e-25/n; W k_x cancelled entries of size 1/s, which wrote 1.8e-7 to 4.3e-6 and slope=2.29
        cfg = write_config(tmp_path, {"px": [1], "pyx": [[1]], "n_grid": [10, 20, 40], "seeds": [0, 1],
                                      "schedule": {"a": 1e-12}})
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "rate.csv")
        assert len(rows) == 6
        for r in rows:
            n, s = int(r["n"]), float(r["lambda"]) * int(r["n"])
            assert float(r["excess"]) == pytest.approx((s / (n + s)) ** 2, rel=0.01), r
        assert float((out / "slope.txt").read_text().split("=")[1]) == pytest.approx(-1.0, abs=0.02)

    def test_excess_above_two_exits_three_with_one_line(self, tmp_path, monkeypatch, capsys):
        # a delta fit's table row is nonnegative and sums to at most 1, so excess <= 2 always holds;
        # a table that breaks it stops the run
        monkeypatch.setattr(ratecheck, "conditional_table", lambda dist, model: np.full(dist.pyx.shape, 3.0))
        cfg = write_config(tmp_path, {"px": [1], "pyx": [[1]], "n_grid": [10, 20, 40], "seeds": [0, 1]})
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: rate fit at n=10, seed=0, lambda*n=3.16228: excess 4 is not <= 2, a delta fit's bound"]
        assert os.listdir(out) == []

    def test_seeds_above_two_to_the_53(self, tmp_path):
        # integers went through float: 2**53 + 1 ran (and was written) as 2**53
        seeds = [2**53, 2**53 + 1]
        cfg = write_config(tmp_path, dict(self.DIST, n_grid=[10], seeds=seeds))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [int(r["seed"]) for r in read_rows(tmp_path / "out" / "rate.csv")] == seeds


class TestPendulum:
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 40, "seed": 0, "sweeps": 10, "episodes": 5, "horizon": 10})
        out = tmp_path / "out"
        assert main(["pendulum", "--config", cfg, "--out", str(out)]) == 0
        policy = read_rows(out / "policy.csv")
        assert len(policy) == 40
        returns = {r["policy"]: float(r["mean_return"]) for r in read_rows(out / "returns.csv")}
        assert set(returns) == {"learned", "random"}

    def test_negative_dt_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 20, "seed": 0, "dt": -1})
        assert main(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_overflowing_dynamics_print_one_line(self, tmp_path):
        # dt * omega overflows the angle: exit 2 with one line naming the parameters, no warnings
        cfg = write_config(tmp_path, {"n": 20, "seed": 0, "dt": 1e308})
        proc = cmereg_child(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "config error: pendulum dynamics with dt=1e+308 and friction=0.05 give a non-finite transition"]

    def test_overflowing_friction_runs_silently(self, tmp_path):
        # friction * omega overflows, and the clamp gives the files a large finite friction gives
        small = {"n": 20, "seed": 0, "sweeps": 2, "episodes": 2, "horizon": 3}
        proc = cmereg_child(["pendulum", "--config", write_config(tmp_path, {**small, "friction": 1e308}),
                             "--out", str(tmp_path / "huge")])
        assert (proc.returncode, proc.stderr) == (0, "")
        cfg = write_config(tmp_path, {**small, "friction": 1e306}, "finite.json")
        assert main(["pendulum", "--config", cfg, "--out", str(tmp_path / "finite")]) == 0
        for name in ("policy.csv", "returns.csv"):
            assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "finite" / name).read_bytes()

    def test_diverging_value_iteration_exits_three(self, tmp_path, capsys):
        # a near-zero ridge leaves the embedded transition model unstable
        cfg = write_config(tmp_path, {"n": 30, "seed": 0, "lambda": 1e-12, "sweeps": 50,
                                      "episodes": 2, "horizon": 2})
        assert main(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "value iteration diverged" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 30, "seed": 0, "sweeps": 5, "episodes": 3, "horizon": 5})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pendulum", "--config", cfg, "--out", str(a)]) == 0
        assert main(["pendulum", "--config", cfg, "--out", str(b), "--seed", "1"]) == 0
        assert (a / "policy.csv").read_bytes() != (b / "policy.csv").read_bytes()

    @pytest.mark.parametrize("n,sweeps,converged", [(40, 5, 0), (60, 400, 1)], ids=["capped", "converged"])
    def test_planning_reports_the_last_sweep(self, tmp_path, monkeypatch, n, sweeps, converged):
        plans, plan = [], pendulum.policy_iteration
        monkeypatch.setattr(pendulum, "policy_iteration", lambda *a, **kw: plans.append(plan(*a, **kw)) or plans[-1])
        cfg = write_config(tmp_path, {"n": n, "seed": 0, "sweeps": sweeps, "episodes": 2, "horizon": 2})
        assert main(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        (deltas,) = [p.sweep_deltas for p in plans]
        assert read_rows(tmp_path / "out" / "planning.csv") == [
            {"sweeps": str(len(deltas)), "last_delta": f"{deltas[-1]:.12g}", "tol": "1e-06",
             "converged": str(converged)}]
        if converged:  # stopped by the tolerance, before the cap
            assert len(deltas) < sweeps and deltas[-1] < 1e-6
        else:
            assert len(deltas) == sweeps and deltas[-1] >= 1e-6

    def test_peak_memory_is_two_arrays(self, tmp_path):
        # K with the solve's work array, then W with the state Gram S: the model's L goes
        # before W is formed and K before S is built (4.17 n^2 floats with all four held)
        n = 400
        cfg = write_config(tmp_path, {"n": n, "seed": 1, "sweeps": 2, "episodes": 1, "horizon": 1})
        peak = traced_peak(lambda: main(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")]))
        assert peak <= 2.3 * 8 * n * n, peak / (8 * n * n)


# The first line of each file the six commands write, as a regular expression. The byte matrix
# compares processes of one tree with each other, so only this pins a column's name and place.
HEADERS = {
    ("fit", "summary.csv"): "n,lambda,x_variant,x_bandwidth,y_variant,y_bandwidth,train_risk,w_opnorm,"
                            "w_opnorm_bound,bound_ok",
    ("fit", "coefficients.csv"): ",".join(f"c{j}" for j in range(300)),  # one column per training point
    ("cv", "cv.csv"): "grid_index,lambda,bandwidth,fold,error,best",
    ("sparsify", "sparsify.csv"): "gamma,nnz_fraction,row_occupancy,kl_distance,test_risk,iterations,"
                                  "converged,gap",
    ("compare", "compare.csv"): "method,sparsity_level,nnz_fraction,kl_distance,test_risk,converged,gap",
    ("rate", "rate.csv"): "n,seed,lambda,excess",
    ("rate", "slope.txt"): r"slope=-?[0-9.]+(e[+-][0-9]+)?",  # one number, as %.12g writes it
    ("pendulum", "policy.csv"): "index,theta,omega,value,greedy_torque",
    ("pendulum", "planning.csv"): "sweeps,last_delta,tol,converged",
    ("pendulum", "returns.csv"): "policy,mean_return",
}


@pytest.mark.parametrize("command,name", sorted(HEADERS))
def test_output_header(byte_matrix, command, name):
    root, _ = byte_matrix
    first = (root / "reference" / command / name).read_text().split("\n", 1)[0]
    assert re.fullmatch(HEADERS[command, name], first), first


class TestBlasThreads:
    """main runs each command on one OpenBLAS thread per pool, and gives both pools
    back the counts they had."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_tree_identical_across_thread_counts(self, byte_matrix, command):
        # before main set the count, fit, sparsify, compare and pendulum wrote other bytes
        # under 1 and 2 threads: last digits of coefficients.csv and policy.csv, whole rows
        assert_same_out_tree(byte_matrix, command, "2_threads")

    @pytest.mark.parametrize("cfg,code", [
        ({"lambda": 0.1}, 0),
        ({"dataset": "no-such-dataset.csv", "lambda": 0.1}, 2),  # read_dataset fails inside the command
        ({"lambda": 1e308}, 3),  # the ridge shift lambda*n overflows inside the command
    ])
    def test_pools_read_their_earlier_counts_after_main(self, tmp_path, tiny_dataset, cfg, code):
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "x_kernel": GAUSS, "y_kernel": GAUSS, **cfg})
        with blas_threads(2):  # an earlier count other than the command's 1
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == code
            assert openblas_pool_threads() == [2, 2]


class TestHeapPages:
    """main keeps freed heap pages for the next fit (cli._keep_freed_pages); that
    moves no output bit, and a C library without mallopt leaves the command running."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_files_identical_without_the_setting(self, byte_matrix, command):
        assert_same_out_tree(byte_matrix, command, "glibc_heap")

    def test_no_mallopt_found_runs_the_command(self, tmp_path, tiny_dataset, monkeypatch):
        load, asked = ctypes.CDLL, []

        def without_mallopt(name, *args, **kwargs):  # the process's symbols lack mallopt
            asked.append(name)
            return types.SimpleNamespace() if name is None else load(name, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", without_mallopt)
        cfg = write_config(tmp_path, {"dataset": tiny_dataset, "lambda": 0.1, "x_kernel": GAUSS, "y_kernel": GAUSS})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert None in asked and (tmp_path / "out" / "summary.csv").exists()


class TestPlumbing:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_non_utf8_config(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 10, "seed": 0, "x": "\xe9"}')
        assert main(["pendulum", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_deeply_nested_config(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["fit", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        xs, ys = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
        path = write_dataset(tmp_path / "rt.csv", xs, ys)
        ts = read_dataset(path)
        np.testing.assert_allclose(np.asarray(ts.xs), xs)
        np.testing.assert_allclose(np.asarray(ts.ys), ys)

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("row", ["3", "3,4,5"])
    def test_ragged_dataset_exits_two(self, tmp_path, capsys, command, row):
        # a row with fewer or more fields than the header is a config error naming its line
        path = tmp_path / "ragged.csv"
        path.write_text(f"x0,y0\n1,2\n{row}\n5,6\n")
        cfg = {"fit": {"dataset": str(path), "lambda": 0.1, "x_kernel": GAUSS, "y_kernel": GAUSS},
               "compare": {"dataset": {"train": str(path), "test": str(path)}, "lambda": 0.1,
                           "gammas": [0.0], "ranks": [1], "seed": 0}}[command]
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: malformed dataset {path}: line 3 has "
                                           f"{len(row.split(','))} fields, the header 2\n")

    def test_write_csv_formatting(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, ["a", "b"], [[1, 0.5], [True, 1e-9]])
        assert open(path).read() == "a,b\n1,0.5\n1,1e-09\n"

    def test_write_csv_ndarray_rows_match_lists(self, tmp_path):
        M = np.random.default_rng(3).standard_normal((4, 3)) * 10.0 ** np.arange(-6, 6).reshape(4, 3)
        write_csv(str(tmp_path / "a.csv"), ["p", "q", "r"], M)
        write_csv(str(tmp_path / "b.csv"), ["p", "q", "r"], M.tolist())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_csv_array_rows_match_per_value_fmt(self, tmp_path):
        values = [0, 7, -3, True, False, -0.0, 0.0, 1e-300, 5e-324, 1e16, 1e17, 0.1, -2.5,
                  123456789012345.0, np.float64(1 / 3)]
        floats = np.array([v for v in values if isinstance(v, float)])
        rows = [values, floats, np.array([1, 2**40, -5]), ["lasso", np.int64(4), np.float64(-0.0)],
                floats[::-1], np.array([True, False]), np.array([], dtype=float)]
        path = tmp_path / "mixed.csv"
        write_csv(str(path), ["h"], rows)
        expected = "h\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_write_csv_atomic_no_stray_tempfiles(self, tmp_path):
        path = str(tmp_path / "y.csv")
        write_csv(path, ["a"], [[1.0]])
        assert sorted(os.listdir(tmp_path)) == ["y.csv"]

    def test_write_csv_failure_leaves_nothing(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text")

        with pytest.raises(RuntimeError):
            write_csv(str(tmp_path / "z.csv"), ["a"], [[1.0], [Unprintable()]])
        assert os.listdir(tmp_path) == []


def tiny_configs(data):
    """One small valid config per command, on the dataset at path `data`."""
    gauss = {"variant": "gaussian", "bandwidth": 1.0}
    return {
        "fit": {"dataset": data, "lambda": 0.1, "x_kernel": gauss, "y_kernel": dict(gauss)},
        "cv": {"dataset": data, "lambdas": [0.1], "folds": 2, "seed": 0,
               "x_kernel": gauss, "y_kernel": dict(gauss)},
        "sparsify": {"dataset": data, "lambda": 0.1, "gammas": [0.01], "max_iter": 20,
                     "x_kernel": gauss, "y_kernel": dict(gauss)},
        "compare": {"dataset": {"train": data, "test": data}, "lambda": 0.1, "x_bandwidth": 1.0,
                    "y_bandwidth": 1.0, "gammas": [0.01], "ranks": [2], "seed": 0, "max_iter": 20},
        "rate": {"px": [0.5, 0.5], "pyx": [[0.9, 0.1], [0.2, 0.8]], "n_grid": [4, 8, 16],
                 "seeds": [0], "schedule": {"a": 1.0, "beta": 0.5}},
        "pendulum": {"n": 10, "seed": 0, "sweeps": 3, "episodes": 2, "horizon": 3},
    }


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    return root, random_dataset(root / "data.csv", n=8, seed=6)


def run_tiny(root, data, command, change, argv=()):
    """Exit code of `command` on its tiny config after change(cfg)."""
    cfg = tiny_configs(data)[command]
    change(cfg)
    path = write_config(root, cfg)
    return main([command, "--config", path, "--out", str(root / "out"), *argv])


def setter(*path_and_value):
    *path, key, value = path_and_value

    def change(cfg):
        for k in path:
            cfg = cfg[k]
        cfg[key] = value
    return change


class TestContract:
    # before the config schema each of these exited 1 with a traceback, ran on
    # a silently coerced value or computed a wrong one, or passed a negative
    # seed on to numpy
    @pytest.mark.parametrize("command,change", [
        ("cv", setter("lambdas", ["a"])),
        ("sparsify", setter("gammas", ["x"])),
        ("sparsify", setter("max_iter", "abc")),
        ("sparsify", setter("test_dataset", None)),
        ("compare", setter("seed", "x")),
        ("compare", setter("dataset", "a")),
        ("compare", setter("ranks", [True])),
        ("fit", setter("x_kernel", 5)),
        ("rate", setter("pyx", [[0.9, 0.1], [1.0]])),
        ("rate", setter("schedule", "a", "x")),
        ("pendulum", setter("n", "abc")),
        ("pendulum", setter("n", 2.9)),
        ("sparsify", setter("max_iter", 2.7)),
        ("pendulum", setter("torque_levels", 2.5)),
        ("pendulum", setter("horizon", -1)),
        ("cv", setter("lambdas", [True])),
        ("cv", setter("bandwidths", [None])),
        ("fit", setter("seed", "x")),
        ("rate", setter("px", [math.nan, 0.5])),
        ("cv", setter("seed", -1)),
        ("pendulum", setter("seed", -1)),
        ("rate", setter("seeds", [-1])),
        ("rate", setter("x_symbols", ["a", "a"])),
    ])
    def test_malformed_value_exits_two(self, contract_dir, command, change):
        assert run_tiny(*contract_dir, command, change) == 2

    # a valid but huge count exited 1 from a failed allocation ("n") or ran
    # without end ("episodes"); every count now has a ceiling
    @pytest.mark.parametrize("command,change", [
        ("pendulum", setter("n", 1e300)),
        ("pendulum", setter("episodes", 1e300)),
        ("pendulum", setter("horizon", 1e300)),
        ("pendulum", setter("sweeps", 1e300)),
        ("pendulum", setter("torque_levels", 1e300)),
        ("sparsify", setter("max_iter", 1e300)),
        ("compare", setter("ranks", [2, 1e300])),
        ("cv", setter("folds", 1e300)),
        ("rate", setter("n_grid", [4, 8, 1e300])),
        ("compare", lambda cfg: cfg.update(dataset=None, pendulum={"n": 1e300, "n_test": 10})),
        ("compare", lambda cfg: cfg.update(dataset=None, pendulum={"n": 10, "n_test": 1e300})),
    ])
    def test_huge_count_exits_two(self, contract_dir, command, change):
        assert run_tiny(*contract_dir, command, change) == 2

    @pytest.mark.parametrize("command,key,at,above", [
        ("pendulum", "n", cli.MAX_N, cli.MAX_N + 1),
        ("pendulum", "episodes", cli.MAX_EPISODES, cli.MAX_EPISODES + 1),
        ("pendulum", "horizon", cli.MAX_HORIZON, cli.MAX_HORIZON + 1),
        ("pendulum", "sweeps", cli.MAX_SWEEPS, cli.MAX_SWEEPS + 1),
        ("pendulum", "torque_levels", cli.MAX_TORQUE_LEVELS, cli.MAX_TORQUE_LEVELS + 1),
        ("sparsify", "max_iter", cli.MAX_ITER, cli.MAX_ITER + 1),
        ("cv", "folds", cli.MAX_FOLDS, cli.MAX_FOLDS + 1),
        ("compare", "ranks", [cli.MAX_RANK], [cli.MAX_RANK + 1]),
        ("rate", "n_grid", [cli.MAX_N_GRID], [cli.MAX_N_GRID + 1]),
    ])
    def test_ceiling_is_inclusive(self, command, key, at, above):
        check = SCHEMAS[command][key][0]
        assert check(at) == at
        with pytest.raises(ValueError):
            check(above)

    def test_negative_seed_flag_exits_two(self, contract_dir):
        assert run_tiny(*contract_dir, "pendulum", lambda cfg: None, ["--seed", "-1"]) == 2

    def test_overflowing_bandwidth_exits_three(self, contract_dir, capsys):
        # 1e300 is a valid bandwidth, but its square overflows in the kernel: the line was
        # OverflowError's "(34, 'Numerical result out of range')"
        for command in ("fit", "sparsify"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the test
                assert run_tiny(*contract_dir, command, setter("x_kernel", "bandwidth", 1e300)) == 3
            assert capsys.readouterr().err.splitlines() == [
                "numeric failure: gaussian bandwidth 1e+300 overflows when squared"], command

    def test_overflowing_rate_schedule_exits_three(self, contract_dir, capsys):
        # 16^300 overflows a float: the line was OverflowError's "(34, 'Numerical result out of range')"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            assert run_tiny(*contract_dir, "rate", setter("schedule", "beta", -300)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: rate schedule a * n^(-beta) overflows at n=16"]

    # 1e-200 is a valid bandwidth, but its square underflows to 0 and every Gram
    # diagonal entry was 0/0 = nan: fit exited 1 from scipy, cv and pendulum
    # exited 0 writing nan, compare exited 2 on its finiteness check
    @pytest.mark.parametrize("command,change", [
        ("fit", setter("x_kernel", "bandwidth", 1e-200)),
        ("cv", setter("bandwidths", [1e-200, 1.0])),
        ("pendulum", setter("x_bandwidth", 1e-200)),
        ("compare", setter("x_bandwidth", 1e-200)),
    ], ids=["fit", "cv", "pendulum", "compare"])
    def test_underflowing_bandwidth_exits_three(self, contract_dir, capsys, command, change):
        assert run_tiny(*contract_dir, command, change) == 3
        assert "underflows" in capsys.readouterr().err

    # a linear kernel on x = 1e200 overflowed its Gram to inf: fit wrote zero rows
    # of W and a nan risk, cv wrote nan errors (both exit 0), sparsify exited 2
    @pytest.mark.parametrize("command", ["fit", "cv", "sparsify"])
    def test_overflowing_linear_kernel_exits_three(self, contract_dir, capsys, command):
        root, _ = contract_dir
        rng = np.random.default_rng(7)
        huge = write_dataset(root / "huge.csv", rng.uniform(1.0, 2.0, (8, 2)) * 1e200,
                             rng.uniform(0, 3, 8))
        assert run_tiny(root, huge, command, setter("x_kernel", {"variant": "linear"})) == 3
        assert "overflowed" in capsys.readouterr().err

    # a held-out set whose points are wider or narrower than the training points
    @pytest.mark.parametrize("extra", ["x", "y"])
    @pytest.mark.parametrize("command", ["sparsify", "compare"])
    def test_mismatched_test_widths_exit_two(self, contract_dir, capsys, command, extra):
        root, dataset = contract_dir
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 3, (6, 3 if extra == "x" else 2))
        ys = rng.uniform(0, 3, (6, 3 if extra == "y" else 2))
        wide = write_dataset(root / f"wide_{extra}.csv", xs, ys)
        change = setter("test_dataset", wide) if command == "sparsify" else setter("dataset", "test", wide)
        assert run_tiny(root, dataset, command, change) == 2
        # checked before the path, so the error names no gamma
        assert capsys.readouterr().err == "config error: points have dimension 3, kernel expects 2\n"

    # a delta or linear kernel ignored its bandwidth: cv fitted the same models once
    # per grid bandwidth and wrote them as distinct grid points, fit printed it in summary.csv
    @pytest.mark.parametrize("command,variant,change", [
        ("cv", "delta", lambda cfg: cfg.update(x_kernel={"variant": "delta"}, bandwidths=[1, 2])),
        ("cv", "linear", lambda cfg: cfg.update(x_kernel={"variant": "linear"}, bandwidths=[1])),
        ("fit", "linear", setter("x_kernel", {"variant": "linear", "bandwidth": 2.0})),
        ("fit", "delta", setter("y_kernel", {"variant": "delta", "bandwidth": 1.0})),
    ], ids=["cv-delta", "cv-linear", "fit-linear", "fit-delta"])
    def test_bandwidth_on_a_non_gaussian_kernel_exits_two(self, contract_dir, capsys, command, variant, change):
        assert run_tiny(*contract_dir, command, change) == 2
        assert capsys.readouterr().err == f"config error: a {variant} kernel takes no bandwidth\n"

    # fit, sparsify and rate draw no random numbers, yet took a seed and ignored it
    @pytest.mark.parametrize("command,change,argv", [
        ("fit", lambda cfg: None, ["--seed", "3"]),
        ("sparsify", lambda cfg: None, ["--seed", "0"]),
        ("rate", setter("seed", 0), []),
        ("sparsify", setter("seed", 1), []),
    ], ids=["fit-flag", "sparsify-flag", "rate-config", "sparsify-config"])
    def test_seed_on_a_seedless_command_exits_two(self, contract_dir, capsys, command, change, argv):
        assert run_tiny(*contract_dir, command, change, argv) == 2
        assert capsys.readouterr().err == f"config error: {command}: unknown keys ['seed']\n"

    # lambda*n overflows to inf: the fit inverted it to all-zero W (fit) or wrote
    # lambda=inf and excess=nan rows (rate), and both exited 0
    @pytest.mark.parametrize("command,change", [
        ("fit", setter("lambda", 1e308)),
        ("rate", setter("schedule", {"a": 1e308, "beta": -1})),
    ], ids=["fit", "rate"])
    def test_overflowing_ridge_shift_exits_three(self, contract_dir, command, change):
        assert run_tiny(*contract_dir, command, change) == 3

    def test_integral_float_is_an_integer(self, contract_dir):
        assert run_tiny(*contract_dir, "sparsify", setter("max_iter", 1e4)) == 0

    def test_large_integer_is_exact(self, contract_dir):
        # every integer went through float: 2**53 + 1 came back as 2**53
        check = SCHEMAS["pendulum"]["seed"][0]
        assert check(2**53 + 1) == 2**53 + 1 and type(check(2**53 + 1)) is int
        assert check(1e4) == 10_000 and type(check(1e4)) is int
        for bad in (2.7, -1, True, 10**400):
            with pytest.raises(ValueError):
                check(bad)
        assert run_tiny(*contract_dir, "pendulum", lambda cfg: None, ["--seed", str(2**53 + 1)]) == 0

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tiny_configs_run(self, contract_dir, command):
        assert run_tiny(*contract_dir, command, lambda cfg: None) == 0


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40) | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e4, 1e-200, 1e200]),
    json_containers,
    max_leaves=8,
)


STRING_COLUMNS = {"x_variant", "y_variant", "method", "policy"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_json_value_exits_0_2_or_3(contract_dir, command, data):
    # numbers are small, or far too large or fractional for a count, so that a
    # valid n or episodes cannot make a run long; a run that exits 0 writes
    # finite numbers only
    root, dataset = contract_dir
    base = tiny_configs(dataset)[command]
    paths = [(key,) for key in [*SCHEMAS[command], "unknown_key"]]
    paths += [(key, sub) for key, value in base.items() if isinstance(value, dict) for sub in value]
    path = data.draw(st.sampled_from(paths))
    shutil.rmtree(root / "out", ignore_errors=True)
    code = run_tiny(root, dataset, command, setter(*path, data.draw(JSON_VALUES)))
    assert code in (0, 2, 3)
    for path in (root / "out").glob("*.csv") if code == 0 else ():
        for row in read_rows(path):
            numbers = [v for k, v in row.items() if k not in STRING_COLUMNS]
            assert all(math.isfinite(float(v)) for v in numbers), (path.name, row)


class TestScripts:
    @staticmethod
    def run_main(name, argv, monkeypatch):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", name + ".py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(sys, "argv", [name, *argv])
        return module.main()

    def test_run_compare(self, tmp_path, monkeypatch):
        out = tmp_path / "compare"
        assert self.run_main("run_compare", ["--n", "20", "--n-test", "20", "--out", str(out)],
                             monkeypatch) == 0
        assert {r["method"] for r in read_rows(out / "compare.csv")} == {"lasso", "cholesky"}

    def test_run_rate_curves(self, tmp_path, monkeypatch):
        out = tmp_path / "rate"
        assert self.run_main("run_rate_curves", ["--n-grid", "10", "20", "40", "--seeds", "2",
                                                 "--out", str(out)], monkeypatch) == 0
        assert len(read_rows(out / "rate.csv")) == 6
        assert (out / "slope.txt").exists()
