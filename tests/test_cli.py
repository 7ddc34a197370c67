import csv
import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmereg import cli
from cmereg.cli import COMMANDS, SCHEMAS, main, read_dataset, write_csv
from cmereg.ratecheck import RateResult, rate_slope


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


@pytest.fixture
def tiny_dataset(tmp_path):
    return write_dataset(tmp_path / "data.csv", [0.0, 0.5, 1.0, 1.5, 2.0],
                         [0.1, 0.4, 1.1, 1.6, 1.9])


GAUSS = {"variant": "gaussian", "bandwidth": 1.0}


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

    def test_rerun_byte_identical(self, tmp_path, tiny_dataset):
        path = write_config(tmp_path, self.base_cfg(tiny_dataset))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["cv", "--config", path, "--out", str(a)]) == 0
        assert main(["cv", "--config", path, "--out", str(b)]) == 0
        assert (a / "cv.csv").read_bytes() == (b / "cv.csv").read_bytes()

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

    def test_folds_validation(self, tmp_path, tiny_dataset):
        cfg = self.base_cfg(tiny_dataset)
        cfg["folds"] = 1
        assert main(["cv", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        cfg["folds"] = 10  # only 5 samples
        assert main(["cv", "--config", write_config(tmp_path, cfg, "c2.json"),
                     "--out", str(tmp_path)]) == 2


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

    def test_converged_column_reports_cap(self, tmp_path):
        data = random_dataset(tmp_path / "d.csv", n=20, seed=2)
        cfg = write_config(tmp_path, {
            "dataset": data, "lambda": 0.1, "gammas": [0.001, 0.01],
            "x_kernel": {"variant": "gaussian", "bandwidth": 0.3},
            "y_kernel": {"variant": "gaussian", "bandwidth": 0.3},
            "max_iter": 1,
        })
        out = tmp_path / "out"
        assert main(["sparsify", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sparsify.csv")
        assert [(r["iterations"], r["converged"]) for r in rows] == [("1", "0"), ("1", "0")]

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
        assert list(rows[0]) == ["method", "sparsity_level", "nnz_fraction", "kl_distance", "test_risk"]
        assert {r["method"] for r in rows} == {"lasso", "cholesky"}
        for r in rows:
            assert float(r["kl_distance"]) <= 1e-6

    def test_both_data_sources_rejected(self, tmp_path, tiny_dataset):
        cfg = write_config(tmp_path, {
            "dataset": {"train": tiny_dataset, "test": tiny_dataset},
            "pendulum": {"n": 10, "n_test": 10},
            "lambda": 0.1, "gammas": [0.0], "ranks": [2], "seed": 0,
        })
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2

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


class TestPendulum:
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 40, "seed": 0, "sweeps": 10,
                                      "episodes": 5, "horizon": 10})
        out = tmp_path / "out"
        assert main(["pendulum", "--config", cfg, "--out", str(out)]) == 0
        policy = read_rows(out / "policy.csv")
        assert len(policy) == 40
        returns = {r["policy"]: float(r["mean_return"]) for r in read_rows(out / "returns.csv")}
        assert set(returns) == {"learned", "random"}

    def test_negative_dt_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 20, "seed": 0, "dt": -1})
        assert main(["pendulum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 30, "seed": 0, "sweeps": 5,
                                      "episodes": 3, "horizon": 5})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pendulum", "--config", cfg, "--out", str(a)]) == 0
        assert main(["pendulum", "--config", cfg, "--out", str(b), "--seed", "1"]) == 0
        assert (a / "policy.csv").read_bytes() != (b / "policy.csv").read_bytes()


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

    def test_write_csv_formatting(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, ["a", "b"], [[1, 0.5], [True, 1e-9]])
        assert open(path).read() == "a,b\n1,0.5\n1,1e-09\n"

    def test_write_csv_ndarray_rows_match_lists(self, tmp_path):
        M = np.random.default_rng(3).standard_normal((4, 3)) * 10.0 ** np.arange(-6, 6).reshape(4, 3)
        write_csv(str(tmp_path / "a.csv"), ["p", "q", "r"], M)
        write_csv(str(tmp_path / "b.csv"), ["p", "q", "r"], M.tolist())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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

    def test_overflowing_bandwidth_exits_three(self, contract_dir):
        # 1e300 is a valid bandwidth, but its square overflows in the kernel
        assert run_tiny(*contract_dir, "fit", setter("x_kernel", "bandwidth", 1e300)) == 3

    def test_integral_float_is_an_integer(self, contract_dir):
        assert run_tiny(*contract_dir, "sparsify", setter("max_iter", 1e4)) == 0

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tiny_configs_run(self, contract_dir, command):
        assert run_tiny(*contract_dir, command, lambda cfg: None) == 0


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40) | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e4]),
    json_containers,
    max_leaves=8,
)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_json_value_exits_0_2_or_3(contract_dir, command, data):
    # numbers stay small so that a valid n or episodes cannot make a run long
    root, dataset = contract_dir
    base = tiny_configs(dataset)[command]
    paths = [(key,) for key in [*SCHEMAS[command], "unknown_key"]]
    paths += [(key, sub) for key, value in base.items() if isinstance(value, dict) for sub in value]
    path = data.draw(st.sampled_from(paths))
    assert run_tiny(root, dataset, command, setter(*path, data.draw(JSON_VALUES))) in (0, 2, 3)


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
