"""The call structure the command-line benchmark pins (clibench EXPECTED_CALLS).

A fit makes two kernels.gram calls and no solve. The fitted model's first
alpha_batch call or read of W makes one linalg.solve_spd, whichever ridge
path it takes; W is kept, so a second read makes none, and a model given its
coefficients never forms W. `cmereg rate` scores each fit once, so it makes as
many solves as fits and twice as many Gram builds. `cmereg compare` makes one FISTA solve (two eigenvalue
calls) per gamma, one pivot run and one refit (a solve per rank; it slices the
fitted Gram). `cmereg cv` makes one fit per grid point and fold, `fit` and
`pendulum` one each, and the pendulum rollout one `Policy.act` per episode and
step.
Counting wrappers are bound wherever cmereg holds each function, and on the
class for `Policy.act`, as the benchmark's tracer binds its spans.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from cmereg import cli, embedding, kernels, linalg, lowrank, pendulum, sparse
from cmereg.embedding import TrainingSet
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec

COUNTED = {"embedding.fit": embedding.fit, "linalg.solve_spd": linalg.solve_spd, "kernels.gram": kernels.gram,
           "sparse.fista_solve": sparse.fista_solve, "linalg.sym_eig_max": linalg.sym_eig_max,
           "lowrank.incomplete_cholesky": lowrank.incomplete_cholesky}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in COUNTED.items():
        wrapper = counting(name, fn)
        for mod in [m for key, m in sys.modules.items() if key == "cmereg" or key.startswith("cmereg.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(pendulum.Policy, "act", counting("pendulum.Policy.act", pendulum.Policy.act))
    return counts


@pytest.mark.parametrize("kspec,points", [
    (KernelSpec("delta"), [0, 1, 1, 2, 3, 3, 3]),
    (KernelSpec("gaussian", 1.0), [0.0, 0.5, 1.0, 2.0, 3.5]),
], ids=["delta", "gaussian"])
def test_fit_makes_one_solve_and_two_grams(calls, kspec, points):
    # the Grams in fit; the solve at the model's first use, alpha_batch or a read of W
    def fitted():
        return embedding.fit(TrainingSet(points, points), kspec, KernelSpec("delta"), 0.1)

    model = fitted()
    assert dict(calls) == {"embedding.fit": 1, "kernels.gram": 2}
    embedding.alpha_batch(model, points[:2])
    assert dict(calls) == {"embedding.fit": 1, "kernels.gram": 2, "linalg.solve_spd": 1}
    model = fitted()
    model.W
    model.W  # kept: the second read solves nothing
    assert calls["linalg.solve_spd"] == 2
    model, n = fitted(), len(points)
    with pytest.raises(InputError, match="^coefficient matrix has wrong shape$"):
        model.with_coefficients(np.eye(n + 1))
    given = model.with_coefficients(np.eye(n))
    embedding.alpha_batch(given, points[:2])
    assert given.W is given.coefficients
    assert dict(calls) == {"embedding.fit": 3, "kernels.gram": 6, "linalg.solve_spd": 2}


def test_non_finite_shift_raises_before_any_gram(calls):
    with pytest.raises(NumericalError, match="^ridge shift lambda\\*n = inf is not finite$"):
        embedding.fit(TrainingSet([0.0, 1.0], [0.0, 1.0]), KernelSpec("gaussian", 1.0), KernelSpec("delta"), 1e308)
    assert dict(calls) == {"embedding.fit": 1}


def test_rate_command_counts(calls, tmp_path):
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps({"px": [0.5, 0.5], "pyx": [[0.9, 0.1], [0.2, 0.8]],
                               "n_grid": [20, 40, 80], "seeds": [0, 1]}))
    assert cli.main(["rate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert dict(calls) == {"embedding.fit": 6, "linalg.solve_spd": 6, "kernels.gram": 12}



def test_compare_command_counts(calls, tmp_path):
    rows = np.random.default_rng(0).uniform(0, 3, (20, 3)).tolist()
    data = tmp_path / "data.csv"
    data.write_text("x0,x1,y0\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
    gammas, ranks = [0.001, 0.01, 0.1], [3, 12, 7]
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps({"dataset": {"train": str(data), "test": str(data)}, "lambda": 0.1,
                               "x_bandwidth": 0.5, "y_bandwidth": 0.5, "gammas": gammas, "ranks": ranks,
                               "seed": 0, "max_iter": 50}))
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    g, r = len(gammas), len(ranks)
    assert dict(calls) == {"embedding.fit": 1, "sparse.fista_solve": g, "linalg.sym_eig_max": 2 * g,
                           "lowrank.incomplete_cholesky": 1, "linalg.solve_spd": 1 + r, "kernels.gram": 2}


def test_plan_commands_counts(calls, tmp_path):
    train = pendulum.collect_dataset(pendulum.PendulumParams(), 30, 0)
    data = tmp_path / "data.csv"
    data.write_text("x0,x1,x2,x3,y0,y1,y2\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in np.hstack([train.xs, train.ys]).tolist()))
    gauss = {"variant": "gaussian", "bandwidth": 1.5}
    lambdas, bandwidths, folds, episodes, horizon = [1e-3, 1e-2], [1.0, 2.0, 4.0], 3, 4, 5
    configs = {
        "cv": {"dataset": str(data), "lambdas": lambdas, "bandwidths": bandwidths, "folds": folds, "seed": 0,
               "x_kernel": gauss, "y_kernel": gauss},
        "fit": {"dataset": str(data), "lambda": 1e-3, "x_kernel": gauss, "y_kernel": gauss},
        "pendulum": {"n": 30, "seed": 0, "sweeps": 5, "episodes": episodes, "horizon": horizon},
    }
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    assert calls["embedding.fit"] == len(lambdas) * len(bandwidths) * folds + 1 + 1
    assert calls["pendulum.Policy.act"] == episodes * horizon
