"""Delta Grams are bool, one byte an entry. Every consumer gives the same bits from a
bool Gram as from its float64 copy: 0/1 converts to 0.0/1.0 exactly, and the class
sizes summed from it are exact integers."""

from dataclasses import replace

import numpy as np
import pytest

from cmereg.embedding import TrainingSet, empirical_risk, fit
from cmereg.kernels import KernelSpec, cross_gram, gram
from cmereg.linalg import class_ridge_inverse
from cmereg.lowrank import incomplete_cholesky, subset_refit
from cmereg.sparse import SparseProblem, fista_solve

DELTA = KernelSpec("delta")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def delta_model(n: int, lam: float = 0.05, seed: int = 0):
    rng = np.random.default_rng(seed)
    return fit(TrainingSet(rng.integers(0, 5, n), rng.integers(0, 3, n)), DELTA, DELTA, lam)


def float_grams(model):
    """The model with float64 copies of its two Grams."""
    return replace(model, kgram=model.kgram.astype(float), lgram=model.lgram.astype(float))


@pytest.mark.parametrize("spec,dtype", [
    pytest.param(DELTA, np.bool_, id="delta"),
    pytest.param(KernelSpec("gaussian", 1.0), np.float64, id="gaussian"),
    pytest.param(KernelSpec("linear"), np.float64, id="linear"),
])
@pytest.mark.parametrize("points", [
    pytest.param(np.random.default_rng(1).integers(0, 3, 12), id="codes"),
    pytest.param(np.random.default_rng(2).integers(0, 2, (12, 3)), id="rows"),
])
def test_gram_dtype(spec, dtype, points):
    assert gram(spec, points).dtype == dtype
    assert cross_gram(spec, points, points[:5]).dtype == dtype


@pytest.mark.parametrize("shift", [1e-310, 1e-8, 0.3, 40.0])
def test_class_ridge_inverse_reads_bool_as_its_float_copy(shift):
    xs = np.random.default_rng(3).integers(0, 5, 50)
    K, B = gram(DELTA, xs), cross_gram(DELTA, xs, np.arange(-1, 7))  # -1, 5 and 6: no point equals them
    with np.errstate(all="raise"):  # no numpy warning on either path
        assert same_bits(class_ridge_inverse(K, shift, B), class_ridge_inverse(K.astype(float), shift,
                                                                               B.astype(float)))
    assert same_bits(class_ridge_inverse(K, shift), class_ridge_inverse(K.astype(float), shift))


def test_subset_refit_reads_bool_as_its_float_copy():
    model = delta_model(40)
    pivots = [3, 17, 0, 25, 9, 31]
    assert same_bits(subset_refit(model, pivots), subset_refit(float_grams(model), pivots))


def test_incomplete_cholesky_reads_bool_as_its_float_copy():
    K = delta_model(40).kgram
    got, want = incomplete_cholesky(K, 8), incomplete_cholesky(K.astype(float), 8)
    assert got.pivots == want.pivots
    assert same_bits(got.factor, want.factor)


@pytest.mark.parametrize("gamma", [1e-3, 1e-1])
def test_fista_solve_reads_bool_as_its_float_copy(gamma):
    model = delta_model(30, lam=0.1)
    got = fista_solve(SparseProblem(model.kgram, model.lgram, model.W, gamma), max_iter=400)
    want = fista_solve(SparseProblem(model.kgram.astype(float), model.lgram.astype(float), model.W, gamma),
                       max_iter=400)
    assert same_bits(got.M, want.M)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert got.gap.hex() == want.gap.hex() and got.objective.hex() == want.objective.hex()


@pytest.mark.parametrize("coefficients", [False, True], ids=["fitted", "coefficients"])
def test_empirical_risk_reads_bool_as_its_float_copy(coefficients):
    model, test = delta_model(60), delta_model(25, seed=1).train
    if coefficients:  # the sparse path's scoring: a coefficient matrix in place of W
        model = model.with_coefficients(np.where(np.abs(model.W) > 1e-3, model.W, 0.0))
    assert empirical_risk(model, test).hex() == empirical_risk(float_grams(model), test).hex()
