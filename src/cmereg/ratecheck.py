"""Finite-alphabet oracles and empirical convergence-rate experiments.

With delta kernels on both sides the output RKHS is the simplex coordinate
space, the best embedding of x is the conditional probability row p(.|x),
and a predictor's excess surrogate risk is exactly its p(x)-weighted squared
distance to those rows. That turns asymptotic risk statements into checkable
finite computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .embedding import EmbeddingModel, TrainingSet, alpha_batch, fit
from .errors import InputError, NumericalError
from .kernels import KernelSpec

_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    px: np.ndarray  # marginal over the x symbols, coded 0..|X|-1
    pyx: np.ndarray  # row-stochastic, pyx[i, j] = p(y_j | x_i); y symbols coded 0..|Y|-1

    def __post_init__(self):
        px = np.asarray(self.px, dtype=float)
        pyx = np.asarray(self.pyx, dtype=float)
        object.__setattr__(self, "px", px)
        object.__setattr__(self, "pyx", pyx)
        if px.ndim != 1 or pyx.ndim != 2 or len(pyx) != len(px):
            raise InputError("pyx must be |X| x |Y|, with one row per px entry")
        if not (np.all(np.isfinite(px)) and np.all(np.isfinite(pyx))):  # NaN passes every check below
            raise InputError("probabilities must be finite")
        if np.any(px < 0) or np.any(pyx < 0):
            raise InputError("probabilities must be nonnegative")
        if abs(px.sum() - 1.0) > _TOL:
            raise InputError("px must sum to 1")
        if np.any(np.abs(pyx.sum(axis=1) - 1.0) > _TOL):
            raise InputError("every pyx row must sum to 1")


@dataclass(frozen=True)
class RateResult:
    n: int
    excess: float
    seed: int
    lambda_used: float


def sample(dist: DiscreteDistribution, n: int, seed: int) -> TrainingSet:
    """Draw n i.i.d. pairs as integer codes (row and column indices of
    dist.pyx); deterministic per seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = default_rng(seed)
    xi = rng.choice(len(dist.px), size=n, p=dist.px)
    cum = np.cumsum(dist.pyx, axis=1)
    u = rng.random(n)
    yi = (u[:, None] > cum[xi]).sum(axis=1)
    return TrainingSet(xi, yi)


def conditional_table(dist: DiscreteDistribution, model: EmbeddingModel) -> np.ndarray:
    """Model-predicted coefficient on each y symbol, per x symbol: row x is the
    predicted vector mu_hat(x) in simplex coordinates, for a model fitted on sample's codes."""
    if model.kspec.variant != "delta" or model.lspec.variant != "delta":
        raise InputError("exact risk evaluation needs delta kernels on both sides")
    A = alpha_batch(model, np.arange(len(dist.px)))  # (|X|, n)
    table = np.zeros(dist.pyx.shape)
    # unbuffered, in index order: the sums of a loop over the training outputs
    np.add.at(table, (slice(None), model.train.ys), A)
    return table


def excess_risk(dist: DiscreteDistribution, table) -> float:
    """Exact excess surrogate risk of a predictor over the true embedding,
    sum_x px ||table_x - p(.|x)||^2: the risk minus the irreducible risk,
    summed directly, so it keeps its digits as the table nears dist.pyx.

    `table` has shape (|X|, |Y|) and gives the predicted vector per x symbol,
    as conditional_table does for a fitted model.
    """
    table = np.asarray(table, dtype=float)
    if table.shape != dist.pyx.shape:
        raise InputError("predictor table must be |X| x |Y|")
    return float(np.sum(dist.px * np.sum((table - dist.pyx) ** 2, axis=1)))


def rate_experiment(
    dist: DiscreteDistribution, n_grid, seeds, schedule=(1.0, 0.5)
) -> list[RateResult]:
    """Fit delta-kernel models at each (n, seed) with lambda_n = a * n^(-beta)
    and record the exact excess surrogate risk. A shift lambda_n * n so small that
    a coefficient is not finite, or the excess breaks the bound 2 that holds for any
    delta fit, raises NumericalError naming n, the seed and the shift."""
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InputError("n_grid must be strictly ascending")
    seeds = list(seeds)
    if not seeds:
        raise InputError("seeds must be nonempty")
    a, beta = schedule
    dspec = KernelSpec("delta")
    results = []
    for n in n_grid:
        try:
            lam = a * n ** (-beta)
        except OverflowError:
            raise NumericalError(f"rate schedule a * n^(-beta) overflows at n={n}") from None
        for seed in seeds:
            # the model lives only inside conditional_table: freed before the next fit, so the peak holds one
            try:
                table = conditional_table(dist, fit(sample(dist, n, seed), dspec, dspec, lam))
                excess = excess_risk(dist, table)
                # a delta fit's table row is nonnegative and sums to at most 1, so its excess is at
                # most 2 (NaN fails too)
                if not excess <= 2.0:
                    raise NumericalError(f"excess {excess:.6g} is not <= 2, a delta fit's bound")
            except NumericalError as exc:
                raise NumericalError(f"rate fit at n={n}, seed={seed}, lambda*n={lam * n:.6g}: {exc}") from None
            results.append(RateResult(n=n, excess=excess, seed=seed, lambda_used=lam))
    return results


def rate_slope(results) -> float:
    """Least-squares slope of log mean excess against log n. A mean excess that is
    not a positive finite number has no logarithm: NumericalError names its n."""
    by_n = {}
    for r in results:
        by_n.setdefault(r.n, []).append(r.excess)
    if len(by_n) < 3:
        raise InputError("need at least 3 distinct n values")
    ns = np.array(sorted(by_n))
    means = np.array([np.mean(by_n[n]) for n in ns])
    bad = ~((means > 0.0) & (means < np.inf))  # NaN fails both
    if np.any(bad):
        raise NumericalError(f"mean excess {means[bad][0]:.6g} at n={ns[bad][0]} has no logarithm: no slope")
    return float(np.polyfit(np.log(ns), np.log(means), 1)[0])
