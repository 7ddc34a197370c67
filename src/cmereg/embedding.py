"""Conditional mean embeddings as vector-valued ridge regressors.

The embedding at x is mu(x) = sum_i alpha_i(x) L(y_i, .) with
alpha(x) = W k_x, (k_x)_j = K(x_j, x), and W = (K + lambda*n*I)^{-1}. A fitted
model holds the two Grams; alpha comes from one regularized solve, and W is
formed only when something reads it.

NOTE on conventions: ``lam`` always means the ridge shift lambda*n (the
regularized objective weighs the squared norm by lam*n), so models fitted
with the same lam are comparable across sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import InputError, NumericalError
from .kernels import KernelSpec, cross_gram, diag, gram
from .linalg import class_ridge_inverse, matmul, solve_spd

_CLAMP = 1e-10


@dataclass(frozen=True)
class TrainingSet:
    xs: np.ndarray  # (n,) or (n, d) numeric points; a finite alphabet as integer codes
    ys: np.ndarray

    def __post_init__(self):
        for name in ("xs", "ys"):
            try:
                arr = np.asarray(getattr(self, name))
            except ValueError:  # numpy's "inhomogeneous shape"
                raise InputError(f"{name} must be points of one shape") from None
            if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
                raise InputError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if len(self.xs) != len(self.ys):
            raise InputError("xs and ys must have equal length")
        if len(self.xs) == 0:
            raise InputError("training set must be nonempty")

    @property
    def n(self) -> int:
        return len(self.xs)

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(self.xs[idx], self.ys[idx])


@dataclass(frozen=True)
class EmbeddingModel:
    train: TrainingSet
    kspec: KernelSpec
    lspec: KernelSpec
    lam: float
    kgram: np.ndarray
    lgram: np.ndarray
    coefficients: np.ndarray | None = None  # used in place of the ridge inverse; see with_coefficients

    @cached_property
    def W(self) -> np.ndarray:
        """The coefficient matrix: the given coefficients, else (K + lam*n*I)^{-1},
        formed by ridge_coefficients on first read and kept."""
        if self.coefficients is not None:
            return self.coefficients
        return ridge_coefficients(self.kspec, self.kgram, self.lam * self.train.n)

    def with_coefficients(self, M: np.ndarray) -> "EmbeddingModel":
        """Same training data and kernels, but an alternative n x n coefficient
        matrix (e.g. a sparse approximation of W)."""
        M = np.asarray(M, dtype=float)
        if M.shape != (self.train.n, self.train.n):
            raise InputError("coefficient matrix has wrong shape")
        return replace(self, coefficients=M)


def fit(train: TrainingSet, kspec: KernelSpec, lspec: KernelSpec, lam: float) -> EmbeddingModel:
    """Fit the ridge estimator W = (K + lam*n*I)^{-1}: build both Grams. Nothing
    is solved until alpha_batch or a read of W asks for it."""
    if not lam > 0:
        raise InputError("lam must be positive")
    _check_shift(lam * train.n)
    kg = gram(kspec, train.xs)
    lg = gram(lspec, train.ys)
    return EmbeddingModel(train=train, kspec=kspec, lspec=lspec, lam=lam, kgram=kg, lgram=lg)


def _check_shift(shift: float):
    """A shift that overflowed to inf (a huge lambda times n) raises NumericalError:
    its inverse would be zeros or NaN."""
    if not np.isfinite(shift):
        raise NumericalError(f"ridge shift lambda*n = {shift} is not finite")


def ridge_coefficients(kspec: KernelSpec, K, shift: float, B=None) -> np.ndarray:
    """(K + shift*I)^{-1} for a Gram K of kspec, or (K + shift*I)^{-1} B given B:
    by its class sizes for a delta kernel (where B must be a delta cross-Gram of
    K's points), else the dense SPD solve. Either way one linalg.solve_spd, and a
    non-finite entry of the result (1/shift overflowed) raises NumericalError."""
    _check_shift(shift)
    if kspec.variant == "delta":
        X = class_ridge_inverse(K, shift, B)
    else:
        X = solve_spd(K, B, shift).solution
    if not np.all(np.isfinite(X)):
        raise NumericalError(f"ridge system with shift {shift:.6g} has a non-finite solution")
    return X


def alpha_batch(model: EmbeddingModel, xs) -> np.ndarray:
    """Rows are alpha(x) = W k_x for each query point x; shape (m, n). A model
    with coefficients multiplies by them; a fitted model solves
    (K + lam*n*I) alpha = k_x and never reads W, so its rows are the same bits
    whether or not W was formed."""
    Kq = cross_gram(model.kspec, model.train.xs, xs)  # (n, m)
    if model.coefficients is not None:
        return matmul(model.coefficients, Kq).T
    return ridge_coefficients(model.kspec, model.kgram, model.lam * model.train.n, Kq).T


def _clamp_losses(vals: np.ndarray) -> np.ndarray:
    """vals with round-off below zero set to 0 (-0.0 kept, unlike np.maximum);
    raises NumericalError naming the first value below -_CLAMP."""
    low = vals < -_CLAMP
    if np.any(low):
        raise NumericalError(f"point loss {vals[np.argmax(low)]} below round-off tolerance")
    return np.where(vals < 0.0, 0.0, vals)


def _losses(model: EmbeddingModel, test: TrainingSet) -> np.ndarray:
    """Squared output-space distance ||L(y,.) - mu(x)||^2 for each test pair
    (x, y), by the kernel trick."""
    A = alpha_batch(model, test.xs)  # (m, n)
    Lc = cross_gram(model.lspec, model.train.ys, test.ys)  # (n, m)
    quad = np.sum(matmul(A, model.lgram) * A, axis=1)
    vals = diag(model.lspec, test.ys) - 2.0 * np.sum(A * Lc.T, axis=1) + quad
    return _clamp_losses(vals)


def empirical_risk(model: EmbeddingModel, test: TrainingSet) -> float:
    """Mean held-out squared embedding loss (mean, not sum, so values are
    comparable across test-set sizes)."""
    losses = _losses(model, test)
    with np.errstate(over="ignore"):  # finite losses near the largest float can overflow their sum
        risk = float(np.mean(losses))
    if not np.isfinite(risk):
        raise NumericalError(f"mean loss {risk} over {len(losses)} test points is not finite")
    return risk


def regularized_objective(model: EmbeddingModel) -> float:
    """Training loss plus lam*n times the embedding's squared RKHS norm
    tr(K W L W^T) = <K W L, W>; minimized by the fitted W."""
    W, n = model.W, model.train.n
    loss = float(np.sum(_losses(model, model.train)))
    return loss + model.lam * n * float(np.sum(matmul(matmul(model.kgram, W), model.lgram) * W))


@dataclass(frozen=True)
class CvReport:
    grid: tuple  # (lam, kernel-parameter) tuples
    fold_errors: np.ndarray  # (len(grid), folds)
    best: int


def cross_validate(
    train: TrainingSet,
    kspec: KernelSpec,
    lspec: KernelSpec,
    grid,
    folds: int,
    seed: int,
) -> CvReport:
    """Grid search over (lam, input bandwidth) by k-fold cross validation on the
    held-out embedding loss. Fold assignment is a seeded shuffle split into
    contiguous blocks; ties on the mean error go to the larger lam."""
    grid = tuple((float(lam), bw) for lam, bw in grid)
    if len(grid) == 0:
        raise InputError("grid must be nonempty")
    if folds < 2 or folds > train.n:
        raise InputError("folds must satisfy 2 <= folds <= n")
    rng = default_rng(seed)
    perm = rng.permutation(train.n)
    blocks = np.array_split(perm, folds)
    splits = [(train.subset(np.concatenate(blocks[:f] + blocks[f + 1:])), train.subset(held))
              for f, held in enumerate(blocks)]  # (fit on, score on) per fold
    errors = np.zeros((len(grid), folds))
    for g, (lam, bw) in enumerate(grid):
        ks = kspec if bw is None else replace(kspec, bandwidth=float(bw))
        for f, (rest, held) in enumerate(splits):
            # bound through the next fit: freed first, its pages could go back to the system and fault in again
            model = fit(rest, ks, lspec, lam)
            errors[g, f] = empirical_risk(model, held)
    with np.errstate(over="ignore"):  # finite fold errors near the largest float can overflow their sum
        means = errors.mean(axis=1)
    bad = ~np.isfinite(means)
    if np.any(bad):
        g = int(np.argmax(bad))
        raise NumericalError(f"mean fold error {means[g]} at grid point {g} is not finite")
    best = min(range(len(grid)), key=lambda g: (means[g], -grid[g][0]))
    return CvReport(grid=grid, fold_errors=errors, best=best)
