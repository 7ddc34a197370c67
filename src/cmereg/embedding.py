"""Conditional mean embeddings as vector-valued ridge regressors.

The fitted model stores the coefficient matrix W = (K + lambda*n*I)^{-1};
the embedding at x is mu(x) = sum_i alpha_i(x) L(y_i, .) with
alpha(x) = W k_x, (k_x)_j = K(x_j, x).

NOTE on conventions: ``lam`` always means the ridge shift lambda*n (the
regularized objective weighs the squared norm by lam*n), so models fitted
with the same lam are comparable across sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError
from .kernels import KernelSpec, cross_gram, diag, gram
from .linalg import ridge_inverse

_CLAMP = 1e-10


def _subset(points, idx):
    if isinstance(points, np.ndarray):
        return points[idx]
    return [points[i] for i in idx]


@dataclass(frozen=True)
class TrainingSet:
    xs: object  # (n, d) array for numeric kernels, or a list of symbols
    ys: object

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise InputError("xs and ys must have equal length")
        if len(self.xs) == 0:
            raise InputError("training set must be nonempty")

    @property
    def n(self) -> int:
        return len(self.xs)

    def subset(self, idx) -> "TrainingSet":
        return TrainingSet(_subset(self.xs, idx), _subset(self.ys, idx))


@dataclass(frozen=True)
class EmbeddingModel:
    train: TrainingSet
    kspec: KernelSpec
    lspec: KernelSpec
    lam: float
    W: np.ndarray
    kgram: np.ndarray
    lgram: np.ndarray

    def with_coefficients(self, M: np.ndarray) -> "EmbeddingModel":
        """Same training data and kernels, but an alternative coefficient matrix
        (e.g. a sparse approximation of W)."""
        M = np.asarray(M, dtype=float)
        if M.shape != self.W.shape:
            raise InputError("coefficient matrix has wrong shape")
        return replace(self, W=M)


def fit(train: TrainingSet, kspec: KernelSpec, lspec: KernelSpec, lam: float) -> EmbeddingModel:
    """Fit the ridge estimator: W = (K + lam*n*I)^{-1}."""
    if not lam > 0:
        raise InputError("lam must be positive")
    n = train.n
    kg = gram(kspec, train.xs)
    W = ridge_inverse(kg, lam * n)
    lg = gram(lspec, train.ys)
    return EmbeddingModel(train=train, kspec=kspec, lspec=lspec, lam=lam, W=W, kgram=kg, lgram=lg)


def alpha_batch(model: EmbeddingModel, xs) -> np.ndarray:
    """Rows are alpha(x) = W k_x for each query point x; shape (m, n)."""
    Kq = cross_gram(model.kspec, model.train.xs, xs)  # (n, m)
    return (model.W @ Kq).T


def cond_expect(model: EmbeddingModel, h_values, x) -> float:
    """Estimated conditional expectation of h given x, from h's values at the
    training outputs: sum_i alpha_i(x) h(y_i)."""
    h = np.asarray(h_values, dtype=float)
    if h.shape != (model.train.n,):
        raise InputError("h_values must have one entry per training point")
    return float(alpha_batch(model, [x])[0] @ h)


def _clamp_loss(val: float) -> float:
    if val < -_CLAMP:
        raise NumericalError(f"point loss {val} below round-off tolerance")
    return max(val, 0.0)


def _losses(model: EmbeddingModel, test: TrainingSet) -> np.ndarray:
    """Squared output-space distance ||L(y,.) - mu(x)||^2 for each test pair
    (x, y), by the kernel trick."""
    A = alpha_batch(model, test.xs)  # (m, n)
    Lc = cross_gram(model.lspec, model.train.ys, test.ys)  # (n, m)
    quad = np.sum((A @ model.lgram) * A, axis=1)
    vals = diag(model.lspec, test.ys) - 2.0 * np.sum(A * Lc.T, axis=1) + quad
    return np.array([_clamp_loss(v) for v in vals])


def empirical_risk(model: EmbeddingModel, test: TrainingSet) -> float:
    """Mean held-out squared embedding loss (mean, not sum, so values are
    comparable across test-set sizes)."""
    return float(np.mean(_losses(model, test)))


def embedding_norm_sq(model: EmbeddingModel) -> float:
    """Squared RKHS norm of the represented embedding: tr(K W L W^T)."""
    W, K, L = model.W, model.kgram, model.lgram
    return float(np.trace(K @ W @ L @ W.T))


def regularized_objective(model: EmbeddingModel) -> float:
    """Training loss plus ridge penalty; minimized by the fitted W."""
    n = model.train.n
    loss = float(np.sum(_losses(model, model.train)))
    return loss + model.lam * n * embedding_norm_sq(model)


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
    rng = np.random.default_rng(seed)
    perm = rng.permutation(train.n)
    blocks = np.array_split(perm, folds)
    errors = np.zeros((len(grid), folds))
    for g, (lam, bw) in enumerate(grid):
        ks = kspec if bw is None else replace(kspec, bandwidth=float(bw))
        for f, held in enumerate(blocks):
            rest = np.concatenate([b for j, b in enumerate(blocks) if j != f])
            model = fit(train.subset(rest), ks, lspec, lam)
            errors[g, f] = empirical_risk(model, train.subset(held))
    means = errors.mean(axis=1)
    best = 0
    for g in range(1, len(grid)):
        if means[g] < means[best] or (means[g] == means[best] and grid[g][0] > grid[best][0]):
            best = g
    return CvReport(grid=grid, fold_errors=errors, best=best)
