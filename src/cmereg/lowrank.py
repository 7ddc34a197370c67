"""Pivoted incomplete Cholesky of a Gram matrix and the subset-refit baseline.

The baseline semantics: the pivots select a training subset, the embedding is
refit on that subset, and the result is padded back to an n x n coefficient
matrix supported on the pivot rows/columns, so it can be scored by the same
machinery as the lasso solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import TrainingSet
from .errors import InputError, NumericalError
from .kernels import KernelSpec, gram
from .linalg import ridge_inverse


@dataclass(frozen=True)
class IncompleteCholesky:
    pivots: tuple  # selected training indices, in pivot order
    factor: np.ndarray  # (n, rank); factor @ factor.T approximates K
    residual_diag: tuple  # residual diagonal after each step (step 0 = K's diagonal)


def incomplete_cholesky(K: np.ndarray, max_rank: int, tol: float = 0.0) -> IncompleteCholesky:
    """Greedy max-residual-diagonal pivoting of a symmetric matrix (exactly
    equal to its transpose, as gram() builds it); stops at max_rank or when the
    largest residual diagonal entry falls to tol. Ties go to the lowest index."""
    A = np.asarray(K, dtype=float)
    if A.ndim != 2 or not np.array_equal(A, A.T):
        raise InputError("incomplete_cholesky needs a symmetric Gram matrix")
    n = A.shape[0]
    if not 1 <= max_rank <= n:
        raise InputError("max_rank must satisfy 1 <= max_rank <= n")
    if tol < 0:
        raise InputError("tol must be nonnegative")
    d = np.diag(A).copy()
    G = np.zeros((n, max_rank))
    pivots = []
    diags = [d.copy()]
    scale = max(float(np.trace(A)), 1.0)
    for t in range(max_rank):
        j = int(np.argmax(d))  # argmax takes the lowest index on ties
        if d[j] <= tol:
            break
        col = A[:, j] - G[:, :t] @ G[j, :t]
        G[:, t] = col / np.sqrt(d[j])
        d = d - G[:, t] ** 2
        d[j] = 0.0
        if np.min(d) < -1e-10 * scale:
            raise NumericalError(f"negative residual diagonal {np.min(d)}: input not PSD")
        d = np.maximum(d, 0.0)
        pivots.append(j)
        diags.append(d.copy())
    return IncompleteCholesky(
        pivots=tuple(pivots), factor=G[:, : len(pivots)], residual_diag=tuple(diags)
    )


def subset_refit(train: TrainingSet, pivots, kspec: KernelSpec, lam: float) -> np.ndarray:
    """Refit the ridge estimator on the pivot subset only; returns an n x n
    coefficient matrix with non-pivot rows (and columns) zero."""
    pivots = list(pivots)
    if len(pivots) == 0:
        raise InputError("pivots must be nonempty")
    if len(set(pivots)) != len(pivots):
        raise InputError("pivots must be distinct")
    if any(p < 0 or p >= train.n for p in pivots):
        raise InputError("pivot index out of range")
    M = np.zeros((train.n, train.n))
    M[np.ix_(pivots, pivots)] = ridge_inverse(gram(kspec, train.subset(pivots).xs), lam * len(pivots))
    return M
