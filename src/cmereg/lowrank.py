"""Pivoted incomplete Cholesky of a Gram matrix and the subset-refit baseline.

The baseline semantics: the pivots select a training subset, the embedding is
refit on that subset, and the result is padded back to an n x n coefficient
matrix supported on the pivot rows/columns, so it can be scored by the same
machinery as the lasso solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingModel, ridge_coefficients
from .errors import InputError, NumericalError
from .linalg import blas


@dataclass(frozen=True)
class IncompleteCholesky:
    pivots: tuple  # selected training indices, in pivot order
    factor: np.ndarray  # (n, rank); factor @ factor.T approximates K


def incomplete_cholesky(K: np.ndarray, max_rank: int) -> IncompleteCholesky:
    """Greedy max-residual-diagonal pivoting of a symmetric matrix (exactly
    equal to its transpose, as gram() builds it); stops at max_rank or when the
    largest residual diagonal entry falls to 0. Ties go to the lowest index, so
    the pivots of a run to a smaller max_rank are a prefix of these."""
    A = np.asarray(K, dtype=float)
    if A.ndim != 2 or not np.array_equal(A, A.T):
        raise InputError("incomplete_cholesky needs a symmetric Gram matrix")
    n = A.shape[0]
    if not 1 <= max_rank <= n:
        raise InputError("max_rank must satisfy 1 <= max_rank <= n")
    d = np.diag(A).copy()
    G = np.zeros((n, max_rank), order="F")  # G[:, :t] is Fortran-contiguous for dgemv
    pivots = []
    scale = max(float(np.trace(A)), 1.0)
    for t in range(max_rank):
        j = int(np.argmax(d))  # argmax takes the lowest index on ties
        if d[j] <= 0.0:
            break
        col = A[:, j] - blas.dgemv(1.0, G[:, :t], G[j, :t]) if t else A[:, j]
        G[:, t] = col / np.sqrt(d[j])
        d = d - G[:, t] ** 2
        d[j] = 0.0
        if np.min(d) < -1e-10 * scale:
            raise NumericalError(f"negative residual diagonal {np.min(d)}: input not PSD")
        d = np.maximum(d, 0.0)
        pivots.append(j)
    return IncompleteCholesky(pivots=tuple(pivots), factor=G[:, : len(pivots)])


def subset_refit(model: EmbeddingModel, pivots) -> np.ndarray:
    """Refit the model's ridge estimator on the pivot subset only, from the
    pivot block of its Gram; returns an n x n coefficient matrix with non-pivot
    rows (and columns) zero."""
    pivots = list(pivots)
    n = model.train.n
    if len(pivots) == 0:
        raise InputError("pivots must be nonempty")
    if len(set(pivots)) != len(pivots):
        raise InputError("pivots must be distinct")
    if any(p < 0 or p >= n for p in pivots):
        raise InputError("pivot index out of range")
    block = np.ix_(pivots, pivots)
    M = np.zeros((n, n))
    M[block] = ridge_coefficients(model.kspec, model.kgram[block], model.lam * len(pivots))
    return M
