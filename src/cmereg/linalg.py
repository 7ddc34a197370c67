"""Dense linear algebra on scipy's BLAS/LAPACK, the one BLAS pool of the
fit -> score -> sparsify path (see README, Conventions)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh, lapack

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class SpdSolveResult:
    solution: np.ndarray
    residual_norm: float


def solve_spd(A) -> SpdSolveResult:
    """Inverse X of a symmetric positive definite A (A X = I): LAPACK dpotrf then
    dpotri, the lower triangle mirrored so X is exactly symmetric. residual_norm
    is the O(n^2) probe ||A (X 1) - 1|| / ||1||. Raises NumericalError
    naming the failing pivot when A is not positive definite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise NumericalError(f"non-positive pivot at index {info - 1}")
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of factorization")
    low, info = lapack.dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError("inverse failed")
    X = low + low.T  # dpotrf zeroed the upper triangle (clean=1): only the diagonal doubles
    np.fill_diagonal(X, np.diagonal(low))
    AX1 = blas.dgemv(1.0, A.T, X.sum(axis=1), trans=1)  # A.T: a Fortran view, no copy
    return SpdSolveResult(solution=X, residual_norm=float(blas.dnrm2(AX1 - 1.0)) / np.sqrt(len(A)))


def ridge_inverse(K, shift: float) -> np.ndarray:
    """(K + shift*I)^{-1} for a symmetric PSD K and shift > 0, via solve_spd."""
    A = np.array(K, dtype=float)
    A.flat[:: len(A) + 1] += shift
    return solve_spd(A).solution


def class_ridge_inverse(K, shift: float) -> np.ndarray:
    """(K + shift*I)^{-1} in O(n^2) for a delta Gram K (0/1, "same point") and
    shift > 0. K = P P^T for the one-hot P of its classes (a row's first 1 names
    its class); solve_spd inverts the m x m primal system P^T P + shift*I =
    diag(c + shift), c the class sizes. With g = 1/(c + shift) of a point's class,
    the inverse has g*(shift + c - 1)/shift on the diagonal, -g/shift between two
    points of one class and 0 elsewhere; c - 1 is an exact count, so nothing cancels.
    """
    K = np.asarray(K, dtype=float)
    _, cls, counts = np.unique(np.argmax(K, axis=1), return_inverse=True, return_counts=True)
    g = np.diagonal(solve_spd(np.diag(counts + shift)).solution)
    W = K * (-g / shift)[cls][:, None]
    W += 0.0  # -0.0 (0 times a negative) becomes 0.0; every other entry stays
    W.flat[:: len(W) + 1] = (g * (shift + (counts - 1)) / shift)[cls]
    return W


def matmul(A, B) -> np.ndarray:
    """A @ B by scipy's dgemm, C-ordered: dgemm forms the Fortran-ordered
    B^T A^T from views, so C- and F-ordered operands are never copied."""
    def fortran(X):  # an F-ordered array and the trans flag that make X^T
        X = np.asarray(X, dtype=float)
        return (X, 1) if X.flags.f_contiguous else (np.ascontiguousarray(X).T, 0)

    (b, tb), (a, ta) = fortran(B), fortran(A)
    return blas.dgemm(1.0, b, a, trans_a=tb, trans_b=ta).T


def sym_eig_max(A) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, exact up to rounding
    (LAPACK dsyevd, as numpy's eigvalsh, on scipy's BLAS pool).

    Round-off below zero is clamped, so a zero matrix gives 0.0.
    """
    return max(0.0, float(eigh(A, eigvals_only=True, driver="evd")[-1]))

