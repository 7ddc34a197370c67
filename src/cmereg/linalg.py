"""Dense symmetric linear algebra primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InputError, SingularMatrixError


@dataclass(frozen=True)
class SpdSolveResult:
    solution: np.ndarray
    residual_norm: float


def solve_spd(A) -> SpdSolveResult:
    """Inverse X of a symmetric positive definite A (A X = I): LAPACK dpotrf then
    dpotri, the lower triangle mirrored so X is exactly symmetric. residual_norm
    is the O(n^2) probe ||A (X 1) - 1|| / ||1||. Raises SingularMatrixError
    naming the failing pivot when A is not positive definite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise SingularMatrixError(info - 1)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of factorization")
    low, info = lapack.dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularMatrixError(abs(info) - 1, "inverse failed")
    X = low + low.T  # dpotrf zeroed the upper triangle (clean=1): only the diagonal doubles
    np.fill_diagonal(X, np.diagonal(low))
    # A v on scipy's BLAS (A.T: a Fortran view, no copy), as numpy's OpenBLAS pool would stall
    AX1 = blas.dgemv(1.0, A.T, X.sum(axis=1), trans=1)
    return SpdSolveResult(solution=X, residual_norm=float(np.linalg.norm(AX1 - 1.0)) / np.sqrt(len(A)))


def ridge_inverse(K, shift: float) -> np.ndarray:
    """(K + shift*I)^{-1} for a symmetric PSD K and shift > 0, via solve_spd."""
    A = np.array(K, dtype=float)
    A.flat[:: len(A) + 1] += shift
    return solve_spd(A).solution


def sym_eig_max(A) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, exact up to rounding (LAPACK).

    Round-off below zero is clamped, so a zero matrix gives 0.0. numpy's
    eigvalsh shares the OpenBLAS pool of the numpy products around its
    callers; scipy's eigh, on its own pool, stalled ~20 ms a call on 2 cores
    right after FISTA's products.
    """
    return max(0.0, float(np.linalg.eigvalsh(np.asarray(A, dtype=float))[-1]))


def soft_threshold(z, t):
    """Shrink toward zero: sign(z) * max(|z| - t, 0). Works elementwise on arrays.

    Computed as z - clip(z, -t, t), which gives the same values in two passes.
    """
    t = np.asarray(t)
    if np.any(t < 0):
        raise InputError("threshold must be nonnegative")
    return z - np.clip(z, -t, t)
