"""Dense symmetric linear algebra primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InputError, SingularMatrixError


@dataclass(frozen=True)
class SpdSolveResult:
    solution: np.ndarray
    residual_norm: float


def solve_spd(A, B) -> SpdSolveResult:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Raises SingularMatrixError naming the failing pivot when A is not
    positive definite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    if B.shape[0] != A.shape[0]:
        raise InputError("A and B have incompatible shapes")
    b2d = B if B.ndim == 2 else B[:, None]
    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise SingularMatrixError(info - 1)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of factorization")
    X, info = lapack.dpotrs(c, b2d, lower=1)
    if info != 0:
        raise SingularMatrixError(abs(info) - 1, "triangular solve failed")
    residual = float(np.linalg.norm(A @ X - b2d))
    X = X if B.ndim == 2 else X[:, 0]
    return SpdSolveResult(solution=X, residual_norm=residual)


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
