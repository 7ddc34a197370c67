"""Dense linear algebra on scipy's BLAS/LAPACK, the one BLAS pool of the
fit -> score -> sparsify path and of policy iteration's sweeps (see README,
Conventions), and blas_threads, which sets the thread count of scipy's and
numpy's bundled OpenBLAS. A dense solve allocates its result and one n x n
work array, the copy of its matrix that LAPACK factors in place; a dense
inverse is that work array, inverted and mirrored in place.

The one module that touches scipy: blas, lapack and distance are the three
compiled modules the package calls (scipy.linalg._fblas, scipy.linalg._flapack
and scipy.spatial._distance_pybind), loaded on their own, without the
scipy.linalg and scipy.spatial packages, whose imports cost most of the CLI's
start-up."""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InputError, NumericalError


def _load(name: str):
    """scipy's compiled module `name`, from sys.modules if anything loaded it
    already, else from scipy's install directory, registered under its full name
    so a later import of its package binds the same module."""
    if name not in sys.modules:
        parent = name.rpartition(".")[0].split(".")[1:]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], *parent)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when it loads: an idle worker spins
# 2^t cycles before it sleeps, 2^28 by default (0.13 s at 2 GHz), also right after
# the load and on one thread. scipy's OpenBLAS loads with t = 20 (0.5 ms at 2 GHz)
# unless the caller set t, and the environment is restored either way. The least,
# t = 4, would also put workers to sleep between the BLAS calls of one LAPACK
# routine: a 2-thread dense ridge inverse at n = 120 ran 1.6x slower.
_saved = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
try:
    blas, lapack = _load("scipy.linalg._fblas"), _load("scipy.linalg._flapack")
    distance = _load("scipy.spatial._distance_pybind")
finally:
    if _saved is None:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


@dataclass(frozen=True)
class SpdSolveResult:
    solution: np.ndarray
    residual_norm: float


def solve_spd(A, B=None, shift: float = 0.0) -> SpdSolveResult:
    """Solution X of (A + shift*I) X = B for a symmetric A that the shift makes
    positive definite: LAPACK dpotrf then dpotrs. Without B, the inverse (B = I)
    by dpotri, one triangle mirrored in place so X is exactly symmetric. LAPACK
    reads A's upper triangle only, from one owned copy that takes the shift on
    its diagonal and is factored in place: a solve allocates X and that n x n
    work array, and an inverse only the work array, which it returns as X.
    residual_norm is the O(n^2) probe, which reads all of A,
    ||A (X 1) + shift (X 1) - B 1|| / ||B 1|| (the absolute norm when B 1 = 0).
    Raises NumericalError naming the failing pivot when A + shift*I is not
    positive definite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    if B is not None:
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise InputError("B must be a matrix with one row per row of A")
    work = np.array(A, order="C")
    work.flat[:: len(A) + 1] += shift
    # work.T is Fortran-ordered, so LAPACK factors the copy itself; its lower
    # triangle is A's upper one, which equals the lower for a symmetric A
    c, info = lapack.dpotrf(work.T, lower=1, overwrite_a=1)
    if info > 0:
        raise NumericalError(f"non-positive pivot at index {info - 1}")
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of factorization")
    if B is None:
        low, info = lapack.dpotri(c, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError("inverse failed")
        X = low.T  # the work array, C-ordered again: its upper triangle holds the inverse
        for i in range(1, len(X)):
            X[i, :i] = X[:i, i]
        X += 0.0  # -0.0 becomes 0.0, as adding the zeroed triangle (dpotrf's clean=1) gave
        B1, scale = np.ones(len(A)), np.sqrt(len(A))
    else:
        X, _ = lapack.dpotrs(c, B, lower=1)  # its info flags only a bad argument, ruled out above
        B1 = B.sum(axis=1)
        scale = float(blas.dnrm2(B1)) or 1.0
    X1 = X.sum(axis=1)
    AX1 = blas.dgemv(1.0, A.T, X1, trans=1)  # A.T: a Fortran view, no copy
    AX1 = blas.daxpy(X1, AX1, a=shift)  # BLAS, not numpy: a subnormal shift * X1 raises no underflow
    return SpdSolveResult(solution=X, residual_norm=float(blas.dnrm2(AX1 - B1)) / scale)


def class_ridge_inverse(K, shift: float, B=None) -> np.ndarray:
    """(K + shift*I)^{-1} in O(n^2) for a delta Gram K (0/1, "same point") and
    shift > 0. A column of K sums to c, the size of its point's class, and
    (K + shift*I)^{-1} has g*(shift + c - 1)/shift on the diagonal, -g/shift
    between two points of one class and 0 elsewhere, with g = 1/(c + shift) from
    one solve_spd of diag(the distinct sizes + shift); c - 1 is an exact count, so
    nothing cancels. Raises InputError when a diagonal entry of K is not 1, as for
    a NaN point, which equals nothing; ridge_coefficients checks what 1/shift gives.
    K and B are read in their own dtype, bool as kernels builds them, or float.

    Given B, a delta cross-Gram of K's points against any queries, returns
    (K + shift*I)^{-1} B instead: column j of B times g of its column sum, the
    size of query j's class. No 1/shift enters, so no digit is lost at any shift.
    An all-0 column (a query no point equals) takes the g of size 1: it scales
    only zeros, where 1/shift could overflow to inf and 0 * inf is NaN.
    """
    K = np.asarray(K)  # no float copy: the sums and products below read a bool K exactly
    if not np.all(np.diagonal(K) == 1.0):  # a 0 would be a point outside its own class
        raise InputError("a delta Gram needs 1 on its diagonal: each point must equal itself")
    C = K if B is None else np.asarray(B)
    sizes, cls = np.unique(C.sum(axis=0), return_inverse=True)  # column j counts the points equal to j's
    g = np.diagonal(solve_spd(np.diag(np.maximum(sizes, 1.0)), shift=shift).solution)[cls]
    if B is not None:
        return C * g
    with np.errstate(over="ignore", invalid="ignore"):  # 1/shift may overflow, and 0 * inf is NaN
        W = K * (-g / shift)
        W += 0.0  # -0.0 (0 times a negative) becomes 0.0; every other entry stays
        W.flat[:: len(W) + 1] = g * (shift + (sizes[cls] - 1)) / shift
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
    """Largest eigenvalue of a symmetric PSD matrix, exact up to rounding: LAPACK
    dsyevd on the lower triangle, called as scipy.linalg.eigh(A, eigvals_only=True,
    driver="evd") calls it. Round-off below zero is clamped, so a zero matrix gives
    0.0. A non-square A raises InputError; a non-finite one NumericalError, since
    the clamp would read a NaN as 0."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    if not np.all(np.isfinite(A)):
        raise NumericalError("A has a non-finite entry: no eigenvalues")
    lwork, liwork, _ = lapack.dsyevd_lwork(len(A), compute_v=0, lower=1)  # eigh's workspace query
    w, _, info = lapack.dsyevd(A, compute_v=0, lower=1, lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise NumericalError(f"eigenvalues did not converge (dsyevd info {info})")
    return max(0.0, float(w[-1]))


# The OpenBLAS that scipy and numpy each bundle in <package>.libs: (package, library
# pattern, symbol suffix). numpy's is the 64-bit-integer build.
_OPENBLAS = ((scipy, "libscipy_openblas-*.so", ""), (np, "libscipy_openblas64_-*.so", "64_"))
_pools = None  # [(get_num_threads, set_num_threads)] of each pool found, resolved on first use


def _thread_pools() -> list:
    global _pools
    if _pools is None:
        _pools = []
        for pkg, pattern, suffix in _OPENBLAS:
            libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
            for path in glob.glob(os.path.join(libs, pattern)):
                lib = ctypes.CDLL(path)  # the library the package already loaded
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    _pools.append((get, put))
    return _pools


@contextmanager
def blas_threads(k: int):
    """Run the block with both bundled OpenBLAS pools (scipy's and numpy's) on k
    threads, then give each pool back its earlier count, also if the block raises.
    A pool whose library or symbols are not found is left alone."""
    pools = _thread_pools()
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(k)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, before):
            put(count)
