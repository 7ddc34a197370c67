"""Sparse approximation of the embedding coefficient matrix.

Minimizes  F(M) = tr((M - W)^T K (M - W) L) + gamma * penalty(M)  with FISTA
(Beck & Teboulle 2009).

Penalties: entrywise_l1 (sum |M_ij|), row_group (sum of row l2 norms),
col_group (sum of column l2 norms). PENALTIES gives each one's value,
proximal map and dual norm.

The gradient step uses the standard step size 1/Lip with
Lip = 2 * lammax(K) * lammax(L) and threshold gamma/Lip, the standard
accelerated proximal-gradient constants for this objective. Every solution
carries its relative duality gap (duality_gap), which bounds how far F(M)
lies above the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .embedding import EmbeddingModel, TrainingSet, empirical_risk
from .errors import InputError, NumericalError
from .kernels import cross_gram
from .linalg import blas, matmul, sym_eig_max

_NNZ_EPS = 1e-12


def _shrink(V, t: float, out=None):
    """sign(V) * max(|V| - t, 0) for t >= 0, as V - clip(V, -t, t): the same values in two passes."""
    clipped = np.clip(V, -t, t, out=out)
    return np.subtract(V, clipped, out=out)


def _group_norms(V: np.ndarray, axis: int) -> np.ndarray:
    """The l2 norm of each group; a group runs along axis (1: rows, 0: columns)."""
    return np.sqrt(np.sum(V * V, axis=axis, keepdims=True))


def _group_shrink(V: np.ndarray, t: float, axis: int, out=None) -> np.ndarray:
    """Shrink each group's l2 norm by t."""
    norms = _group_norms(V, axis)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return np.multiply(V, scale, out=out)


# name -> (penalty at M, proximal map of t * penalty at V for t >= 0 (written
# into out when given), dual norm at G)
PENALTIES = {
    "entrywise_l1": (lambda M: blas.dasum(np.ravel(M)), _shrink, lambda G: np.max(np.abs(G))),
    "row_group": (lambda M: np.sum(_group_norms(M, 1)), partial(_group_shrink, axis=1),
                  lambda G: np.max(_group_norms(G, 1))),
    "col_group": (lambda M: np.sum(_group_norms(M, 0)), partial(_group_shrink, axis=0),
                  lambda G: np.max(_group_norms(G, 0))),
}


@dataclass(frozen=True)
class SparseProblem:
    K: np.ndarray
    L: np.ndarray
    W: np.ndarray
    gamma: float
    penalty: str = "entrywise_l1"

    def __post_init__(self):
        for name in ("K", "L", "W"):  # float64 once: a delta model's bool Grams are not converted per product
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.W.shape[0]
        if self.W.shape != (n, n):
            raise InputError("W must be square")
        if self.K.shape != (n, n) or self.L.shape != (n, n):
            raise InputError("K, L, W must share one square shape")
        if not (np.all(np.isfinite(self.K)) and np.all(np.isfinite(self.L)) and np.all(np.isfinite(self.W))):
            raise InputError("K, L, W must be finite-valued")
        if self.gamma < 0:
            raise InputError("gamma must be nonnegative")
        if not isinstance(self.penalty, str) or self.penalty not in PENALTIES:
            raise InputError(f"unknown penalty {self.penalty!r}")


@dataclass(frozen=True)
class SparseSolution:
    M: np.ndarray
    objective: float
    iterations: int
    converged: bool  # the relative-objective rule fired before max_iter ran out
    gap: float  # relative duality gap at M (duality_gap)


def smooth_part(problem: SparseProblem, M: np.ndarray) -> float:
    D = M - problem.W
    return float(np.sum(matmul(matmul(problem.K, D), problem.L) * D))


def _shaped(problem: SparseProblem, M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != problem.W.shape:
        raise InputError("M has wrong shape")
    return M


def lasso_objective(problem: SparseProblem, M: np.ndarray) -> float:
    M = _shaped(problem, M)
    return smooth_part(problem, M) + problem.gamma * float(PENALTIES[problem.penalty][0](M))


def grad_smooth(problem: SparseProblem, M: np.ndarray) -> np.ndarray:
    M = _shaped(problem, M)
    return matmul(matmul(2.0 * problem.K, M - problem.W), problem.L)


def kl_distance(problem: SparseProblem, M: np.ndarray) -> float:
    """Tensor-product RKHS distance between the embeddings represented by M
    and by W: sqrt(tr((M-W)^T K (M-W) L))."""
    M = _shaped(problem, M)
    return float(np.sqrt(max(smooth_part(problem, M), 0.0)))


def duality_gap(problem: SparseProblem, M, KDL) -> float:
    """Relative duality gap (F - D) / F at M, given KDL = K (M - W) L.

    With h = <M - W, KDL> the smooth part, F = h + gamma * penalty(M) and
    G = 2 KDL the gradient at M, Y = -c G with c = min(1, gamma / pen*(G))
    (pen* the penalty's dual norm) is dual feasible. Its dual value is
    D = -c <G, W> - c^2 h, which needs no inverse of K or L, and F - D >= 0
    bounds F - min F. Reads 0 where F <= 0, since no M does better.
    """
    M = _shaped(problem, M)
    value, _, dual_norm = PENALTIES[problem.penalty]
    gamma, kdl = problem.gamma, np.ravel(KDL)
    h = float(blas.ddot(np.ravel(M - problem.W), kdl))
    F = h + gamma * float(value(M))
    if not F > 0:
        return 0.0
    dual = 2.0 * float(dual_norm(KDL))
    c = 1.0 if dual <= gamma else gamma / dual
    D = -2.0 * c * float(blas.ddot(kdl, np.ravel(problem.W))) - c * c * h
    return (F - D) / F


def _aligned(shape, order="C") -> np.ndarray:
    """An uninitialized float array whose data start on a 64-byte boundary. FISTA's
    buffers take one each, so its speed does not depend on where the heap puts them
    (an n = 120 iteration ran about 6% slower with them on 16-byte offsets), and
    blas.dasum, whose sum depends on the address, sees one layout."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    return buf[(-buf.ctypes.data % 64) // 8:][:size].reshape(shape, order=order)


def fista_solve(
    problem: SparseProblem, max_iter: int = 20000, tol: float = 1e-8, start=None
) -> SparseSolution:
    """Accelerated proximal gradient descent from M = start (zero by default).

    With c = 2/Lip, P(Z) = Z - c K (Z - W) L is the gradient step at Z. P is
    affine and the extrapolation weights 1 + beta and -beta sum to 1, so the
    step at the extrapolated point is (1 + beta) P(Z_k) - beta P(Z_{k-1}).
    Each iteration therefore forms one product K D L on D = Z - W, into
    buffers allocated once per solve; it gives both the objective
    <D, K D L> + gamma * penalty(Z) and the next P. Stops when the relative
    objective change drops below tol (converged) or max_iter is reached;
    deterministic. At gamma = 0 it returns the minimizer W, converged after 0
    iterations with gap 0.
    """
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    if not tol > 0:
        raise InputError("tol must be positive")
    W = np.ascontiguousarray(problem.W)
    Z = _aligned(W.shape)
    Z.fill(0.0)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != W.shape:
            raise InputError("start has wrong shape")
        if not np.all(np.isfinite(start)):
            raise InputError("start must be finite-valued")
        Z[...] = start
    if problem.gamma == 0:
        return SparseSolution(W.copy(), 0.0, 0, converged=True, gap=0.0)
    gamma = problem.gamma
    value, shrink, _ = PENALTIES[problem.penalty]
    lip = 2.0 * sym_eig_max(problem.K) * sym_eig_max(problem.L)
    step = 1.0 / lip if lip > 0 else 1.0
    c, thresh = 2.0 * step, gamma * step
    # dgemm forms (K D L)^T = L^T (D^T K^T) from F-ordered operands into
    # F-ordered buffers; its transpose is K D L, C-ordered like every other array.
    Kt = np.asfortranarray(problem.K.T)
    Lt = np.asfortranarray(problem.L.T)
    DK, DKL = _aligned(W.shape, order="F"), _aligned(W.shape, order="F")
    D, V, P, P_prev = (_aligned(W.shape) for _ in range(4))

    def objective() -> float:
        """F(Z), leaving D = Z - W and (K D L)^T in the buffers."""
        nonlocal DK, DKL
        np.subtract(Z, W, out=D)
        DK = blas.dgemm(1.0, D.T, Kt, c=DK, overwrite_c=1)
        DKL = blas.dgemm(1.0, Lt, DK, c=DKL, overwrite_c=1)
        return float(blas.ddot(D.reshape(-1), DKL.T.reshape(-1))) + gamma * float(value(Z))

    obj = obj_prev = objective()
    np.subtract(Z, c * DKL.T, out=P)
    P_prev[...] = P
    theta, beta = 1.0, 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        np.multiply(P, 1.0 + beta, out=V)
        blas.daxpy(P_prev.reshape(-1), V.reshape(-1), a=-beta)  # in place: V is a C-ordered float buffer
        shrink(V, thresh, out=Z)
        obj = objective()
        if not math.isfinite(obj):
            raise NumericalError(f"objective became non-finite at iteration {it}")
        if abs(obj - obj_prev) <= tol * abs(obj_prev):
            converged = True
            break
        obj_prev = obj
        P, P_prev = P_prev, P
        np.multiply(DKL.T, -c, out=P)
        P += Z
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        beta, theta = (theta - 1.0) / theta_new, theta_new
    return SparseSolution(M=Z, objective=obj, iterations=it, converged=converged,
                          gap=duality_gap(problem, Z, DKL.T))


def nnz_fraction(M: np.ndarray) -> float:
    """Fraction of entries with magnitude above _NNZ_EPS."""
    return float(np.count_nonzero(np.abs(M) > _NNZ_EPS)) / M.size


def row_occupancy(M: np.ndarray) -> float:
    """Fraction of rows carrying at least one nonzero entry."""
    return float(np.mean(np.any(np.abs(M) > _NNZ_EPS, axis=1)))


def score(model: EmbeddingModel, test: TrainingSet, M) -> tuple:
    """(nnz_fraction, row_occupancy, kl_distance, test_risk) of M used in place
    of model.W: its sparsity, its RKHS distance from the embedding model.W
    represents and its held-out risk on test."""
    M = np.asarray(M, dtype=float)
    problem = SparseProblem(K=model.kgram, L=model.lgram, W=model.W, gamma=0.0)
    return (nnz_fraction(M), row_occupancy(M), kl_distance(problem, M),
            empirical_risk(model.with_coefficients(M), test))


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    nnz_fraction: float
    row_occupancy: float
    kl_distance: float
    test_risk: float
    iterations: int
    converged: bool
    gap: float


def sparsity_sweep(
    model: EmbeddingModel,
    test: TrainingSet,
    gammas,
    penalty: str = "entrywise_l1",
    max_iter: int = 20000,
    tol: float = 1e-8,
) -> list[SweepRow]:
    """Solve the sparse problem along the gamma path and score each solution
    as a drop-in replacement for W on a held-out test set.

    The path runs from the largest gamma, solved from zero, down to the
    smallest, each solve starting from the previous solution; rows come back
    in ascending gamma order.
    """
    gammas = [float(g) for g in gammas]
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise InputError("gammas must be sorted ascending")
    cross_gram(model.kspec, model.train.xs[:1], test.xs[:1])  # a test set of another width
    cross_gram(model.lspec, model.train.ys[:1], test.ys[:1])  # fails here, before any solve
    rows = []
    M = None
    for g in reversed(gammas):
        problem = SparseProblem(K=model.kgram, L=model.lgram, W=model.W, gamma=g, penalty=penalty)
        try:
            sol = fista_solve(problem, max_iter=max_iter, tol=tol, start=M)
            scores = score(model, test, sol.M)
        except Exception as exc:
            exc.args = (f"gamma={g}: {exc}",)
            raise
        M = sol.M
        rows.append(SweepRow(g, *scores, iterations=sol.iterations, converged=sol.converged, gap=sol.gap))
    return rows[::-1]
