"""Sparse approximation of the embedding coefficient matrix.

Minimizes  tr((M - W)^T K (M - W) L) + gamma * penalty(M)  with FISTA.

Penalties: entrywise_l1 (sum |M_ij|), row_group (sum of row l2 norms),
col_group (sum of column l2 norms).

The gradient step uses the standard step size 1/Lip with
Lip = 2 * lammax(K) * lammax(L) and threshold gamma/Lip, the standard
accelerated proximal-gradient constants for this objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import blas

from .embedding import EmbeddingModel, TrainingSet, empirical_risk
from .errors import DivergenceError, InputError
from .linalg import matmul, sym_eig_max

_NNZ_EPS = 1e-12


def _shrink(V: np.ndarray, t: float) -> np.ndarray:
    """sign(V) * max(|V| - t, 0) for t >= 0, as V - clip(V, -t, t): the same values in two passes."""
    return V - np.clip(V, -t, t)


def _group_shrink(V: np.ndarray, t: float, axis: int) -> np.ndarray:
    """Shrink each group's l2 norm by t; a group runs along axis (1: rows, 0: columns)."""
    norms = np.sqrt(np.sum(V * V, axis=axis, keepdims=True))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return V * scale


# name -> (penalty at M, proximal map of t * penalty at V for t > 0)
PENALTIES = {
    "entrywise_l1": (lambda M: np.sum(np.abs(M)), _shrink),
    "row_group": (lambda M: np.sum(np.sqrt(np.sum(M * M, axis=1))), partial(_group_shrink, axis=1)),
    "col_group": (lambda M: np.sum(np.sqrt(np.sum(M * M, axis=0))), partial(_group_shrink, axis=0)),
}


def _penalty(name: str):
    if not isinstance(name, str) or name not in PENALTIES:
        raise InputError(f"unknown penalty {name!r}")
    return PENALTIES[name]


@dataclass(frozen=True)
class SparseProblem:
    K: np.ndarray
    L: np.ndarray
    W: np.ndarray
    gamma: float
    penalty: str = "entrywise_l1"

    def __post_init__(self):
        n = self.W.shape[0]
        if self.W.shape != (n, n):
            raise InputError("W must be square")
        if self.K.shape != (n, n) or self.L.shape != (n, n):
            raise InputError("K, L, W must share one square shape")
        if not (np.all(np.isfinite(self.K)) and np.all(np.isfinite(self.L)) and np.all(np.isfinite(self.W))):
            raise InputError("K, L, W must be finite-valued")
        if self.gamma < 0:
            raise InputError("gamma must be nonnegative")
        _penalty(self.penalty)


@dataclass(frozen=True)
class SparseSolution:
    M: np.ndarray
    objective: float
    iterations: int
    converged: bool  # the relative-objective rule fired before max_iter ran out


def penalty_value(penalty: str, M: np.ndarray) -> float:
    return float(_penalty(penalty)[0](M))


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
    return smooth_part(problem, M) + problem.gamma * penalty_value(problem.penalty, M)


def grad_smooth(problem: SparseProblem, M: np.ndarray) -> np.ndarray:
    M = _shaped(problem, M)
    return matmul(matmul(2.0 * problem.K, M - problem.W), problem.L)


def prox(penalty: str, V: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * penalty at V."""
    if t < 0:
        raise InputError("prox step must be nonnegative")
    V = np.asarray(V, dtype=float)
    if t == 0:
        return V.copy()
    return _penalty(penalty)[1](V, t)


def kl_distance(problem: SparseProblem, M: np.ndarray) -> float:
    """Tensor-product RKHS distance between the embeddings represented by M
    and by W: sqrt(tr((M-W)^T K (M-W) L))."""
    M = _shaped(problem, M)
    return float(np.sqrt(max(smooth_part(problem, M), 0.0)))


def fista_solve(
    problem: SparseProblem, max_iter: int = 20000, tol: float = 1e-8, start=None
) -> SparseSolution:
    """Accelerated proximal gradient descent from M = start (zero by default).

    Each iteration forms one product K Z L for the new iterate Z and
    extrapolates K Q L from it with the same weight that extrapolates Q, so
    the gradient 2 (K Q L - K W L) and the objective need no other n x n
    products. Stops when the relative objective change drops below tol
    (converged) or max_iter is reached; deterministic. At gamma = 0 it
    returns the minimizer W, converged after 0 iterations.
    """
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    if not tol > 0:
        raise InputError("tol must be positive")
    K, L, W = problem.K, problem.L, problem.W
    if start is None:
        Z = np.zeros_like(W)
    else:
        Z = np.array(start, dtype=float)
        if Z.shape != W.shape:
            raise InputError("start has wrong shape")
        if not np.all(np.isfinite(Z)):
            raise InputError("start must be finite-valued")
    if problem.gamma == 0:
        return SparseSolution(W.copy(), 0.0, 0, converged=True)
    lip = 2.0 * sym_eig_max(K) * sym_eig_max(L)
    step = 1.0 / lip if lip > 0 else 1.0
    thresh = problem.gamma * step
    KWL = matmul(matmul(K, W), L)
    KZL = matmul(matmul(K, Z), L)

    def objective(Z, KZL):
        # tr((Z - W)^T K (Z - W) L) = <Z - W, KZL - KWL>
        smooth = blas.ddot((Z - W).ravel(), (KZL - KWL).ravel())
        return float(smooth) + problem.gamma * penalty_value(problem.penalty, Z)

    Q, KQL = Z, KZL
    theta = 1.0
    obj = obj_prev = objective(Z, KZL)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Z_new = prox(problem.penalty, Q - (2.0 * step) * (KQL - KWL), thresh)
        KZL_new = matmul(matmul(K, Z_new), L)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        Q = Z_new + beta * (Z_new - Z)
        KQL = KZL_new + beta * (KZL_new - KZL)
        Z, KZL, theta = Z_new, KZL_new, theta_new
        obj = objective(Z, KZL)
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {it}")
        if obj == obj_prev or abs(obj - obj_prev) <= tol * abs(obj_prev):
            converged = True
            break
        obj_prev = obj
    return SparseSolution(M=Z, objective=obj, iterations=it, converged=converged)


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
        rows.append(SweepRow(g, *scores, iterations=sol.iterations, converged=sol.converged))
    return rows[::-1]
