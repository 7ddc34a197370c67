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

import numpy as np

from .embedding import EmbeddingModel, TrainingSet, empirical_risk
from .errors import DivergenceError, InputError
from .linalg import soft_threshold, sym_eig_max

PENALTIES = ("entrywise_l1", "row_group", "col_group")

_NNZ_EPS = 1e-12


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
        if self.penalty not in PENALTIES:
            raise InputError(f"unknown penalty {self.penalty!r}")


@dataclass(frozen=True)
class SparseSolution:
    M: np.ndarray
    objective: float
    iterations: int
    nnz_fraction: float
    kl_distance: float
    converged: bool  # the relative-objective rule fired before max_iter ran out


def penalty_value(penalty: str, M: np.ndarray) -> float:
    if penalty == "entrywise_l1":
        return float(np.sum(np.abs(M)))
    if penalty == "row_group":
        return float(np.sum(np.linalg.norm(M, axis=1)))
    if penalty == "col_group":
        return float(np.sum(np.linalg.norm(M, axis=0)))
    raise InputError(f"unknown penalty {penalty!r}")


def smooth_part(problem: SparseProblem, M: np.ndarray) -> float:
    D = M - problem.W
    return float(np.sum((problem.K @ D @ problem.L) * D))


def lasso_objective(problem: SparseProblem, M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    if M.shape != problem.W.shape:
        raise InputError("M has wrong shape")
    return smooth_part(problem, M) + problem.gamma * penalty_value(problem.penalty, M)


def grad_smooth(problem: SparseProblem, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != problem.W.shape:
        raise InputError("M has wrong shape")
    return 2.0 * problem.K @ (M - problem.W) @ problem.L


def _group_shrink(V: np.ndarray, t: float, axis: int) -> np.ndarray:
    norms = np.linalg.norm(V, axis=1 - axis, keepdims=True)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return V * scale


def prox(penalty: str, V: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * penalty at V."""
    if t < 0:
        raise InputError("prox step must be nonnegative")
    V = np.asarray(V, dtype=float)
    if t == 0:
        return V.copy()
    if penalty == "entrywise_l1":
        return soft_threshold(V, t)
    if penalty == "row_group":
        return _group_shrink(V, t, axis=0)
    if penalty == "col_group":
        return _group_shrink(V, t, axis=1)
    raise InputError(f"unknown penalty {penalty!r}")


def kl_distance(problem: SparseProblem, M: np.ndarray) -> float:
    """Tensor-product RKHS distance between the embeddings represented by M
    and by W: sqrt(tr((M-W)^T K (M-W) L))."""
    M = np.asarray(M, dtype=float)
    if M.shape != problem.W.shape:
        raise InputError("M has wrong shape")
    return float(np.sqrt(max(smooth_part(problem, M), 0.0)))


def fista_solve(
    problem: SparseProblem, max_iter: int = 20000, tol: float = 1e-8, start=None
) -> SparseSolution:
    """Accelerated proximal gradient descent from M = start (zero by default).

    Each iteration forms one product K Z L for the new iterate Z and
    extrapolates K Q L from it with the same weight that extrapolates Q, so
    the gradient 2 (K Q L - K W L) and the objective need no other n x n
    products. Stops when the relative objective change drops below tol
    (converged) or max_iter is reached; deterministic.
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
    lip = 2.0 * sym_eig_max(K) * sym_eig_max(L)
    step = 1.0 / lip if lip > 0 else 1.0
    thresh = problem.gamma * step
    KWL = K @ W @ L
    KZL = K @ Z @ L

    def objective(Z, KZL):
        # tr((Z - W)^T K (Z - W) L) = <Z - W, KZL - KWL>
        return float(np.vdot(Z - W, KZL - KWL)) + problem.gamma * penalty_value(problem.penalty, Z)

    Q, KQL = Z, KZL
    theta = 1.0
    obj = obj_prev = objective(Z, KZL)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Z_new = prox(problem.penalty, Q - (2.0 * step) * (KQL - KWL), thresh)
        KZL_new = K @ Z_new @ L
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
    return SparseSolution(
        M=Z,
        objective=obj,
        iterations=it,
        nnz_fraction=nnz_fraction(Z),
        kl_distance=kl_distance(problem, Z),
        converged=converged,
    )


def nnz_fraction(M: np.ndarray) -> float:
    """Fraction of entries with magnitude above _NNZ_EPS."""
    return float(np.count_nonzero(np.abs(M) > _NNZ_EPS)) / M.size


def row_occupancy(M: np.ndarray) -> float:
    """Fraction of rows carrying at least one nonzero entry."""
    return float(np.mean(np.any(np.abs(M) > _NNZ_EPS, axis=1)))


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
            risk = empirical_risk(model.with_coefficients(sol.M), test)
        except Exception as exc:
            exc.args = (f"gamma={g}: {exc}",)
            raise
        M = sol.M
        rows.append(
            SweepRow(
                gamma=g,
                nnz_fraction=sol.nnz_fraction,
                row_occupancy=row_occupancy(sol.M),
                kl_distance=sol.kl_distance,
                test_risk=risk,
                iterations=sol.iterations,
                converged=sol.converged,
            )
        )
    return rows[::-1]
