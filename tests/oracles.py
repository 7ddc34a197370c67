"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own computation paths:
quadruple loops, dense eigendecompositions, finite differences, and
coordinate descent, so agreement is meaningful.
"""

import ctypes
import glob
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import scipy


def delta_by_tuples(rows, cols):
    """Delta kernel by Python tuple equality of the points (scalars as 1-tuples):
    1.0 where two points agree in every entry, so -0.0 equals 0.0."""
    rows = [tuple(np.atleast_1d(p).tolist()) for p in rows]
    cols = [tuple(np.atleast_1d(p).tolist()) for p in cols]
    return np.array([[1.0 if r == c else 0.0 for c in cols] for r in rows])


def delta_ridge_inverse_exact(points, shift):
    """(K + shift*I)^{-1} of the delta Gram of points, as nested lists of Fractions.

    Points are equal by tuple equality, as in delta_by_tuples. Each class of c
    equal points is a block 11^T + sI, whose inverse is (I - 11^T/(s + c))/s:
    (s + c - 1)/(s(s + c)) on the diagonal, -1/(s(s + c)) off it; 0 across classes.
    """
    keys = [tuple(np.atleast_1d(p).tolist()) for p in points]
    s = Fraction(shift)
    size = {k: keys.count(k) for k in keys}
    return [[(s + size[a] - 1 if i == j else -1) / (s * (s + size[a])) if a == b else Fraction(0)
             for j, b in enumerate(keys)] for i, a in enumerate(keys)]


def smooth_objective_quadloop(K, L, W, M):
    """tr((M-W)^T K (M-W) L) by explicit summation."""
    n = K.shape[0]
    D = M - W
    total = 0.0
    for i in range(n):
        for j in range(n):
            for p in range(n):
                for q in range(n):
                    total += D[p, i] * K[p, q] * D[q, j] * L[j, i]
    return total


def fd_gradient(func, M, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    G = np.zeros_like(M)
    for idx in np.ndindex(M.shape):
        Mp = M.copy()
        Mm = M.copy()
        Mp[idx] += h
        Mm[idx] -= h
        G[idx] = (func(Mp) - func(Mm)) / (2 * h)
    return G


def eig_max_dense(A):
    return float(np.max(np.linalg.eigvalsh(A)))


def cd_lasso(K, L, W, gamma, sweeps=20000, tol=1e-12):
    """Cyclic coordinate descent on tr((M-W)^T K (M-W) L) + gamma*sum|M_ij|.

    Exact single-coordinate minimization: the objective is quadratic in M_ab
    with curvature 2*K_aa*L_bb, so each update is a scalar soft-threshold.
    """
    n = K.shape[0]
    M = np.zeros_like(W)
    for _ in range(sweeps):
        delta = 0.0
        for a in range(n):
            for b in range(n):
                curv = 2.0 * K[a, a] * L[b, b]
                if curv == 0:
                    continue
                grad = 2.0 * (K[a] @ (M - W) @ L[:, b])
                z = M[a, b] - grad / curv
                t = gamma / curv
                new = np.sign(z) * max(abs(z) - t, 0.0)
                delta = max(delta, abs(new - M[a, b]))
                M[a, b] = new
        if delta < tol:
            break
    return M


def cd_objective(K, L, W, M, gamma):
    D = M - W
    return float(np.trace(D.T @ K @ D @ L)) + gamma * float(np.sum(np.abs(M)))


def lasso_dual_value(K, L, W, Y):
    """Dual objective <Y, W> - tr(Y^T K^-1 Y L^-1) / 4 of the lasso at a dual
    point Y, by explicit solves: -f*(-Y) for f(M) = tr((M-W)^T K (M-W) L).
    Y is feasible when its dual norm is at most gamma."""
    return float(np.sum(Y * W)) - 0.25 * float(np.sum(Y * np.linalg.solve(K, np.linalg.solve(L, Y.T).T)))


def dual_norm_oracle(penalty, G):
    """Dual norm of a penalty at G: the largest |G_ij|, row l2 norm or column l2 norm."""
    if penalty == "entrywise_l1":
        return float(np.max(np.abs(G)))
    return float(np.max(np.linalg.norm(G, axis=1 if penalty == "row_group" else 0)))


def shrink_oracle(penalty, V, t):
    """Proximal map of t * penalty at V: soft threshold, or a group's l2 norm shrunk by t."""
    if penalty == "entrywise_l1":
        return np.sign(V) * np.maximum(np.abs(V) - t, 0.0)
    axis = 1 if penalty == "row_group" else 0
    norms = np.linalg.norm(V, axis=axis, keepdims=True)
    return V * np.maximum(1.0 - t / np.where(norms > 0, norms, np.inf), 0.0)


def fista_three_products(K, L, W, gamma, penalty, iterations, start=None):
    """FISTA's iterates Z_1..Z_iterations in three-product form, the reference
    for fista_solve's forward-step form (the same iterates in exact arithmetic).

    Each iteration takes the gradient step at the extrapolated point Q from
    2 (K Q L - K W L), forms K Z L for the new iterate Z, and extrapolates
    K Q L with the weight that extrapolates Q; K W L is formed once. Step
    1/Lip with Lip = 2 lammax(K) lammax(L), threshold gamma/Lip.
    """
    step = 1.0 / (2.0 * eig_max_dense(K) * eig_max_dense(L))
    KWL = K @ W @ L
    Z = np.zeros_like(W) if start is None else np.array(start, dtype=float)
    KZL = K @ Z @ L
    Q, KQL, theta = Z, KZL, 1.0
    out = []
    for _ in range(iterations):
        Z_new = shrink_oracle(penalty, Q - 2.0 * step * (KQL - KWL), gamma * step)
        KZL_new = K @ Z_new @ L
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        beta = (theta - 1.0) / theta_new
        Q = Z_new + beta * (Z_new - Z)
        KQL = KZL_new + beta * (KZL_new - KZL)
        Z, KZL, theta = Z_new, KZL_new, theta_new
        out.append(Z)
    return out


def random_spd(rng, n, jitter=0.1):
    A = rng.standard_normal((n, n))
    S = A @ A.T + jitter * n * np.eye(n)
    return 0.5 * (S + S.T)


def random_instance(seed: int, n: int = None, gamma: float = 0.0):
    """Well-conditioned random lasso problem (K, L, W, gamma) for solver checks."""
    from cmereg.sparse import SparseProblem

    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(5, 51))
    K = random_spd(rng, n, jitter=0.5)
    L = random_spd(rng, n, jitter=0.5)
    W = rng.standard_normal((n, n))
    return SparseProblem(K=K, L=L, W=W, gamma=gamma)


def criterion_2_instances():
    """The ten lasso problems of acceptance criterion 2: n in 2..6, gamma in {0.01, 0.05, 0.2}."""
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        gamma = float(rng.choice([0.01, 0.05, 0.2]))
        yield random_instance(200 + seed, n=n, gamma=gamma)


def random_gram_instance(rng, n, dim=2, bandwidth=0.6, spread=3.0):
    """A well-spread gaussian Gram instance (K, L, W) with decent conditioning."""
    from cmereg.embedding import TrainingSet, fit
    from cmereg.kernels import KernelSpec

    xs = rng.uniform(0, spread, size=(n, dim))
    ys = rng.uniform(0, spread, size=(n, dim))
    ks = KernelSpec("gaussian", bandwidth)
    ls = KernelSpec("gaussian", bandwidth)
    model = fit(TrainingSet(xs, ys), ks, ls, 0.1)
    return model


def openblas_pool_threads():
    """Thread count of each OpenBLAS that scipy and numpy bundle, [scipy's, numpy's], read by
    each library's own get_num_threads (the 64_ symbol in numpy's 64-bit-integer build)."""
    counts = []
    for pkg, suffix in ((scipy, ""), (np, "64_")):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        (path,) = glob.glob(os.path.join(libs, "libscipy_openblas*.so"))
        counts.append(getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads" + suffix)())
    return counts


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn() runs, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
