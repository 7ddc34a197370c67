"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own computation paths:
quadruple loops, dense eigendecompositions, finite differences, and
coordinate descent, so agreement is meaningful.
"""

from fractions import Fraction

import numpy as np


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


def random_spd(rng, n, jitter=0.1):
    A = rng.standard_normal((n, n))
    S = A @ A.T + jitter * n * np.eye(n)
    return 0.5 * (S + S.T)


def random_gram_instance(rng, n, dim=2, bandwidth=0.6, spread=3.0):
    """A well-spread gaussian Gram instance (K, L, W) with decent conditioning."""
    from cmereg.embedding import TrainingSet, fit
    from cmereg.kernels import KernelSpec

    xs = rng.uniform(0, spread, size=(n, dim))
    ys = rng.uniform(0, spread, size=(n, dim))
    ks = KernelSpec("gaussian", bandwidth, dim)
    ls = KernelSpec("gaussian", bandwidth, dim)
    model = fit(TrainingSet(xs, ys), ks, ls, 0.1)
    return model
