"""Scalar kernels and Gram-matrix construction.

Conventions:
  * gaussian: k(a, b) = exp(-||a - b||^2 / (2 sigma^2)), sigma = bandwidth.
  * linear:   k(a, b) = <a, b>.
  * delta:    k(a, b) = 1 if a and b agree in every entry, else 0. A finite
    alphabet enters as integer codes (scalar points).

A kernel is its variant and, for the gaussian alone, its bandwidth: a delta
or linear kernel given one raises InputError. Every variant takes numeric
points only, scalars or rows, whose width the points give: the two point sets
of one evaluation must have the same width, else InputError. A kernel value
that would not be finite (a gaussian sigma^2 that underflows to 0, or linear
inner products that overflow) raises NumericalError.

Gram and cross-Gram matrices of the delta kernel are bool: exact 0/1, one byte
an entry, which numpy arithmetic and a float conversion read as exactly 0.0 and
1.0. Those of the gaussian and linear kernels are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import InputError, NumericalError
from .linalg import distance

VARIANTS = ("gaussian", "linear", "delta")


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown kernel variant {self.variant!r}")
        if self.variant != "gaussian" and self.bandwidth is not None:
            raise InputError(f"a {self.variant} kernel takes no bandwidth")
        if self.variant == "gaussian" and (self.bandwidth is None or not self.bandwidth > 0):
            raise InputError("gaussian kernel requires bandwidth > 0")


def _as_array(points) -> np.ndarray:
    """Stack numeric points into an (m, d) array."""
    try:
        arr = np.asarray(points)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise InputError("kernel points must all have one shape") from None
    if arr.dtype.kind not in "biuf":  # bool, int, uint, float
        raise InputError(f"kernel points must be numeric, not {arr.dtype}")
    if arr.ndim == 1:  # sequence of scalar points
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError("numeric points must be scalars or 1-d vectors")
    return arr.astype(float, copy=False)


def _linear(A, B) -> np.ndarray:
    """Linear-kernel values A @ B, checked: inner products of finite points can
    overflow, and the check, not numpy's overflow warning, reports it."""
    with np.errstate(over="ignore"):
        products = A @ B
    if not np.all(np.isfinite(products)):
        raise NumericalError("linear kernel overflowed: points too large")
    return products


def _delta(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Delta kernel values of row points R against column points C, as a bool matrix:
    exact 0/1 in one byte an entry. A row depends only on its row point, so one row is
    written per distinct point (np.unique's classes) and copied to the points of its
    class; when no point repeats, the comparison is the output, with no copy."""
    if R.shape[1] == 1:  # scalar points: the 1-d unique is about 20x faster than the row form
        reps, cls = np.unique(R[:, 0], return_inverse=True)  # all NaNs in one class, whose row is all 0
        reps = reps[:, None]
    else:
        reps, cls = np.unique(R, axis=0, return_inverse=True)
    distinct = len(reps) == len(R)
    U = R if distinct else reps
    T = U[:, [0]] == C[:, 0]
    for j in range(1, U.shape[1]):
        T &= U[:, [j]] == C[:, j]
    return T if distinct else T[cls]


def _matrix(spec: KernelSpec, rows, cols) -> np.ndarray:
    """k(r, c) for each row point r and column point c, of one width."""
    R, C = _as_array(rows), _as_array(cols)
    if R.shape[1] != C.shape[1]:
        raise InputError(f"points have dimension {C.shape[1]}, kernel expects {R.shape[1]}")
    if spec.variant == "delta":
        return _delta(R, C)
    if spec.variant == "linear":
        return _linear(R, C.T)
    try:
        scale = -2.0 * spec.bandwidth**2
    except OverflowError:
        raise NumericalError(f"gaussian bandwidth {spec.bandwidth} overflows when squared") from None
    if scale == 0.0:  # sigma^2 underflowed: every diagonal entry would be 0/0
        raise NumericalError(f"gaussian bandwidth {spec.bandwidth} underflows when squared")
    d2 = distance.cdist_sqeuclidean(R, C)
    with np.errstate(over="ignore"):  # a tiny sigma^2 can send d2 / scale to -inf, whose exp is the right 0
        np.divide(d2, scale, out=d2)  # in place, as the Gram's one n x n array
        return np.exp(d2, out=d2)  # exp(-d2 / (2 sigma^2)) bit for bit


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix over one point set: bool for the delta kernel, float64 for the
    others. Exactly symmetric by construction: delta compares entries, scipy's
    sqeuclidean kernel sums a pair's squared differences in one order, numpy's
    R @ R.T is syrk."""
    if len(points) == 0:
        raise InputError("gram() needs a nonempty point sequence")
    R = _as_array(points)  # one buffer on both sides: two conversions would make R @ R.T a dgemm
    return _matrix(spec, R, R)


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Rectangular kernel matrix between two point sets, of gram's dtype."""
    if len(rows) == 0 or len(cols) == 0:
        raise InputError("cross_gram() needs nonempty point sequences")
    return _matrix(spec, rows, cols)


def diag(spec: KernelSpec, points) -> np.ndarray:
    """k(p, p) for each point p as float64, bit for bit the value cross_gram(spec, [p], [p])
    gives for finite points (1.0 for the delta kernel's True). A NaN point is the
    exception under the delta kernel: diag gives 1, cross_gram 0 (a NaN equals nothing)."""
    P = _as_array(points)
    if spec.variant != "linear":
        return np.ones(len(P))
    return _linear(P[:, None, :], P[:, :, None])[:, 0, 0]  # m 1x1 products, as in _matrix


_MEDIAN_MAX_POINTS = 500  # median_bandwidth reads a seeded subsample of this many points
_MEDIAN_SEED = 0


def median_bandwidth(points) -> float:
    """Median pairwise distance heuristic for picking a gaussian bandwidth, over points
    in the kernels' format. Points that are all one (or fewer than two) give 1.0; a
    non-finite point raises InputError, since its distances have no median."""
    arr = _as_array(points)
    if not np.all(np.isfinite(arr)):
        raise InputError("median_bandwidth needs finite points")
    n = arr.shape[0]
    if n > _MEDIAN_MAX_POINTS:
        idx = default_rng(_MEDIAN_SEED).choice(n, size=_MEDIAN_MAX_POINTS, replace=False)
        arr = arr[np.sort(idx)]
    vals = distance.pdist_euclidean(arr)  # scipy's pdist(arr)
    med = _median(vals) if vals.size else 1.0
    return med if med > 0 else 1.0


def _median(vals) -> float:
    """np.median(vals) bit for bit for vals without NaN, without the NaN check
    whose np.ma lookup imports numpy.ma (about 10 ms) on a first call."""
    lo, hi = (vals.size - 1) // 2, vals.size // 2
    return float(np.mean(np.partition(vals, [lo, hi])[lo:hi + 1]))
