import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec, cross_gram, diag, gram, median_bandwidth

from oracles import delta_by_tuples


def pair(spec, a, b):
    """The kernel on one pair of points: the 1x1 block of cross_gram."""
    return float(cross_gram(spec, [a], [b])[0, 0])


def test_spec_validation():
    with pytest.raises(InputError):
        KernelSpec("gaussian")  # no bandwidth
    with pytest.raises(InputError):
        KernelSpec("gaussian", -1.0)
    with pytest.raises(InputError):
        KernelSpec("triangular")
    KernelSpec("linear")
    KernelSpec("delta")
    # a delta or linear kernel ignored a bandwidth: cv fitted one model per grid bandwidth
    for variant in ("delta", "linear"):
        for bw in (1.0, 0.0, -1.0):
            with pytest.raises(InputError, match=f"^a {variant} kernel takes no bandwidth$"):
                KernelSpec(variant, bw)


def test_eval_gaussian_same_point():
    spec = KernelSpec("gaussian", 1.0)
    assert pair(spec, 0.3, 0.3) == 1.0


def test_eval_linear():
    spec = KernelSpec("linear")
    assert pair(spec, 2.0, 3.0) == 6.0


def test_eval_gaussian_hand_value():
    # independent scalar evaluation of exp(-|a-b|^2 / (2 sigma^2))
    spec = KernelSpec("gaussian", 1.0)
    assert pair(spec, 0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_eval_dimension_mismatch():
    # the two points of a pair must have one width
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(InputError):
        pair(spec, [1.0, 2.0], [2.0])


def test_non_numeric_points_rejected():
    with pytest.raises(InputError):
        gram(KernelSpec("gaussian", 1.0), ["a", "b"])
    with pytest.raises(InputError):
        pair(KernelSpec("delta"), "a", 1)


SPECS = [KernelSpec("linear"), KernelSpec("gaussian", 1.0), KernelSpec("delta")]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
def test_ragged_points_rejected(spec):
    ragged, rows = [[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0]]
    for call in (lambda: gram(spec, ragged), lambda: cross_gram(spec, rows, ragged),
                 lambda: cross_gram(spec, ragged, rows), lambda: diag(spec, ragged)):
        with pytest.raises(InputError):
            call()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
def test_width_mismatch_rejected(spec):
    # the points carry their width: cross_gram compares its two point sets,
    # gram and diag read one set of any width
    rows, wide, scalars = np.zeros((4, 2)), np.ones((3, 3)), np.zeros(3)
    for a, b in ((rows, wide), (wide, rows), (rows, scalars), (scalars, rows)):
        with pytest.raises(InputError, match="dimension"):
            cross_gram(spec, a, b)
    assert gram(spec, wide).shape == (3, 3) and diag(spec, wide).shape == (3,)


def test_underflowing_bandwidth_raises():
    # sigma^2 underflowed to 0 and made every diagonal entry 0/0 = nan
    spec, pts = KernelSpec("gaussian", 1e-200), np.arange(6.0).reshape(3, 2)
    for call in (lambda: gram(spec, pts), lambda: cross_gram(spec, pts, pts[:1])):
        with pytest.raises(NumericalError, match="underflows"):
            call()
    # a subnormal sigma^2 is still a kernel: distinct points are 0 apart from the diagonal
    np.testing.assert_array_equal(gram(KernelSpec("gaussian", 1e-160), pts), np.eye(3))


def test_subnormal_bandwidth_warns_nothing():
    # d2 / (-2 sigma^2) overflowed to -inf with numpy's "overflow encountered in divide"
    # warning; exp(-inf) = 0 was already the right value
    spec, pts = KernelSpec("gaussian", 1e-160), np.arange(6.0).reshape(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(gram(spec, pts), np.eye(3))
        np.testing.assert_array_equal(cross_gram(spec, pts, pts[:1]), np.eye(3)[:, :1])


def test_overflowing_linear_kernel_raises():
    # inner products of finite points overflowed to inf; numpy's "overflow
    # encountered in matmul" warning came ahead of the NumericalError
    spec, big = KernelSpec("linear"), np.full((3, 2), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: gram(spec, big), lambda: cross_gram(spec, big, big[:1]),
                     lambda: cross_gram(spec, big[:1], big), lambda: diag(spec, big)):
            with pytest.raises(NumericalError, match="overflowed"):
                call()
    assert np.all(np.isfinite(cross_gram(spec, big, np.full((2, 2), 1e-200))))


@pytest.mark.parametrize("rows,cols", [
    pytest.param(np.random.default_rng(7).integers(0, 5, 40), np.arange(-1, 7), id="codes"),
    pytest.param(np.random.default_rng(8).integers(0, 2, (60, 4)).astype(float),
                 np.random.default_rng(9).integers(0, 2, (9, 4)).astype(float), id="rows-4"),
    pytest.param(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 0.0]]),
                 np.array([[-0.0, 1.0], [0.0, 0.0], [1.0, -0.0]]), id="signed-zeros"),
    # a NaN equals nothing, so its diagonal entry is 0
    pytest.param(np.array([np.nan, 1.0, np.nan, 2.0, 1.0]), np.array([np.nan, 1.0, 3.0]), id="nan-codes"),
    pytest.param(np.array([[np.nan, 0.0], [1.0, 0.0], [np.nan, 0.0], [1.0, -0.0]]),
                 np.array([[np.nan, 0.0], [1.0, 0.0]]), id="nan-rows"),
    pytest.param(np.array([3, 1, 3, 0, 2, 1, 1, 0, 3]), np.array([2, 0, 1]), id="repeats-unsorted"),
    pytest.param(np.array([[2.0, 1.0], [0.0, 5.0], [2.0, 1.0], [0.0, 5.0]]),
                 np.array([[0.0, 5.0], [2.0, 1.0], [2.0, 1.0]]), id="repeated-rows-unsorted"),
    pytest.param(np.array([0, 1, 1, 0]), np.array([7, 1, -3, 0, 9]), id="unseen-columns"),
    pytest.param(np.array([2]), np.array([2, 0, 2, 5]), id="one-row"),
    pytest.param(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]), id="one-row-2d"),
    pytest.param(np.random.default_rng(11).permutation(50), np.arange(-5, 60), id="all-distinct"),
])
def test_delta_matches_tuple_equality_oracle(rows, cols):
    # one row per distinct point, copied to its class: exactly symmetric, and every
    # entry +0.0 or 1.0, never -0.0
    spec = KernelSpec("delta")
    K, Kc = gram(spec, rows), cross_gram(spec, rows, cols)
    assert np.array_equal(K, delta_by_tuples(rows, rows))
    assert np.array_equal(Kc, delta_by_tuples(rows, cols))
    assert np.array_equal(K, K.T)
    assert not np.any(np.signbit(K)) and not np.any(np.signbit(Kc))


@pytest.mark.parametrize("block", [1, 17])
def test_delta_row_blocks_match_tuple_equality_oracle(block):
    # rows copied from a class's one row, or written in place when no point repeats, give
    # the oracle's values, for scalar and multi-column points; so do cross_gram calls on
    # row blocks of the points (one row a block, or a block of 17 rows and the rest), each
    # of which finds its own classes
    rng = np.random.default_rng(10)
    spec = KernelSpec("delta")
    for rows, cols in (
            (rng.integers(0, 2, (23, 3)).astype(float), rng.integers(0, 2, (5, 3)).astype(float)),
            (rng.integers(0, 4, (40, 2)).astype(float), rng.integers(0, 4, (5, 2)).astype(float)),
            (rng.permutation(23), rng.integers(0, 30, 5)),
            (rng.permutation(46).reshape(23, 2), rng.permutation(46)[:10].reshape(5, 2))):
        assert np.array_equal(gram(spec, rows), delta_by_tuples(rows, rows))
        assert np.array_equal(cross_gram(spec, rows, cols), delta_by_tuples(rows, cols))
        blocks = [cross_gram(spec, rows[i:i + block], rows) for i in range(0, len(rows), block)]
        assert np.array_equal(np.concatenate(blocks), delta_by_tuples(rows, rows))


@pytest.mark.parametrize("points", [
    pytest.param(np.random.default_rng(12).integers(0, 4, 1000), id="codes"),
    pytest.param(np.random.default_rng(13).integers(0, 2, (1000, 2)), id="rows-2"),
    pytest.param(np.random.default_rng(14).permutation(1000), id="distinct"),
])
def test_delta_gram_peak_memory(points):
    # one n x n bool output (a byte an entry) and small temporaries: class rows copied
    # into the output, or written in place when no point repeats, never a second n x n
    # array and never a float one
    n = len(points)
    tracemalloc.start()
    try:
        gram(KernelSpec("delta"), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n, peak / (n * n)


def test_gram_delta_identity():
    g = gram(KernelSpec("delta"), [0, 1, 2])
    np.testing.assert_array_equal(g, np.eye(3))


def test_gram_duplicate_points_all_ones():
    g = gram(KernelSpec("gaussian", 2.0), [1.5, 1.5])
    np.testing.assert_array_equal(g, np.ones((2, 2)))


def test_gram_matches_entrywise_eval():
    spec = KernelSpec("gaussian", 1.0)
    pts = [0.0, 1.0, 2.0]
    g = gram(spec, pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert g[i, j] == pytest.approx(pair(spec, a, b), abs=1e-15)


def test_gram_empty_rejected():
    with pytest.raises(InputError):
        gram(KernelSpec("linear"), [])


_RNG = np.random.default_rng(3)


@pytest.mark.parametrize("spec,pts", [
    pytest.param(KernelSpec("delta"), _RNG.integers(0, 5, 300), id="delta-codes"),
    pytest.param(KernelSpec("delta"), _RNG.integers(0, 2, (300, 3)).astype(float), id="delta-rows"),
    pytest.param(KernelSpec("gaussian", 0.7), _RNG.standard_normal((20, 3)), id="gaussian-20"),
    pytest.param(KernelSpec("gaussian", 0.7), _RNG.standard_normal((300, 3)) * 100.0,
                 id="gaussian-300-scaled"),
    pytest.param(KernelSpec("linear"), _RNG.standard_normal((300, 3)), id="linear-array"),
    pytest.param(KernelSpec("linear"), _RNG.standard_normal((300, 3)).tolist(), id="linear-list"),
])
def test_gram_exact_symmetry_and_unit_diagonal(spec, pts):
    g = gram(spec, pts)
    assert np.array_equal(g, g.T)
    if spec.variant == "linear":  # <p, p>, not 1
        np.testing.assert_allclose(np.diag(g), np.sum(np.square(pts), axis=1), rtol=1e-14)
    else:
        assert np.all(np.diag(g) == 1.0)


def test_cross_gram_equals_gram_on_same_points():
    spec = KernelSpec("linear")
    pts = np.arange(8.0).reshape(4, 2)
    cg = cross_gram(spec, pts, pts)
    np.testing.assert_allclose(cg, gram(spec, pts), atol=1e-14)


def test_cross_gram_disjoint_delta_alphabets():
    cg = cross_gram(KernelSpec("delta"), [0, 1], [2, 3, 4])
    np.testing.assert_array_equal(cg, np.zeros((2, 3)))


def test_cross_gram_transpose_identity():
    # bit for bit, so a caller may put either point set first (Policy.act puts its
    # one query first: cdist fills a 1 x n row faster than an n x 1 column)
    rng = np.random.default_rng(0)
    for spec in (KernelSpec("gaussian", 1.3), KernelSpec("delta")):
        for m, n in ((1, 1), (1, 800), (800, 1), (5, 7), (64, 65)):
            for d in (1, 3, 4):
                if spec.variant == "delta":
                    rows, cols = rng.integers(0, 3, (m, d)), rng.integers(0, 3, (n, d))
                else:
                    rows, cols = rng.standard_normal((m, d)), rng.standard_normal((n, d))
                a = cross_gram(spec, rows, cols)
                b = cross_gram(spec, cols, rows)
                assert a.tobytes() == np.ascontiguousarray(b.T).tobytes(), (spec.variant, m, n, d)


@pytest.mark.parametrize("variant,bw", [("gaussian", 0.8), ("linear", None), ("delta", None)])
def test_symmetric_gram_psd_tolerance(variant, bw):
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(2, 9)
        if variant == "delta":  # integer codes, scalar points
            pts = rng.integers(0, 4, size=n)
        else:
            pts = rng.standard_normal((n, 2))
        spec = KernelSpec(variant, bw)
        g = gram(spec, pts)
        lam_min = np.min(np.linalg.eigvalsh(g))
        assert lam_min >= -1e-8 * np.trace(g)


@given(
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
    bw=st.floats(0.5, 10),
)
@example(a=10.0, b=-10.0, bw=0.5)  # exponent -800: the value underflows to 0.0
@settings(max_examples=60, deadline=None)
def test_eval_symmetry_property(a, b, bw):
    for spec in (KernelSpec("gaussian", bw), KernelSpec("linear")):
        assert pair(spec, a, b) == pair(spec, b, a)
    # 0 < v holds only where exp does not underflow; a subnormal v may differ from
    # math.exp's in more than its last bit, so below the smallest normal the match is absolute.
    # Each side rounds its exponent a few times (scipy's squared difference may be an ulp off
    # Python's), and exp scales the exponent's relative error by |exponent|
    exponent = -((a - b) ** 2) / (2 * bw**2)
    v = pair(KernelSpec("gaussian", bw), a, b)
    assert 0.0 <= v <= 1.0
    rel = 4 * sys.float_info.epsilon * max(1.0, abs(exponent))
    assert v == pytest.approx(math.exp(exponent), rel=rel, abs=sys.float_info.min)
    if exponent > -700:
        assert v > 0.0


def test_reproducing_consistency():
    # <L(y,.), L(y',.)> = L(y, y'): the Gram entry is the inner product
    spec = KernelSpec("gaussian", 1.1)
    ys = [0.0, 0.4, 2.0]
    g = gram(spec, ys)
    for i, y in enumerate(ys):
        for j, yp in enumerate(ys):
            assert g[i, j] == pytest.approx(pair(spec, y, yp), abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_bitwise_scipy_cdist(d):
    # exp(d2 / scale) with d2 from scipy's cdist, as the kernel was first written
    rng = np.random.default_rng(d)
    spec = KernelSpec("gaussian", 1.7)
    scale = -2.0 * 1.7**2
    pts = rng.standard_normal((150, d))
    assert gram(spec, pts).tobytes() == np.exp(cdist(pts, pts, "sqeuclidean") / scale).tobytes()
    for m, n in ((1, 800), (800, 1), (37, 90)):
        R, C = rng.standard_normal((m, d)), rng.standard_normal((n, d))
        assert cross_gram(spec, R, C).tobytes() == np.exp(cdist(R, C, "sqeuclidean") / scale).tobytes()


@pytest.mark.parametrize("n,d", [(2, 1), (5, 1), (40, 2), (41, 3), (499, 4), (1200, 4)])
def test_median_bandwidth_bitwise_numpy_median_of_scipy_pdist(n, d):
    points = sample = np.random.default_rng(n).uniform(0.0, 3.0, (n, d))
    if n > 500:  # the seeded subsample median_bandwidth reads
        sample = points[np.sort(np.random.default_rng(0).choice(n, size=500, replace=False))]
    assert median_bandwidth(points) == float(np.median(pdist(sample)))


def test_median_bandwidth_rejects_nan_and_coincident_points_fall_back_to_one():
    # a NaN point has no distances to take a median of (it once gave 1.0, as if all points
    # coincided); all-zero distances, or none, give 1.0
    for points in ([[0.0], [np.nan], [1.0], [2.0]], [np.inf, 0.0], [[0.0, 1.0], [2.0, -np.inf]]):
        with pytest.raises(InputError, match="finite"):
            median_bandwidth(points)
    assert median_bandwidth([[1.0, 2.0]] * 4) == 1.0
    assert median_bandwidth([[1.0]]) == 1.0


def test_median_bandwidth_scalar_points():
    # a 1-d array is n scalar points: pairwise distances 1, 1, 1, 2, 2, 3
    assert median_bandwidth(np.array([0.0, 1.0, 2.0, 3.0])) == 1.5
    assert median_bandwidth([0.0, 1.0, 2.0, 3.0]) == median_bandwidth([[0.0], [1.0], [2.0], [3.0]])


@pytest.mark.parametrize("points", [3.0, ["a", "b"], np.zeros((2, 2, 2))], ids=["0-d", "strings", "3-d"])
def test_median_bandwidth_takes_the_kernels_point_format(points):
    # 3.0 was one scalar point (1.0), strings raised numpy's ValueError, a 3-d array scipy's
    with pytest.raises(InputError):
        median_bandwidth(points)
    with pytest.raises(InputError):
        diag(KernelSpec("linear"), points)  # as every kernel reads its points


def test_delta_gram_of_array_rows_is_row_equality():
    rows = np.random.default_rng(3).integers(0, 2, size=(25, 3)).astype(float)
    spec = KernelSpec("delta")
    K = gram(spec, rows)
    np.testing.assert_array_equal(K, np.all(rows[:, None, :] == rows[None, :, :], axis=2))
    C = cross_gram(spec, rows, rows[:4])
    np.testing.assert_array_equal(C, K[:, :4])
    np.testing.assert_array_equal(cross_gram(spec, rows, [rows[2]]), K[:, 2:3])
    assert pair(spec, rows[0], rows[0]) == 1.0


def _diag_by_blocks(spec, points):
    return np.array([pair(spec, p, p) for p in points])


def test_diag_gaussian_is_the_one_by_one_blocks():
    pts = np.random.default_rng(5).standard_normal((30, 3)) * 100.0
    spec = KernelSpec("gaussian", 0.9)
    d = diag(spec, pts)
    assert np.all(d == _diag_by_blocks(spec, pts))
    assert np.all(d == 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 16])
def test_diag_linear_bitwise_equal_to_blocks(dim):
    rng = np.random.default_rng(dim)
    for scale in (1.0, 3.7, 100.0):
        pts = rng.standard_normal((200, dim)) * scale
        spec = KernelSpec("linear")
        assert np.all(diag(spec, pts) == _diag_by_blocks(spec, pts))
    if dim == 1:  # scalar points, as gram and cross_gram take them
        scalars = list(rng.standard_normal(50) * 100.0)
        assert np.all(diag(spec, scalars) == _diag_by_blocks(spec, scalars))


def test_diag_delta_on_codes_and_rows():
    spec = KernelSpec("delta")
    codes = [0, 1, 0, 2]
    assert np.all(diag(spec, codes) == _diag_by_blocks(spec, codes))
    rows = np.random.default_rng(2).integers(0, 2, size=(12, 3)).astype(float)
    spec = KernelSpec("delta")
    assert np.all(diag(spec, rows) == _diag_by_blocks(spec, rows))
    assert np.all(diag(spec, list(rows)) == 1.0)
