import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lkfs import kernel
from lkfs.dataio import ExpressionMatrix, variance_filter
from lkfs.errors import ConfigError, DataValidationError, NumericalError
from lkfs.kernel import (
    KernelMatrix,
    alignment,
    feature_kernels,
    frobenius_inner,
    gaussian_kernel,
    median_bandwidth,
)


def brute_force_median_distance(points):
    """Sort-based oracle: explicit pair loop, manual middle-of-sorted median."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    dists = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dists.append(np.linalg.norm(pts[i] - pts[j]))
    dists.sort()
    m = len(dists)
    if m % 2 == 1:
        return dists[m // 2]
    return (dists[m // 2 - 1] + dists[m // 2]) / 2.0


def row_loop_sqdist(points):
    """Every row's differences to all points, the loop that computed every pair twice."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    out = np.empty((pts.shape[0], pts.shape[0]))
    for i in range(pts.shape[0]):
        diff = pts - pts[i]
        out[i] = (diff * diff).sum(axis=1)
    return out


class TestPairwiseSqdist:
    """Each pair computed once, in triangle order, has the bits of the full
    row loop on both sides of its diagonal, for every memory layout of the
    points."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 25),
        st.sampled_from([1, 2, 7, 9, 40, 130, 300]),
        st.sampled_from(["C", "F", "fancy-indexed columns", "strided", "1-D"]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_matches_row_loop(self, n, d, layout, duplicates, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, 2 * d)) * 10.0 ** rng.integers(-3, 4, size=2 * d)
        if duplicates:
            values[rng.integers(0, n, size=n // 2)] = values[0]
        pts = {
            "C": np.ascontiguousarray(values[:, :d]),
            "F": np.asfortranarray(values[:, :d]),
            "fancy-indexed columns": values[:, rng.permutation(2 * d)[:d]],
            "strided": values[:, ::2],
            "1-D": values[:, 0],
        }[layout]
        got = kernel._sq_triangle(pts)
        full = row_loop_sqdist(pts)
        upper = np.triu_indices(n, 1)
        assert got.tobytes() == full[upper].tobytes()
        assert got.tobytes() == full.T[upper].tobytes()


class TestMedianBandwidth:
    def test_three_points_odd_count(self):
        assert median_bandwidth(np.array([0.0, 1.0, 3.0])) == 2.0

    def test_three_points_with_tie(self):
        assert median_bandwidth(np.array([0.0, 1.0, 2.0])) == 1.0

    def test_duplicated_rows_allowed(self):
        sigma = median_bandwidth(np.array([0.0, 0.0, 1.0]))
        assert sigma > 0

    def test_all_identical_rejected(self):
        with pytest.raises(NumericalError):
            median_bandwidth(np.zeros((4, 2)))

    def test_zero_median_rejected(self):
        # 6 of the 10 pairs coincide, so the median distance is 0
        with pytest.raises(DataValidationError, match="median pairwise distance is 0"):
            median_bandwidth(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

    # n(n-1)/2 pairs: an odd count for n = 6, 7, 10, 11, an even one for n = 4, 5, 8, 9
    TIE_HEAVY = [(seed, n) for seed in range(3) for n in (6, 7, 10, 11, 4, 5, 8, 9)]

    @pytest.mark.parametrize(
        "seed, tie_heavy_n",
        [(seed, None) for seed in range(8)] + TIE_HEAVY,
        ids=[str(seed) for seed in range(8)]
        + [f"ties-n{n}-{'odd' if n * (n - 1) // 2 % 2 else 'even'}-pairs-{seed}"
           for seed, n in TIE_HEAVY],
    )
    def test_matches_sort_oracle_exactly(self, seed, tie_heavy_n):
        rng = np.random.default_rng(seed)
        if tie_heavy_n is None:
            pts = rng.standard_normal((rng.integers(2, 15), rng.integers(1, 5)))
        else:  # small integers: many pairs share a distance, so the middle values tie
            pts = rng.integers(0, 3, size=(tie_heavy_n, 1 + seed % 2)).astype(float)
        want = brute_force_median_distance(pts)
        assert want > 0
        assert median_bandwidth(pts) == want


class TestGaussianKernel:
    def test_identical_points_give_one(self):
        K = gaussian_kernel(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]), sigma=1.0)
        assert K.entries[0, 1] == 1.0

    def test_closed_form_value(self):
        # ||x0 - x1|| = sqrt(2), sigma = 1  ->  exp(-1)
        K = gaussian_kernel(np.array([[0.0, 0.0], [1.0, 1.0]]), sigma=1.0)
        assert K.entries[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_huge_bandwidth_limit(self, rng):
        K = gaussian_kernel(rng.standard_normal((6, 3)), sigma=1e6)
        assert np.all(np.abs(K.entries - 1.0) < 1e-9)

    def test_monotone_in_distance(self):
        pts = np.array([0.0, 1.0, 2.5, 7.0])[:, None]
        K = gaussian_kernel(pts, sigma=1.3)
        assert K.entries[0, 1] > K.entries[0, 2] > K.entries[0, 3]

    def test_rejects_bad_sigma_and_nonfinite(self):
        with pytest.raises(ConfigError):
            gaussian_kernel(np.zeros((2, 2)), sigma=0.0)
        with pytest.raises(DataValidationError):
            gaussian_kernel(np.array([[np.inf, 0.0], [0.0, 0.0]]), sigma=1.0)

    # strict positivity holds up to float64 underflow, so keep the exponent
    # ||x_i - x_j||^2 / (2 sigma^2) below ~745
    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.integers(1, 4)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.floats(min_value=1.5, max_value=100.0),
    )
    def test_kernel_invariants(self, pts, sigma):
        K = gaussian_kernel(pts, sigma=sigma)
        np.testing.assert_array_equal(K.entries, K.entries.T)
        np.testing.assert_array_equal(np.diag(K.entries), 1.0)
        assert K.entries.min() > 0.0 and K.entries.max() <= 1.0
        assert np.linalg.eigvalsh(K.entries).min() >= -1e-8


def pinned_products(stacked, Kz, source):
    """``inner_products`` with its source pinned to "gram" or "stack", and
    every column read: (cz, ss, zz, G) with G[j] = column(j)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "selection_source", lambda n, d, steps: (source, 0))
        cz, ss, zz, column = stacked.inner_products(Kz, 1)
    return cz, ss, zz, np.array([column(j) for j in range(len(stacked))])


class TestFeatureKernels:
    def test_one_kernel_per_feature(self, small_fixture):
        X, _ = small_fixture
        kernels = feature_kernels(X)
        assert len(kernels) == X.d
        assert all(K.source == f"feature:{j}" for j, K in enumerate(kernels))

    def test_one_sample_rejected(self):
        X = ExpressionMatrix(np.ones((1, 3)), ("s0",), ("g0", "g1", "g2"))
        with pytest.raises(DataValidationError, match="^feature kernels need at least 2 samples$"):
            feature_kernels(X)

    def test_per_feature_bandwidths(self, small_fixture):
        X, _ = small_fixture
        kernels = feature_kernels(X)
        for j in (0, 5, 20):
            assert kernels.bandwidths[j] == median_bandwidth(X.values[:, j])

    def test_full_scale_kernel_count(self):
        # 17640 raw features halve to 8820 kernels through the filter chain
        rng = np.random.default_rng(0)
        X = ExpressionMatrix(
            rng.standard_normal((4, 17640)),
            tuple(f"s{i}" for i in range(4)),
            tuple(f"g{j}" for j in range(17640)),
        )
        filtered = variance_filter(X, 0.5)
        kernels = feature_kernels(filtered)
        assert len(kernels) == 8820
        assert sum(1 for K in kernels if K.degenerate) == 0

    def test_constant_column_flagged(self):
        values = np.column_stack([np.ones(5), np.arange(5.0)])
        X = ExpressionMatrix(values, tuple("abcde"), ("const", "ramp"))
        kernels = feature_kernels(X)
        assert kernels[0].degenerate and not kernels[1].degenerate

    def test_zero_median_column_flagged(self):
        # "zeros" holds 0 in 8 of 10 samples: 29 of 45 pairs at distance 0
        values = np.column_stack([np.ones(10), np.arange(10.0), np.zeros(10)])
        values[[3, 7], 2] = [0.5, 2.0]
        X = ExpressionMatrix(values, tuple("abcdefghij"), ("const", "ramp", "zeros"))
        kernels = feature_kernels(X)
        assert kernels.degenerate.tolist() == [True, False, True]
        assert np.isnan(kernels.bandwidths[2])
        np.testing.assert_array_equal(kernels[2].entries, 1.0)
        # both sources read the same all-ones kernel: a twin of the constant column
        assert kernels.first_copies.tolist() == [0, 1, 0]
        for source in ("gram", "stack"):
            cz, ss, _, gram = pinned_products(kernels, kernels[1], source)
            assert (gram[2] == gram[0]).all() and ss[2] == gram[2, 2] == 100.0
            assert cz[2] == cz[0]

    def test_underflowing_distances_raise(self):
        # not constant, but every squared difference underflows to 0
        values = np.column_stack([np.arange(6.0), np.tile([0.0, 1e-200], 3)])
        X = ExpressionMatrix(values, tuple("abcdef"), ("ramp", "tiny"))
        with pytest.raises(NumericalError, match="feature 1"):
            feature_kernels(X)

    def test_unit_diagonals(self, small_fixture):
        X, _ = small_fixture
        kernels = feature_kernels(X)
        for j in range(5):
            np.testing.assert_array_equal(np.diag(kernels[j].entries), 1.0)


class TestKernelMatrix:
    def test_source_and_degenerate_are_keyword_only(self):
        with pytest.raises(TypeError):
            KernelMatrix(np.eye(2), 1.0)
        K = KernelMatrix(np.eye(2), source="latent", degenerate=True)
        assert (K.source, K.degenerate) == ("latent", True)


class TestFrobeniusAndAlignment:
    def test_identity_vs_ones(self):
        eye = KernelMatrix(np.eye(4))
        ones = KernelMatrix(np.ones((4, 4)))
        assert frobenius_inner(eye, ones) == 4.0
        assert alignment(eye, ones) == pytest.approx(0.5)

    def test_self_inner_is_squared_norm(self, rng):
        K = gaussian_kernel(rng.standard_normal((6, 2)), sigma=1.0)
        assert frobenius_inner(K, K) >= K.n
        assert frobenius_inner(K, K) == pytest.approx(np.linalg.norm(K.entries) ** 2)

    def test_bilinearity(self, rng):
        A = rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5))
        assert frobenius_inner(3.0 * A, B) == pytest.approx(3.0 * frobenius_inner(A, B))

    def test_dimension_mismatch(self):
        with pytest.raises(DataValidationError):
            frobenius_inner(np.eye(3), np.eye(4))

    def test_alignment_identity(self, rng):
        K = gaussian_kernel(rng.standard_normal((7, 2)), sigma=0.8)
        assert alignment(K, K) == pytest.approx(1.0, abs=1e-12)

    def test_alignment_scale_invariant_and_symmetric(self, rng):
        K1 = gaussian_kernel(rng.standard_normal((6, 2)), sigma=1.0)
        K2 = gaussian_kernel(rng.standard_normal((6, 2)), sigma=2.0)
        a = alignment(K1, K2)
        assert alignment(KernelMatrix(37.0 * K1.entries), K2) == pytest.approx(a, abs=1e-12)
        assert alignment(K2, K1) == pytest.approx(a, abs=1e-12)

    def test_zero_kernel_rejected(self):
        with pytest.raises(NumericalError):
            alignment(np.zeros((3, 3)), np.eye(3))


def matrix_of(values):
    n, d = values.shape
    return ExpressionMatrix(
        values, tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(d))
    )


def assert_rows_match_dense(stacked, X, sigma_of):
    """Every stacked row is the upper triangle of the dense per-column kernel,
    or all ones for a constant column or one with a zero median distance."""
    iu = np.triu_indices(X.n, 1)
    for j in range(X.d):
        col = X.values[:, j]
        try:
            sigma = None if col.max() == col.min() else sigma_of(col)
        except DataValidationError:  # median pairwise distance 0
            sigma = None
        if sigma is None:
            assert stacked.degenerate[j] and math.isnan(stacked.bandwidths[j])
            np.testing.assert_array_equal(stacked.row(j), 1.0)
            continue
        dense = gaussian_kernel(col, sigma)
        assert not stacked.degenerate[j]
        assert stacked.bandwidths[j] == sigma
        np.testing.assert_array_equal(stacked.row(j), dense.entries[iu])
        np.testing.assert_array_equal(stacked[j].entries, dense.entries)


class TestStackedKernels:
    @pytest.fixture
    def with_constant(self, small_fixture):
        X, _ = small_fixture
        values = X.values.copy()
        values[:, 4] = 0.25
        return ExpressionMatrix(values, X.sample_ids, X.feature_names)

    def test_rows_bit_identical_to_dense_kernels(self, with_constant):
        stacked = feature_kernels(with_constant)
        # rows are computed from the columns when read; no stack is held
        assert stacked.points is with_constant.values
        assert_rows_match_dense(stacked, with_constant, median_bandwidth)

    # a subnormal bandwidth overflows the exponent to -inf in both paths
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 5)),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    def test_matches_dense_on_random_matrices(self, values):
        X = matrix_of(values)
        try:
            for col in X.values.T:
                if col.max() != col.min():
                    with contextlib.suppress(DataValidationError):  # zero median: flagged
                        gaussian_kernel(col, median_bandwidth(col))
        except (ConfigError, NumericalError) as exc:
            # all-zero distances: the stack fails the same way
            with pytest.raises(type(exc)):
                feature_kernels(X)
            return
        assert_rows_match_dense(feature_kernels(X), X, median_bandwidth)

    def test_sequence_protocol(self, small_fixture):
        X, _ = small_fixture
        stacked = feature_kernels(X)
        assert len(stacked) == X.d
        assert [K.source for K in stacked] == [f"feature:{j}" for j in range(X.d)]
        np.testing.assert_array_equal(stacked[-1].entries, stacked[X.d - 1].entries)
        with pytest.raises(IndexError):
            stacked[X.d]
        with pytest.raises(TypeError):
            stacked[2:5]

    def test_nbytes_is_the_points(self, small_fixture):
        X, _ = small_fixture
        stacked = feature_kernels(X)
        assert stacked.nbytes == X.values.nbytes == 8 * X.n * X.d

    def test_gram_matches_frobenius(self, small_fixture, rng):
        # G[j, k] = <K_j, K_k> read column by column, from either source
        X, _ = small_fixture
        stacked = feature_kernels(X)
        target = gaussian_kernel(rng.standard_normal((X.n, 2)), sigma=1.0)
        for source in ("gram", "stack"):
            cross, ss, zz, gram = pinned_products(stacked, target, source)
            assert zz == pytest.approx(frobenius_inner(target, target), rel=1e-13)
            for j in (0, 7, X.d - 1):
                assert cross[j] == pytest.approx(frobenius_inner(stacked[j], target), rel=1e-13)
                assert ss[j] == pytest.approx(gram[j, j], rel=1e-13)
                for k in (0, 3, X.d - 1):
                    expected = frobenius_inner(stacked[j], stacked[k])
                    assert gram[j, k] == pytest.approx(expected, rel=1e-13)

    def test_equal_rows_give_equal_inner_products(self, rng):
        # a BLAS product can round the twin rows 1, 3 and 5 differently
        # depending on where they sit
        values = rng.standard_normal((12, 7))
        values[:, 3] = values[:, 5] = values[:, 1]
        stacked = feature_kernels(matrix_of(values))
        target = gaussian_kernel(rng.standard_normal((12, 2)), sigma=1.0)
        assert list(stacked.first_copies) == [0, 1, 2, 1, 4, 1, 6]
        for source in ("gram", "stack"):
            cross, ss, _, gram = pinned_products(stacked, target, source)
            assert len(set(cross[1::2])) == 1
            assert len(set(ss[1::2])) == 1 and len(set(gram.diagonal()[1::2])) == 1
            assert (gram[1::2] == gram[1]).all() and (gram[:, 1::2] == gram[:, [1]]).all()

    def test_greedy_rejects_targets_the_identity_cannot_hold(self, rng):
        # <K_a, K_z> = n + 2 upper[a] . upper[z] holds only for a symmetric
        # unit-diagonal target of the stack's n
        from lkfs.mkl import MklConfig, greedy_select

        stacked = feature_kernels(matrix_of(rng.standard_normal((5, 3))))
        K = gaussian_kernel(rng.standard_normal((5, 2)), sigma=1.0)
        with pytest.raises(DataValidationError, match="unit diagonal"):
            greedy_select(stacked, KernelMatrix(2.0 * K.entries), MklConfig(p=1))
        skewed = K.entries.copy()
        skewed[0, 1] += 0.1
        with pytest.raises(DataValidationError, match="symmetric"):
            greedy_select(stacked, KernelMatrix(skewed), MklConfig(p=1))
        with pytest.raises(DataValidationError, match="dimensions"):
            greedy_select(stacked, gaussian_kernel(np.arange(4.0), sigma=1.0), MklConfig(p=1))


def blocked_feature_kernels(X):
    """The stack as built before each kernel was built in its own row: columns
    of a transposed copy in 1 MB blocks, with a blockwise partition median.
    Columns whose median pairwise distance is 0 are flagged degenerate.
    Returns (upper, bandwidths, degenerate)."""
    cols = np.ascontiguousarray(X.values.T)
    degenerate = cols.max(axis=1) == cols.min(axis=1)
    iu, ju = np.triu_indices(X.n, 1)
    upper = np.empty((X.d, iu.size))
    bandwidths = np.full(X.d, np.nan)
    step = max(1, (1 << 17) // iu.size)
    for start in range(0, X.d, step):
        rows = slice(start, start + step)
        sq = cols[rows][:, ju] - cols[rows][:, iu]
        sq *= sq
        half = sq.shape[1] // 2
        part = np.partition(sq, half, axis=1)
        sigma = np.sqrt(part[:, half])
        if sq.shape[1] % 2 == 0:
            sigma = (np.sqrt(part[:, :half].max(axis=1)) + sigma) / 2.0
        sigma[degenerate[rows]] = 1.0
        for j in np.flatnonzero(sigma <= 0):
            if not sq[j].any():
                raise NumericalError(
                    f"feature {start + j}: all pairwise distances are zero; "
                    "kernel would be degenerate"
                )
            # a zero median: flagged as a constant column is, all-ones kernel
            degenerate[start + j] = True
            sq[j] = 0.0
            sigma[j] = 1.0
        np.negative(sq, out=sq)
        sq /= (2.0 * sigma * sigma)[:, None]
        np.exp(sq, out=upper[rows])
        bandwidths[rows] = np.where(degenerate[rows], np.nan, sigma)
    return upper, bandwidths, degenerate


class TestInPlaceBuild:
    """Rows read from the columns keep the bytes of the blocked build, and
    the build holds a few rows of pairs."""

    # a subnormal bandwidth overflows the exponent to -inf in both builds
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 12)),
            # a few shared values give tied values and constant columns
            elements=st.one_of(
                st.sampled_from([-1.5, 0.0, 0.25, 3.0]),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
        ),
    )
    def test_matches_blocked_build(self, values):
        X = matrix_of(values)
        try:
            upper, bandwidths, degenerate = blocked_feature_kernels(X)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as raised:
                feature_kernels(X)
            assert str(raised.value) == str(exc)
            return
        stacked = feature_kernels(X)
        assert np.array([stacked.row(j) for j in range(X.d)]).tobytes() == upper.tobytes()
        assert stacked.triangles().tobytes() == upper.tobytes()
        assert stacked.bandwidths.tobytes() == bandwidths.tobytes()
        assert stacked.degenerate.tobytes() == degenerate.tobytes()

    def test_build_scratch_is_a_few_rows_of_pairs(self, rng):
        X = matrix_of(rng.standard_normal((120, 200)))
        m = 120 * 119 // 2
        kernel._triu_indices.cache_clear()  # count the pair index arrays as scratch too
        tracemalloc.start()
        try:
            feature_kernels(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * m * 8


def dense_frobenius_products(kernels, target):
    """(G, c) as full entrywise sums over the dense kernels."""
    dense = [K.entries for K in kernels]
    gram = np.array([[float((a * b).sum()) for b in dense] for a in dense])
    return gram, np.array([float((a * target.entries).sum()) for a in dense])


def full_gram_products(stacked, target):
    """(cz, ss, G) of the Gram source summed into one d x d matrix, block by
    block over ``_pair_blocks``, and scaled as ``inner_products`` scales them."""
    n, d, tz = stacked.n, len(stacked), kernel.upper_triangle(target)
    gram, cross = np.zeros((d, d)), np.zeros(d)
    for pairs, block in stacked._pair_blocks():
        gram += block.T @ block
        cross += block.T @ tz[pairs]
    first = stacked.first_copies

    def scaled(sums):
        return (n + 2.0 * sums)[first]

    return scaled(cross), scaled(gram.diagonal()), np.array([scaled(gram[i]) for i in first])


class TestGram:
    """``StackedKernels.inner_products`` from the Gram matrix against the
    Frobenius products of the dense kernels."""

    H = kernel._GRAM_BAND_ROWS

    @pytest.mark.parametrize("d", [1, H - 1, H, H + 1, 3 * H + 5])
    def test_bands_keep_the_bits_of_the_full_sum(self, rng, monkeypatch, d):
        # blocks of a few sample rows, so that every band adds many products
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 256)
        values = rng.random((24, d))
        if d > 2:
            values[:, d // 2] = 0.5  # a constant column: an all-ones kernel
            values[:, d - 1] = values[:, 0]  # twins in the first and last band
        stacked = feature_kernels(matrix_of(values))
        target = gaussian_kernel(rng.standard_normal((24, 2)), sigma=1.0)
        cross, ss, _, gram = pinned_products(stacked, target, "gram")
        expected_cross, expected_ss, expected_gram = full_gram_products(stacked, target)
        assert cross.tobytes() == expected_cross.tobytes()
        assert ss.tobytes() == expected_ss.tobytes()
        for j in range(d):
            assert gram[j].tobytes() == expected_gram[j].tobytes(), j

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 10)),
            # a few shared values give tied values and constant columns
            elements=st.one_of(
                st.sampled_from([-1.5, 0.0, 0.25, 3.0]),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
        ),
        st.lists(st.integers(0, 9), max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_frobenius_products(self, values, copies, seed):
        # copies of earlier columns are twins: bit-identical kernels
        values = np.column_stack([values, values[:, [c % values.shape[1] for c in copies]]])
        X = matrix_of(values)
        try:
            stacked = feature_kernels(X)
        except NumericalError:
            return
        rng = np.random.default_rng(seed)
        target = gaussian_kernel(rng.standard_normal((X.n, 2)), sigma=1.0)
        cross, _, _, gram = pinned_products(stacked, target, "gram")
        expected_gram, expected_cross = dense_frobenius_products(list(stacked), target)
        np.testing.assert_allclose(gram, expected_gram, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cross, expected_cross, rtol=1e-12, atol=0)
        assert (gram == gram.T).all()
        # twins are exactly tied in every inner product
        first = stacked.first_copies
        for j in range(X.d):
            if first[j] != j:
                assert np.array_equal(stacked.row(j), stacked.row(first[j]))
                assert (gram[j] == gram[first[j]]).all() and cross[j] == cross[first[j]]
        d0 = X.d - len(copies)
        for j, c in enumerate(copies):
            assert (gram[d0 + j] == gram[c % d0]).all()

    @staticmethod
    def selection_peak(rng, n, d, p):
        """Traced peak bytes of ``feature_kernels`` + ``greedy_select``."""
        from lkfs.mkl import MklConfig, greedy_select

        X = matrix_of(rng.random((n, d)))
        target = gaussian_kernel(rng.standard_normal((n, 2)), sigma=1.0)
        tracemalloc.start()
        try:
            greedy_select(feature_kernels(X), target, MklConfig(p=p))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def product_triangle_and_block(d):
        """Bytes of the BLAS product (8 d^2), the banded upper triangle of the
        sums (about 4 d^2) and one block of pairs (2 MiB), with 0.5 MiB to spare."""
        return 1.5 * 8 * d * d + 2.5 * 2**20

    def test_wide_select_shape_peak_is_a_product_a_triangle_and_a_block(self, rng):
        # the stack of triangles alone would take 4 d n (n - 1) = 61 MB here;
        # at 12 features per step the greedy reads the Gram matrix instead
        d = 600
        assert self.selection_peak(rng, 160, d, p=50) <= self.product_triangle_and_block(d)

    def test_deep_latent_shape_peak_is_a_product_a_triangle_and_a_block(self, rng):
        # at 50 features per step the Gram is a little slower than the stack
        # of triangles (4 d n (n - 1) = 51 MB here), and many times smaller
        d = 500
        assert self.selection_peak(rng, 160, d, p=10) <= self.product_triangle_and_block(d)
