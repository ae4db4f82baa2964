import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkfs.dataio import generate_synthetic, minmax_scale
from lkfs.errors import DataValidationError, NumericalError
from lkfs import kernel, mkl
from lkfs.dataio import ExpressionMatrix
from lkfs.kernel import (
    KernelMatrix,
    StackedKernels,
    alignment,
    feature_kernels,
    frobenius_inner,
    gaussian_kernel,
    median_bandwidth,
)
from lkfs.mkl import (
    MklConfig,
    MklSolution,
    _pair_weights_batch,
    combined_kernel,
    greedy_select,
    solve_pair_weights,
)


def scalar_pair_weights(aa, bb, ab, az, bz, zz):
    """The two-kernel closed form of one pair, written with Python scalars:
    the reference for ``mkl._pair_weights_batch``, which the greedy runs."""
    det = aa * bb - ab * ab
    if det > mkl._DET_FLOOR * max(aa * bb, 1.0):
        wa = (bb * az - ab * bz) / det
        wb = (aa * bz - ab * az) / det
        if wa > 0.0 and wb > 0.0:
            total = wa + wb
            wa, wb = wa / total, wb / total
            quad = wa * wa * aa + 2.0 * wa * wb * ab + wb * wb * bb
            achieved = (wa * az + wb * bz) / math.sqrt(quad * zz)
            return wa, wb, achieved
    # stationary point infeasible (or kernels proportional): best boundary wins
    align_a = az / math.sqrt(aa * zz) if aa > 0 else None
    align_b = bz / math.sqrt(bb * zz) if bb > 0 else None
    if align_a is None and align_b is None:
        raise NumericalError("pair weights undefined: both kernels have zero norm")
    if align_b is None or (align_a is not None and align_a >= align_b):
        return 1.0, 0.0, align_a
    return 0.0, 1.0, align_b


def pin_source(patch, name):
    """Make every greedy read its inner products from ``name``, "gram" or
    "stack"; the bytes are read only by the pipeline's memory check."""
    patch.setattr(kernel, "selection_source", lambda n, d, steps: (name, 0))


def grid_search_alignment(Ka, Kb, Kz, n_points=2000):
    """Oracle: scan mixing ratios mu_b/mu_a over {0, log-spaced, infinity}."""
    best = -np.inf
    for ratio in [0.0, *np.logspace(-3, 3, n_points), np.inf]:
        if np.isinf(ratio):
            mix = Kb.entries
        else:
            mix = Ka.entries + ratio * Kb.entries
        best = max(best, alignment(KernelMatrix(mix), Kz))
    return best


def random_kernel(rng, n=6, m=2, sigma=None):
    pts = rng.standard_normal((n, m))
    return gaussian_kernel(pts, sigma or median_bandwidth(pts))


def column_kernels(values):
    """The feature kernels of the columns of an (n, d) array, as the pipeline
    builds them."""
    n, d = values.shape
    return feature_kernels(
        ExpressionMatrix(values, tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(d)))
    )


def informative_target_fixture(seed, n=200, d=100, informative=10):
    """Feature kernels plus the generator's ground-truth class-block target."""
    X, labels = generate_synthetic(n=n, d=d, informative=informative, separation=4.0, seed=seed)
    Xs = minmax_scale(X)
    candidates = feature_kernels(Xs)
    classes = np.array([labels.labels[sid] for sid in Xs.sample_ids])
    blocks = (classes[:, None] == classes[None, :]).astype(float)
    kz = KernelMatrix(blocks, source="latent")
    return Xs, candidates, kz


def dense_reference_greedy(candidates, Kz, config):
    """The greedy on dense n x n kernels: every inner product is a full
    entrywise sum, recomputed for every candidate at every step."""

    def inner(A, B):
        return float((A * B).sum())

    active = [j for j, K in enumerate(candidates) if not K.degenerate]
    zz = inner(Kz.entries, Kz.entries)
    cz = {j: inner(candidates[j].entries, Kz.entries) for j in active}
    ss = {j: inner(candidates[j].entries, candidates[j].entries) for j in active}
    first = max(active, key=lambda j: (cz[j] / math.sqrt(ss[j] * zz), -j))
    mu = np.zeros(len(candidates))
    mu[first] = 1.0
    selected = [first]
    k_mu = candidates[first].entries.copy()
    mz, mm = cz[first], ss[first]
    trajectory = [mz / math.sqrt(mm * zz)]
    remaining = [j for j in active if j != first]
    stop_reason = "reached_p"
    while len(selected) < config.p:
        if not remaining:
            stop_reason = "no_candidates"
            break
        best = None
        for j in remaining:
            mj = inner(k_mu, candidates[j].entries)
            w1, w2, achieved = scalar_pair_weights(mm, ss[j], mj, mz, cz[j], zz)
            if best is None or (achieved, -j) > best[0]:
                best = ((achieved, -j), j, w1, w2)
        (achieved, _), j, w1, w2 = best
        if achieved - trajectory[-1] <= mkl._IMPROVEMENT_TOLERANCE:
            stop_reason = "no_improvement"
            break
        k_mu = w1 * k_mu + w2 * candidates[j].entries
        mu *= w1
        mu[j] = w2
        selected.append(j)
        remaining.remove(j)
        mz, mm = inner(k_mu, Kz.entries), inner(k_mu, k_mu)
        trajectory.append(mz / math.sqrt(mm * zz))
    return tuple(selected), trajectory, mu / mu.sum(), stop_reason


class TestSolvePairWeights:
    def test_target_among_candidates_reaches_one(self, rng):
        Ka = random_kernel(rng)
        Kz = random_kernel(rng)
        mu_a, mu_b, achieved = solve_pair_weights(Ka, Kz, Kz)
        assert achieved == pytest.approx(1.0, abs=1e-9)
        mix = KernelMatrix(mu_a * Ka.entries + mu_b * Kz.entries)
        assert alignment(mix, Kz) == pytest.approx(1.0, abs=1e-9)

    def test_equal_kernels_tie_break(self, rng):
        Ka = random_kernel(rng)
        Kz = random_kernel(rng)
        mu_a, mu_b, achieved = solve_pair_weights(Ka, Ka, Kz)
        assert (mu_a, mu_b) == (1.0, 0.0)
        assert achieved == pytest.approx(alignment(Ka, Kz), abs=1e-12)

    def test_weights_normalized_and_nonnegative(self, rng):
        for _ in range(20):
            Ka, Kb, Kz = (random_kernel(rng) for _ in range(3))
            mu_a, mu_b, achieved = solve_pair_weights(Ka, Kb, Kz)
            assert mu_a >= 0.0 and mu_b >= 0.0
            assert mu_a + mu_b == pytest.approx(1.0, abs=1e-12)
            floor = max(alignment(Ka, Kz), alignment(Kb, Kz))
            assert achieved >= floor - 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_grid_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Ka, Kb, Kz = (random_kernel(rng) for _ in range(3))
        _, _, achieved = solve_pair_weights(Ka, Kb, Kz)
        assert achieved == pytest.approx(grid_search_alignment(Ka, Kb, Kz), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        kb=st.sampled_from(["drawn", "twin of a", "the target"]),
    )
    def test_equals_scalar_form(self, seed, n, kb):
        # bit for bit; a twin pair is proportional and the target is reached
        # at the boundary, so both fallbacks are taken as well as the interior
        rng = np.random.default_rng(seed)
        Ka, Kb, Kz = (random_kernel(rng, n=n, m=int(rng.integers(1, 4))) for _ in range(3))
        Kb = {"drawn": Kb, "twin of a": Ka, "the target": Kz}[kb]
        pairs = ((Ka, Ka), (Kb, Kb), (Ka, Kb), (Ka, Kz), (Kb, Kz), (Kz, Kz))
        want = scalar_pair_weights(*(frobenius_inner(K1, K2) for K1, K2 in pairs))
        assert solve_pair_weights(Ka, Kb, Kz) == want

    def test_near_twins_keep_the_interior_solve(self):
        # the second kernel's points moved by about 1e-4: a relative 2x2
        # determinant of about 1.4e-8, far above the 1e-14 floor, so the equal
        # mix the target is gets weights (0.5, 0.5), not a boundary answer
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, 2))
        Ka = gaussian_kernel(points, 1.0)
        Kb = gaussian_kernel(points + 1e-4 * rng.standard_normal((12, 2)), 1.0)
        Kz = KernelMatrix(0.5 * Ka.entries + 0.5 * Kb.entries)
        aa, bb, ab = (frobenius_inner(K1, K2) for K1, K2 in ((Ka, Ka), (Kb, Kb), (Ka, Kb)))
        assert 1e-9 < (aa * bb - ab * ab) / (aa * bb) < 1e-7
        mu_a, mu_b, achieved = solve_pair_weights(Ka, Kb, Kz)
        assert mu_a == pytest.approx(0.5, abs=1e-6) and mu_b == pytest.approx(0.5, abs=1e-6)
        assert achieved == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DataValidationError):
            solve_pair_weights(random_kernel(rng, n=5), random_kernel(rng, n=6), random_kernel(rng, n=6))


class TestGreedySelect:
    def test_exact_target_candidate_stops_immediately(self, rng):
        candidates = column_kernels(rng.standard_normal((6, 4)))
        Kz = candidates[1]
        solution = greedy_select(candidates, Kz, MklConfig(p=3))
        assert solution.selected == (1,)
        assert solution.alignment_trajectory == (pytest.approx(1.0, abs=1e-12),)
        assert solution.stop_reason == "no_improvement"

    def test_trajectory_strictly_increasing(self, rng):
        pts = rng.standard_normal((30, 1))
        candidates = column_kernels(rng.standard_normal((30, 12)))
        Kz = gaussian_kernel(pts, median_bandwidth(pts))
        solution = greedy_select(candidates, Kz, MklConfig(p=8))
        diffs = np.diff(solution.alignment_trajectory)
        assert np.all(diffs > 0)

    def test_mu_nonzero_exactly_on_selected(self, rng):
        candidates = column_kernels(rng.standard_normal((20, 10)))
        Kz = random_kernel(rng, n=20)
        solution = greedy_select(candidates, Kz, MklConfig(p=5))
        nonzero = set(np.nonzero(solution.mu)[0])
        assert nonzero == set(solution.selected)
        assert solution.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(solution.mu >= 0)

    def test_final_alignment_recomputable_from_mu(self, rng):
        candidates = column_kernels(rng.standard_normal((25, 15)))
        Kz = random_kernel(rng, n=25)
        solution = greedy_select(candidates, Kz, MklConfig(p=6))
        recomputed = alignment(combined_kernel(solution, candidates), Kz)
        assert abs(recomputed - solution.target_alignment) < 1e-10
        assert abs(recomputed - solution.alignment_trajectory[-1]) < 1e-10

    def test_final_beats_every_single_candidate(self, rng):
        candidates = column_kernels(rng.standard_normal((15, 8)))
        Kz = random_kernel(rng, n=15)
        solution = greedy_select(candidates, Kz, MklConfig(p=8))
        singles = max(alignment(K, Kz) for K in candidates)
        assert solution.target_alignment >= singles - 1e-12

    def test_candidate_permutation_invariance(self, rng):
        values = rng.standard_normal((18, 9))
        Kz = random_kernel(rng, n=18)
        base = greedy_select(column_kernels(values), Kz, MklConfig(p=4))
        perm = [4, 2, 7, 0, 8, 1, 5, 3, 6]
        permuted = greedy_select(column_kernels(values[:, perm]), Kz, MklConfig(p=4))
        assert {perm[j] for j in permuted.selected} == set(base.selected)

    def test_degenerate_candidates_excluded(self, rng):
        candidates = column_kernels(np.column_stack([np.ones(10), rng.standard_normal(10)]))
        assert list(candidates.degenerate) == [True, False]
        Kz = random_kernel(rng, n=10)
        solution = greedy_select(candidates, Kz, MklConfig(p=2))
        assert 0 not in solution.selected

    def test_all_degenerate_rejected(self):
        candidates = column_kernels(np.ones((4, 1)))
        with pytest.raises(DataValidationError, match="non-degenerate"):
            greedy_select(candidates, KernelMatrix(np.eye(4)), MklConfig(p=1))

    def test_recovers_informative_features(self):
        # target built from the informative block: selection should find it
        hits = []
        for seed in range(10):
            _, candidates, kz = informative_target_fixture(seed)
            solution = greedy_select(candidates, kz, MklConfig(p=10))
            hits.append(sum(1 for j in solution.selected if j < 10))
        assert np.mean(hits) >= 8.0

    def test_selected_alignments_beat_noise_median(self):
        _, candidates, kz = informative_target_fixture(seed=3)
        solution = greedy_select(candidates, kz, MklConfig(p=10))
        singles = [alignment(K, kz) for K in candidates]
        noise_median = np.median(singles[10:])
        assert all(singles[j] > noise_median for j in solution.selected)


class TestIncrementalGreedy:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 24),
        d=st.integers(2, 16),
        p=st.integers(1, 10),
    )
    def test_matches_dense_reference(self, seed, n, d, p):
        rng = np.random.default_rng(seed)
        candidates = column_kernels(rng.standard_normal((n, d)))
        Kz = random_kernel(rng, n=n, m=2)
        config = MklConfig(p=p)
        selected, trajectory, mu, stop_reason = dense_reference_greedy(list(candidates), Kz, config)
        solution = greedy_select(candidates, Kz, config)
        assert solution.selected == selected
        assert solution.stop_reason == stop_reason
        np.testing.assert_allclose(solution.alignment_trajectory, trajectory, rtol=0, atol=1e-12)
        np.testing.assert_allclose(solution.mu, mu, rtol=0, atol=1e-12)
        # mu is convex with support equal to the selection; alignment only rises
        assert np.all(solution.mu >= 0) and solution.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(np.flatnonzero(solution.mu)) == set(solution.selected)
        assert np.all(np.diff(solution.alignment_trajectory) > 0)

    def test_ties_break_toward_lowest_index(self, rng):
        noise, twin = rng.standard_normal((2, 12))
        candidates = column_kernels(np.column_stack([noise, twin, twin]))
        Kz = candidates[1]
        solution = greedy_select(candidates, Kz, MklConfig(p=2))
        assert solution.selected[0] == 1

    def test_target_must_share_dimensions(self, rng):
        with pytest.raises(DataValidationError, match="dimensions"):
            greedy_select(
                column_kernels(rng.standard_normal((5, 1))), random_kernel(rng, n=6), MklConfig(p=1)
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), batch=st.integers(1, 8))
    def test_batch_pair_weights_equal_scalar_form(self, seed, k, batch):
        # Gram entries of positive vectors, as for kernels; some b are scaled
        # copies of a, which drives the determinant to the proportional branch
        rng = np.random.default_rng(seed)
        a, z = rng.uniform(0.01, 1.0, size=(2, k))
        bs = rng.uniform(0.01, 1.0, size=(batch, k))
        bs[::2] = a * rng.uniform(0.5, 2.0, size=(bs[::2].shape[0], 1))
        aa, az, zz = float(a @ a), float(a @ z), float(z @ z)
        bb, ab, bz = (bs * bs).sum(axis=1), bs @ a, bs @ z
        wa, wb, achieved = _pair_weights_batch(aa, bb, ab, az, bz, zz)
        for i in range(batch):
            scalar = scalar_pair_weights(aa, bb[i], ab[i], az, bz[i], zz)
            assert (wa[i], wb[i], achieved[i]) == scalar


class TestInnerProducts:
    """The greedy reads its inner products from the Gram matrix or from the
    stack of triangles, whichever costs less for the shape."""

    FIXED_POINTS = [
        (160, 600, 50, "gram", 7_200_000),  # wide_select's shape: no slower, no larger
        (160, 500, 10, "gram", 5_000_000),  # deep_latent's: 50 per step, 5 MB against 51 MB
        (160, 1500, 50, "gram", 45_000_000),  # 30 per step: no slower
        (160, 2400, 10, "stack", 244_224_000),  # 240 per step: several times slower
        (160, 10000, 50, "stack", 1_017_600_000),  # 200 per step, and the Gram is larger
        (400, 2500, 50, "gram", 125_000_000),  # 50 per step, 125 MB against 1.6 GB
        (10, 18, 5, "gram", 6480),  # 20 d^2 = 4 d n(n-1): no larger than the stack
        (10, 19, 5, "stack", 6840),  # the Gram would take more memory than the stack
    ]

    @pytest.mark.parametrize(
        ("n", "d", "p", "way", "nbytes"),
        FIXED_POINTS,
        ids=[f"{n}-{d}-{p}-{way}" for n, d, p, way, _ in FIXED_POINTS],
    )
    def test_source_rule_fixed_points(self, monkeypatch, n, d, p, way, nbytes):
        # the Gram where it is no slower and no larger, or at most about 15%
        # slower and at least 4 times smaller; the choice is made from the
        # shape alone, so both sources are stubbed and neither is allocated
        class Taken(Exception):
            pass

        def taking(name):
            def method(self, *args):
                raise Taken(name)

            return method

        for name in ("_pair_blocks", "triangles"):
            monkeypatch.setattr(StackedKernels, name, taking(name))
        stack = StackedKernels(
            bandwidths=np.ones(d),
            degenerate=np.zeros(d, dtype=bool),
            points=np.broadcast_to(0.0, (n, d)),
        )
        with pytest.raises(Taken) as taken:
            greedy_select(stack, KernelMatrix(np.eye(n)), MklConfig(p=p))
        assert str(taken.value) == {"gram": "_pair_blocks", "stack": "triangles"}[way]
        assert kernel.selection_source(n, d, p) == (way, nbytes)

    @pytest.mark.parametrize(
        ("n", "d", "p", "way", "nbytes"),
        [
            # d = 30p: past it the Gram must also be 4 times smaller (380 < 20 d)
            (20, 30, 1, "gram", 18_000),
            (20, 31, 1, "stack", 47_120),
            # d = 50p: past it the stack, however much smaller the Gram is
            (40, 50, 1, "gram", 50_000),
            (40, 51, 1, "stack", 318_240),
            # 20 d^2 = 4 d n(n-1), with d <= 30p: 5 d = n(n-1) = 90
            (10, 18, 1, "gram", 6480),
            (10, 19, 1, "stack", 6840),
            # 4 * 20 d^2 = 4 d n(n-1), with 30p < d <= 50p: 20 d = n(n-1) = 1560
            (40, 78, 2, "gram", 121_680),
            (40, 79, 2, "stack", 492_960),
        ],
    )
    def test_source_rule_boundaries(self, n, d, p, way, nbytes):
        assert kernel.selection_source(n, d, p) == (way, nbytes)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 2000), d=st.integers(1, 50_000), p=st.integers(1, 500))
    def test_source_rule_equals_the_three_function_form(self, n, d, p):
        # the rule as it stood split over a byte count, a predicate and the
        # function that joined them
        def source_bytes(n, d):
            return 20 * d * d, 4 * d * n * (n - 1)

        def takes_gram(n, d, steps):
            gram_bytes, stack_bytes = source_bytes(n, d)
            if d <= 30 * steps:
                return gram_bytes <= stack_bytes
            return d <= 50 * steps and 4 * gram_bytes <= stack_bytes

        gram_bytes, stack_bytes = source_bytes(n, d)
        want = ("gram", gram_bytes) if takes_gram(n, d, p) else ("stack", stack_bytes)
        assert kernel.selection_source(n, d, p) == want

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        d=st.integers(1, 10),
        copies=st.lists(st.integers(0, 9), max_size=3),
    )
    def test_both_ways_agree_and_keep_twins_tied(self, seed, n, d, copies):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, d))
        values = np.column_stack([values, values[:, [c % d for c in copies]]])
        X = ExpressionMatrix(
            values, tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(values.shape[1]))
        )
        stacked = feature_kernels(X)
        Kz = random_kernel(rng, n=n)
        tz = Kz.entries[np.triu_indices(n, 1)]
        ways = {}
        for name in ("gram", "stack"):
            with pytest.MonkeyPatch.context() as patch:
                pin_source(patch, name)
                cz, ss, zz, column = stacked.inner_products(Kz, 1)
            ways[name] = cz, ss, zz, np.array([column(j) for j in range(X.d)])
        # the stack way is one matrix-vector product per column, as the
        # greedy made them before the Gram matrix
        upper = stacked.triangles()
        first = stacked.first_copies
        cz, ss, zz, columns = ways["stack"]
        assert cz.tobytes() == ((n + 2.0 * (upper @ tz))[first]).tobytes()
        assert ss.tobytes() == ((n + 2.0 * np.einsum("ij,ij->i", upper, upper))[first]).tobytes()
        assert zz == n + 2.0 * float(tz @ tz) == ways["gram"][2]
        for j in range(X.d):
            want = (n + 2.0 * (upper @ upper[first[j]]))[first]
            assert columns[j].tobytes() == want.tobytes()
        for cz, ss, _, columns in ways.values():
            for j in np.flatnonzero(first != np.arange(X.d)):
                i = first[j]
                assert cz[j] == cz[i] and ss[j] == ss[i] and (columns[j] == columns[i]).all()
                assert (columns[:, j] == columns[:, i]).all()
        for got, want in zip(ways["gram"], ways["stack"]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_both_ways_select_the_same_features(self, monkeypatch):
        for n, d, p in (
            (80, 60, 8),  # no slower and no larger
            (80, 200, 5),  # 40 features per step, taken because it is smaller
            (160, 500, 10),  # deep_latent's shape: 50 features per step
        ):
            assert kernel.selection_source(n, d, p)[0] == "gram"
            _, candidates, kz = informative_target_fixture(seed=5, n=n, d=d)
            solutions = []
            for way in ("gram", "stack"):
                pin_source(monkeypatch, way)
                solutions.append(greedy_select(candidates, kz, MklConfig(p=p)))
            monkeypatch.undo()
            gram, stack = solutions
            assert gram.selected == stack.selected and gram.stop_reason == stack.stop_reason
            np.testing.assert_allclose(
                gram.alignment_trajectory, stack.alignment_trajectory, rtol=0, atol=1e-14
            )


class TestCombinedKernel:
    def test_single_feature_equals_its_kernel(self, rng):
        K = random_kernel(rng, n=12)
        solution = MklSolution(
            mu=np.array([1.0]),
            selected=(0,),
            alignment_trajectory=(0.9,),
            target_alignment=0.9,
            stop_reason="reached_p",
        )
        np.testing.assert_array_equal(combined_kernel(solution, [K]).entries, K.entries)

    def test_convex_combination_keeps_unit_diagonal(self, rng):
        candidates = column_kernels(rng.standard_normal((10, 6)))
        Kz = random_kernel(rng, n=10)
        solution = greedy_select(candidates, Kz, MklConfig(p=4))
        combo = combined_kernel(solution, candidates)
        np.testing.assert_allclose(np.diag(combo.entries), 1.0, rtol=0, atol=1e-15)
        assert combo.entries.min() > 0.0 and combo.entries.max() <= 1.0 + 1e-15

    def test_out_of_range_index(self, rng):
        solution = MklSolution(
            mu=np.array([1.0]),
            selected=(3,),
            alignment_trajectory=(0.5,),
            target_alignment=0.5,
            stop_reason="reached_p",
        )
        with pytest.raises(DataValidationError):
            combined_kernel(solution, [random_kernel(rng)])

