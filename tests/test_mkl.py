import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkfs.dataio import generate_synthetic, minmax_scale
from lkfs.errors import DataValidationError
from lkfs import mkl
from lkfs.dataio import ExpressionMatrix
from lkfs.kernel import (
    KernelMatrix,
    StackedKernels,
    alignment,
    feature_kernels,
    gaussian_kernel,
    median_bandwidth,
    upper_triangle,
)
from lkfs.mkl import (
    MklConfig,
    MklSolution,
    _inner_products,
    _pair_weights_batch,
    _pair_weights_from_scalars,
    combined_kernel,
    greedy_select,
    solution_to_dict,
    solve_pair_weights,
)


def grid_search_alignment(Ka, Kb, Kz, n_points=2000):
    """Oracle: scan mixing ratios mu_b/mu_a over {0, log-spaced, infinity}."""
    best = -np.inf
    for ratio in [0.0, *np.logspace(-3, 3, n_points), np.inf]:
        if np.isinf(ratio):
            mix = Kb.entries
        else:
            mix = Ka.entries + ratio * Kb.entries
        best = max(best, alignment(KernelMatrix(mix, 1.0), Kz))
    return best


def random_kernel(rng, n=6, m=2, sigma=None):
    pts = rng.standard_normal((n, m))
    return gaussian_kernel(pts, sigma or median_bandwidth(pts))


def informative_target_fixture(seed, n=200, d=100, informative=10):
    """Feature kernels plus the generator's ground-truth class-block target."""
    X, labels = generate_synthetic(n=n, d=d, informative=informative, separation=4.0, seed=seed)
    Xs = minmax_scale(X)
    candidates = feature_kernels(Xs)
    codes = labels.aligned_to(Xs.sample_ids)
    blocks = (codes[:, None] == codes[None, :]).astype(float)
    kz = KernelMatrix(blocks, bandwidth=1.0, source="latent")
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
    rng = np.random.default_rng([config.seed, 7]) if config.candidate_subsample else None
    stop_reason = "reached_p"
    while len(selected) < config.p:
        if not remaining:
            stop_reason = "no_candidates"
            break
        pool = remaining
        if rng is not None and config.candidate_subsample < len(remaining):
            idx = rng.choice(len(remaining), size=config.candidate_subsample, replace=False)
            pool = [remaining[i] for i in sorted(idx)]
        best = None
        for j in pool:
            mj = inner(k_mu, candidates[j].entries)
            w1, w2, achieved = _pair_weights_from_scalars(mm, ss[j], mj, mz, cz[j], zz)
            if best is None or (achieved, -j) > best[0]:
                best = ((achieved, -j), j, w1, w2)
        (achieved, _), j, w1, w2 = best
        if achieved - trajectory[-1] <= config.improvement_tolerance:
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
        mix = KernelMatrix(mu_a * Ka.entries + mu_b * Kz.entries, 1.0)
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

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DataValidationError):
            solve_pair_weights(random_kernel(rng, n=5), random_kernel(rng, n=6), random_kernel(rng, n=6))


class TestGreedySelect:
    def test_exact_target_candidate_stops_immediately(self, rng):
        Kz = random_kernel(rng)
        noise = [random_kernel(rng) for _ in range(3)]
        candidates = [noise[0], KernelMatrix(Kz.entries.copy(), Kz.bandwidth), noise[1], noise[2]]
        solution = greedy_select(candidates, Kz, MklConfig(p=3))
        assert solution.selected == (1,)
        assert solution.alignment_trajectory == (pytest.approx(1.0, abs=1e-12),)
        assert solution.stop_reason == "no_improvement"

    def test_trajectory_strictly_increasing(self, rng):
        pts = rng.standard_normal((30, 1))
        candidates = [random_kernel(rng, n=30, m=1) for _ in range(12)]
        Kz = gaussian_kernel(pts, median_bandwidth(pts))
        solution = greedy_select(candidates, Kz, MklConfig(p=8))
        diffs = np.diff(solution.alignment_trajectory)
        assert np.all(diffs > 0)

    def test_mu_nonzero_exactly_on_selected(self, rng):
        candidates = [random_kernel(rng, n=20) for _ in range(10)]
        Kz = random_kernel(rng, n=20)
        solution = greedy_select(candidates, Kz, MklConfig(p=5))
        nonzero = set(np.nonzero(solution.mu)[0])
        assert nonzero == set(solution.selected)
        assert solution.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(solution.mu >= 0)

    def test_final_alignment_recomputable_from_mu(self, rng):
        candidates = [random_kernel(rng, n=25) for _ in range(15)]
        Kz = random_kernel(rng, n=25)
        solution = greedy_select(candidates, Kz, MklConfig(p=6))
        recomputed = alignment(combined_kernel(solution, candidates), Kz)
        assert abs(recomputed - solution.target_alignment) < 1e-10
        assert abs(recomputed - solution.alignment_trajectory[-1]) < 1e-10

    def test_final_beats_every_single_candidate(self, rng):
        candidates = [random_kernel(rng, n=15) for _ in range(8)]
        Kz = random_kernel(rng, n=15)
        solution = greedy_select(candidates, Kz, MklConfig(p=8))
        singles = max(alignment(K, Kz) for K in candidates)
        assert solution.target_alignment >= singles - 1e-12

    def test_candidate_permutation_invariance(self, rng):
        candidates = [random_kernel(rng, n=18) for _ in range(9)]
        Kz = random_kernel(rng, n=18)
        base = greedy_select(candidates, Kz, MklConfig(p=4))
        perm = [4, 2, 7, 0, 8, 1, 5, 3, 6]
        permuted = greedy_select([candidates[j] for j in perm], Kz, MklConfig(p=4))
        assert {perm[j] for j in permuted.selected} == set(base.selected)

    def test_degenerate_candidates_excluded(self, rng):
        good = random_kernel(rng, n=10)
        bad = KernelMatrix(np.ones((10, 10)), float("nan"), degenerate=True)
        Kz = random_kernel(rng, n=10)
        solution = greedy_select([bad, good], Kz, MklConfig(p=2))
        assert 0 not in solution.selected

    def test_all_degenerate_rejected(self):
        bad = KernelMatrix(np.ones((4, 4)), float("nan"), degenerate=True)
        with pytest.raises(DataValidationError):
            greedy_select([bad], KernelMatrix(np.eye(4), 1.0), MklConfig(p=1))

    def test_candidate_subsample_deterministic(self, rng):
        candidates = [random_kernel(rng, n=14) for _ in range(12)]
        Kz = random_kernel(rng, n=14)
        config = MklConfig(p=4, candidate_subsample=5, seed=3)
        a = greedy_select(candidates, Kz, config)
        b = greedy_select(candidates, Kz, config)
        assert a.selected == b.selected
        assert np.all(np.diff(a.alignment_trajectory) > 0)

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
        subsample=st.sampled_from([None, 1, 3]),
    )
    def test_matches_dense_reference(self, seed, n, d, p, subsample):
        rng = np.random.default_rng(seed)
        candidates = [
            random_kernel(rng, n=n, m=int(rng.integers(1, 3)), sigma=float(rng.uniform(0.3, 3.0)))
            for _ in range(d)
        ]
        Kz = random_kernel(rng, n=n, m=2)
        config = MklConfig(p=p, candidate_subsample=subsample, seed=seed % 97)
        selected, trajectory, mu, stop_reason = dense_reference_greedy(candidates, Kz, config)
        solution = greedy_select(candidates, Kz, config)
        assert solution.selected == selected
        assert solution.stop_reason == stop_reason
        np.testing.assert_allclose(solution.alignment_trajectory, trajectory, rtol=0, atol=1e-12)
        np.testing.assert_allclose(solution.mu, mu, rtol=0, atol=1e-12)
        # mu is convex with support equal to the selection; alignment only rises
        assert np.all(solution.mu >= 0) and solution.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(np.flatnonzero(solution.mu)) == set(solution.selected)
        assert np.all(np.diff(solution.alignment_trajectory) > 0)

    def test_stacked_and_listed_candidates_agree(self, small_fixture):
        X, labels = small_fixture
        stacked = feature_kernels(X)
        codes = labels.aligned_to(X.sample_ids)
        kz = KernelMatrix((codes[:, None] == codes[None, :]).astype(float), 1.0)
        a = greedy_select(stacked, kz, MklConfig(p=6))
        b = greedy_select(list(stacked), kz, MklConfig(p=6))
        assert a.selected == b.selected
        assert a.alignment_trajectory == b.alignment_trajectory

    def test_ties_break_toward_lowest_index(self, rng):
        Kz = random_kernel(rng, n=12)
        noise = random_kernel(rng, n=12)
        twin = KernelMatrix(Kz.entries.copy(), 1.0)
        solution = greedy_select([noise, twin, twin], Kz, MklConfig(p=2))
        assert solution.selected[0] == 1

    def test_target_must_share_dimensions(self, rng):
        with pytest.raises(DataValidationError, match="dimensions"):
            greedy_select([random_kernel(rng, n=5)], random_kernel(rng, n=6), MklConfig(p=1))

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
            scalar = _pair_weights_from_scalars(aa, bb[i], ab[i], az, bz[i], zz)
            assert (wa[i], wb[i], achieved[i]) == scalar


class TestInnerProducts:
    """The greedy reads its inner products from the Gram matrix or from the
    stack of triangles, whichever costs less for the shape."""

    @pytest.mark.parametrize(
        ("n", "d", "p", "way"),
        [
            (160, 600, 50, "gram"),  # wide_select's shape: 12 features per step
            (160, 500, 10, "stack"),  # deep_latent's shape: 50 features per step
            (10, 18, 5, "gram"),  # 5 d <= 2 n(n-1)/2 = 90
            (10, 19, 5, "stack"),  # the Gram would take more memory than the stack
        ],
    )
    def test_takes_the_gram_only_where_no_slower_and_no_larger(self, monkeypatch, n, d, p, way):
        calls = []
        for name in ("gram", "triangles"):
            method = getattr(StackedKernels, name)
            monkeypatch.setattr(
                StackedKernels,
                name,
                lambda self, *args, _m=method, _n=name: calls.append(_n) or _m(self, *args),
            )
        rng = np.random.default_rng(n + d)
        X = ExpressionMatrix(
            rng.random((n, d)), tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(d))
        )
        greedy_select(feature_kernels(X), random_kernel(rng, n=n), MklConfig(p=p))
        assert calls == [{"gram": "gram", "stack": "triangles"}[way]]

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
        tz = upper_triangle(random_kernel(rng, n=n))
        ways = {}
        for name, ratio in (("gram", 10**9), ("stack", 0)):
            if name == "gram" and 5 * X.d > n * (n - 1):
                continue  # the Gram is never taken here
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mkl, "_GRAM_FEATURES_PER_STEP", ratio)
                cz, ss, column = _inner_products(stacked, tz, 1)
            ways[name] = cz, ss, np.array([column(j) for j in range(X.d)])
        # the stack way is one matrix-vector product per column, as the
        # greedy made them before the Gram matrix
        upper = stacked.triangles()
        first = stacked.first_copies
        cz, ss, columns = ways["stack"]
        assert cz.tobytes() == ((n + 2.0 * (upper @ tz))[first]).tobytes()
        assert ss.tobytes() == ((n + 2.0 * np.einsum("ij,ij->i", upper, upper))[first]).tobytes()
        for j in range(X.d):
            assert columns[j].tobytes() == ((n + 2.0 * (upper @ upper[j]))[first]).tobytes()
        for cz, ss, columns in ways.values():
            for j in np.flatnonzero(first != np.arange(X.d)):
                i = first[j]
                assert cz[j] == cz[i] and ss[j] == ss[i] and columns[j][j] == columns[i][i]
                assert (columns[:, j] == columns[:, i]).all()
        if "gram" in ways:
            for got, want in zip(ways["gram"], ways["stack"]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_both_ways_select_the_same_features(self, monkeypatch):
        _, candidates, kz = informative_target_fixture(seed=5, n=80, d=60)
        solutions = []
        for ratio in (10**9, 0):
            monkeypatch.setattr(mkl, "_GRAM_FEATURES_PER_STEP", ratio)
            solutions.append(greedy_select(candidates, kz, MklConfig(p=8)))
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
        candidates = [random_kernel(rng, n=10) for _ in range(6)]
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


def test_solution_dump_fields(rng):
    candidates = [random_kernel(rng, n=8) for _ in range(5)]
    Kz = random_kernel(rng, n=8)
    solution = greedy_select(candidates, Kz, MklConfig(p=3))
    doc = solution_to_dict(solution, [f"g{j}" for j in range(5)])
    assert set(doc) == {"method", "selected", "mu", "trajectory", "target_alignment", "stop_reason"}
    assert doc["method"] == "lkfs"
    assert len(doc["selected"]) == len(solution.selected)
