import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkfs import clustering
from lkfs.clustering import (
    _draw,
    _kmeanspp_init,
    _sqdist_to_centers,
    adjusted_rand_index,
    kmeans,
    rand_index,
)
from lkfs.dataio import minmax_scale
from lkfs.errors import ConfigError, DataValidationError, NumericalError


def brute_force_pair_counts(pred, truth):
    """O(n^2) oracle: count sample pairs by cluster/class agreement."""
    n = len(pred)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_cluster = pred[i] == pred[j]
            same_class = truth[i] == truth[j]
            if same_cluster and same_class:
                a += 1
            elif not same_cluster and not same_class:
                b += 1
            elif same_cluster:
                c += 1
            else:
                d += 1
    return a, b, c, d


def brute_force_rand(pred, truth):
    a, b, c, d = brute_force_pair_counts(pred, truth)
    return (a + b) / (a + b + c + d)


def brute_force_ari(pred, truth):
    # pair-count form of the chance-corrected index
    a, b, c, d = brute_force_pair_counts(pred, truth)
    num = 2.0 * (a * b - c * d)
    den = (a + c) * (c + b) + (a + d) * (d + b)
    if den == 0:
        return 1.0
    return num / den


class TestKmeans:
    def test_two_obvious_clusters(self):
        X = np.array([0.0, 0.1, 10.0, 10.1])[:, None]
        result = kmeans(X, k=2, restarts=4, seed=0)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.labels[0] != result.labels[2]
        assert result.inertia == pytest.approx(0.01)

    def test_k_equals_n(self):
        X = np.array([[0.0], [1.0], [2.0], [5.0]])
        result = kmeans(X, k=4, restarts=3, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.labels) == [0, 1, 2, 3]

    def test_deterministic(self, rng):
        X = rng.standard_normal((40, 3))
        a = kmeans(X, k=3, restarts=5, seed=7)
        b = kmeans(X, k=3, restarts=5, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 1)), k=4)

    def test_zero_restarts_rejected(self, rng):
        with pytest.raises(ConfigError, match=r"^restarts must be >= 1$"):
            kmeans(rng.standard_normal((6, 2)), 2, restarts=0)

    def test_one_dimensional_input_rejected(self):
        message = r"^kmeans needs an \(n, d\) array, got shape \(6,\)$"
        with pytest.raises(DataValidationError, match=message):
            kmeans(np.arange(6.0), k=2)

    def test_recovers_planted_partition(self, small_fixture):
        X, labels = small_fixture
        informative = minmax_scale(X).values[:, :6]
        result = kmeans(informative, k=2, restarts=10, seed=0)
        truth = [labels.labels[sid] for sid in X.sample_ids]
        assert rand_index(result.labels, truth) == 1.0

    def test_an_inertia_increase_raises(self, monkeypatch):
        calls = []

        def inflated(X, centers, work=None):
            d2, work = _sqdist_to_centers(X, centers, work)
            calls.append(None)
            return d2 + 1e6 * len(calls), work  # farther than k-means++'s distances

        monkeypatch.setattr(clustering, "_sqdist_to_centers", inflated)
        X = np.random.default_rng(3).standard_normal((20, 2))
        with pytest.raises(NumericalError, match="Lloyd iteration increased inertia"):
            kmeans(X, k=3, restarts=1, seed=0)
        # iteration 1 takes the distances k-means++ drew from; iteration 2 calls
        assert len(calls) == 1

    def test_labels_within_range(self, rng):
        X = rng.standard_normal((25, 2))
        result = kmeans(X, k=5, restarts=3, seed=2)
        assert result.labels.min() >= 0 and result.labels.max() < 5
        assert result.iterations_run >= 1


class TestReusedDistanceWorkspace:
    """Squared distances computed in the reused workspace have the bits of the
    broadcast temporaries, for every memory layout of the points."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 20),
        st.integers(1, 5),
        st.integers(1, 40),
        st.sampled_from(["C", "fancy-indexed columns", "strided"]),
        st.integers(0, 2**16),
    )
    def test_matches_broadcast_temporaries(self, n, k, d, layout, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, 2 * d))
        X = {
            "C": np.ascontiguousarray(values[:, :d]),
            "fancy-indexed columns": values[:, rng.permutation(2 * d)[:d]],  # F-ordered
            "strided": values[:, ::2],
        }[layout]
        work = None
        for _ in range(3):  # later calls reuse the scratch of the first
            centers = rng.standard_normal((k, d))
            diff = X[:, None, :] - centers[None, :, :]
            expected = (diff * diff).sum(axis=2)
            got, work = _sqdist_to_centers(X, centers, work)
            assert got.tobytes() == expected.tobytes()


class TestKmeansppDistances:
    """The squared distances k-means++ hands to Lloyd's first assignment have
    the bits of ``_sqdist_to_centers`` for every memory layout of the points."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 20),
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.sampled_from(["C", "F", "fancy-indexed columns", "strided"]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_match_sqdist_to_centers(self, n, d, k_frac, layout, duplicates, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, 2 * d)) * 10.0 ** rng.integers(-3, 4, size=2 * d)
        if duplicates:  # repeated rows put k-means++ mass at zero
            values = values[rng.integers(0, max(1, n // 3), n)]
        X = {
            "C": np.ascontiguousarray(values[:, :d]),
            "F": np.asfortranarray(values[:, :d]),
            "fancy-indexed columns": values[:, rng.permutation(2 * d)[:d]],
            "strided": values[:, ::2],
        }[layout]
        k = 2 + round(k_frac * (n - 2))
        centers, d2 = _kmeanspp_init(X, k, np.random.default_rng([seed, 0]))
        assert d2.shape == (n, k)
        assert d2.tobytes() == _sqdist_to_centers(X, centers)[0].tobytes()


def reference_kmeans(X, k, restarts, seed, max_iterations=300):
    """k-means as written before its bookkeeping was cut: ``rng.choice`` draws,
    a fancy-indexed inertia, ``np.array_equal`` convergence, per-cluster
    ``.mean(axis=0)`` centers and an empty-cluster scan after every update.
    After ``max_iterations`` updates it returns the next assignment.

    Returns (inertia, labels, iterations, undone) of the best restart, where
    ``undone`` says whether an assignment there ever undid the empty-cluster
    repair of the iteration before (recorded only; it changes nothing)."""

    def init(rng):
        n = X.shape[0]
        chosen = [int(rng.integers(n))]
        d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
        while len(chosen) < k:
            total = d2.sum()
            if total <= 0.0:
                nxt = [i for i in range(n) if i not in set(chosen)][0]
            else:
                nxt = int(rng.choice(n, p=d2 / total))
            chosen.append(nxt)
            d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
        return X[chosen].copy()

    def lloyd(centers):
        n = X.shape[0]
        labels = np.full(n, -1, dtype=np.int64)
        prev_inertia = np.inf
        work = None
        repaired, undone = None, False
        for iteration in range(1, max_iterations + 1):
            d2, work = _sqdist_to_centers(X, centers, work)
            new_labels = d2.argmin(axis=1)
            inertia = float(d2[np.arange(n), new_labels].sum())
            if inertia > prev_inertia * (1 + 1e-9) + 1e-12:
                raise NumericalError("Lloyd iteration increased inertia")
            prev_inertia = inertia
            if np.array_equal(new_labels, labels):
                return labels, inertia, iteration, undone
            undone |= repaired is not None and np.array_equal(new_labels, repaired)
            labels = new_labels
            for c in range(k):
                members = labels == c
                if members.any():
                    centers[c] = X[members].mean(axis=0)
            repaired = labels.copy() if np.bincount(labels, minlength=k).min() == 0 else None
            for c in range(k):
                if (labels == c).any():
                    continue
                dist_own = _sqdist_to_centers(X, centers, work)[0][np.arange(n), labels]
                counts = np.bincount(labels, minlength=k)
                movable = counts[labels] > 1
                if not movable.any():
                    continue
                dist_own[~movable] = -np.inf
                far = int(dist_own.argmax())
                labels[far] = c
                centers[c] = X[far]
                for cc in np.unique(labels):
                    centers[cc] = X[labels == cc].mean(axis=0)
        d2, _ = _sqdist_to_centers(X, centers, work)
        labels = d2.argmin(axis=1)
        return labels, float(d2[np.arange(n), labels].sum()), max_iterations, undone

    best = None
    for r in range(restarts):
        labels, inertia, iterations, undone = lloyd(init(np.random.default_rng([seed, r])))
        if best is None or inertia < best[0]:
            best = (inertia, labels, iterations, undone)
    return best


def ten_distinct_rows(n, d, seed):
    """n rows drawn from 10 distinct ones, scaled by 0.1 so that cluster means
    of copies of a row need not equal the row exactly."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((10, d)) * 0.1)[rng.integers(0, 10, n)]


_KMEANS_INPUTS = (
    st.integers(2, 14),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.integers(1, 4),
    st.sampled_from(["C", "fancy-indexed columns", "strided"]),
    st.booleans(),
    st.integers(0, 2**16),
)


class TestKmeansBitIdentity:
    """kmeans gives the labels, inertia and iteration count of the reference
    bit for bit, for C-ordered, F-ordered and strided points, duplicate rows
    and k up to n.
    Where an assignment undoes an empty-cluster repair, kmeans stops there,
    and only the iteration count differs."""

    @settings(max_examples=100, deadline=None)
    @given(*_KMEANS_INPUTS)
    def test_matches_reference(self, n, d, k_frac, restarts, layout, duplicates, seed):
        self.assert_matches_reference(n, d, k_frac, restarts, layout, duplicates, seed)

    @settings(max_examples=60, deadline=None)
    @given(*_KMEANS_INPUTS, st.sampled_from([1, 2, 3]))
    def test_matches_reference_when_the_iterations_run_out(
        self, n, d, k_frac, restarts, layout, duplicates, seed, cap
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "_MAX_LLOYD_ITERATIONS", cap)
            self.assert_matches_reference(n, d, k_frac, restarts, layout, duplicates, seed, cap)

    @staticmethod
    def assert_matches_reference(n, d, k_frac, restarts, layout, duplicates, seed, cap=300):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, 2 * d))
        if duplicates:  # repeated rows put k-means++ mass at zero and empty clusters
            values = values[rng.integers(0, max(1, n // 3), n)]
        X = {
            "C": np.ascontiguousarray(values[:, :d]),
            "fancy-indexed columns": values[:, rng.permutation(2 * d)[:d]],  # F-ordered
            "strided": values[:, ::2],
        }[layout]
        k = 2 + round(k_frac * (n - 2))
        inertia, labels, iterations, undone = reference_kmeans(X, k, restarts, seed, cap)
        got = kmeans(X, k, restarts=restarts, seed=seed)
        assert got.labels.tobytes() == labels.tobytes()
        assert np.float64(got.inertia).tobytes() == np.float64(inertia).tobytes()
        if not undone:
            assert got.iterations_run == iterations

    def test_stops_when_an_assignment_undoes_a_repair(self):
        # 9 clusters over 7 distinct rows: each repair moves a duplicate into
        # an empty cluster, and the next assignment moves it back
        X = np.random.default_rng(0).standard_normal((7, 3))[np.arange(24) % 7]
        inertia, labels, iterations, undone = reference_kmeans(X, 9, 3, 1)
        assert undone and iterations == 300
        got = kmeans(X, 9, restarts=3, seed=1)
        assert got.labels.tobytes() == labels.tobytes()
        assert np.float64(got.inertia).tobytes() == np.float64(inertia).tobytes()
        assert got.inertia == 0.0 and np.unique(got.labels).size == 7
        assert got.iterations_run <= 3

    def test_a_repair_moves_no_point_that_is_alone_in_its_cluster(self):
        # 4 clusters over 2 distinct rows: each repair may take only a copy of
        # 0.1, whose cluster mean is not 0.1 exactly, so the assignments and
        # repairs cycle until the iterations run out
        X = np.array([-0.2, 0.1, 0.1, 0.1, 0.1, -0.2])[:, None]
        inertia, labels, iterations, undone = reference_kmeans(X, 4, 1, 1072)
        got = kmeans(X, 4, restarts=1, seed=1072)
        assert got.labels.tobytes() == labels.tobytes()
        assert np.float64(got.inertia).tobytes() == np.float64(inertia).tobytes()
        assert not undone and got.iterations_run == iterations == 300

    # (X, k, restarts, seed) whose assignments and repairs cycle with period 2
    # until the iterations run out; the cycle starts at iteration 1, 2 or 3
    CYCLING = {
        "ten distinct rows, 1 column": (ten_distinct_rows(200, 1, seed=1), 12, 10, 1),
        "ten distinct rows, 3 columns": (ten_distinct_rows(200, 3, seed=0), 12, 10, 0),
        "five identical rows": (np.full((5, 1), -0.1), 3, 3, 0),
        "two distinct rows, cycle from 2": (np.repeat([[-0.2], [0.1]], 4, axis=0), 6, 1, 1),
        "two distinct rows, cycle from 3": (np.repeat([[-0.2], [0.1]], 4, axis=0), 6, 1, 0),
    }

    @pytest.mark.parametrize("cap", [300, 10, 11, 12])
    @pytest.mark.parametrize("case", list(CYCLING))
    def test_a_cycling_run_returns_the_last_assignment_of_the_cap(self, monkeypatch, case, cap):
        X, k, restarts, seed = self.CYCLING[case]
        inertia, labels, iterations, undone = reference_kmeans(X, k, restarts, seed, cap)
        assert not undone and iterations == cap
        calls = []

        def counted(*args):
            calls.append(None)
            return _sqdist_to_centers(*args)

        monkeypatch.setattr(clustering, "_MAX_LLOYD_ITERATIONS", cap)
        monkeypatch.setattr(clustering, "_sqdist_to_centers", counted)
        got = kmeans(X, k, restarts=restarts, seed=seed)
        assert got.labels.tobytes() == labels.tobytes()
        assert np.float64(got.inertia).tobytes() == np.float64(inertia).tobytes()
        assert got.iterations_run == cap
        # the work does not grow with the cap: each restart stops at its first
        # repeat, by iteration 5
        assert len(calls) <= restarts * 4 * k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**16))
    def test_draw_matches_rng_choice(self, n, seed):
        rng = np.random.default_rng(seed)
        # non-negative weights with zeros and ties
        weights = rng.integers(0, 4, n).astype(np.float64) * rng.choice([1.0, 0.1, 1e-3])
        weights[rng.integers(n)] += 1.0
        p = weights / weights.sum()
        ours, theirs = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        assert _draw(p, ours) == int(theirs.choice(n, p=p))
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestRandIndex:
    def test_identical_partitions(self):
        assert rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_all_one_cluster_case(self):
        # truth [0,0,1,1] vs a single cluster: A=2, B=0, C=4, D=0 -> 2/6
        truth = [0, 0, 1, 1]
        pred = [0, 0, 0, 0]
        expected = brute_force_rand(pred, truth)
        assert expected == pytest.approx(2 / 6)
        assert rand_index(pred, truth) == expected

    def test_symmetry(self, rng):
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 4, size=30)
        assert rand_index(pred, truth) == rand_index(truth, pred)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        pred = rng.integers(0, rng.integers(2, 6), size=n)
        truth = rng.integers(0, rng.integers(2, 6), size=n)
        assert rand_index(pred, truth) == brute_force_rand(pred, truth)

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(DataValidationError):
            rand_index([0, 1], [0, 1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_class_names_score_as_their_codes(self, seed):
        # the names sort in another order than the codes they stand for
        rng = np.random.default_rng(200 + seed)
        pred = rng.integers(0, 3, size=40)
        codes = rng.integers(0, 4, size=40)
        names = [("delta", "beta", "gamma", "alpha")[c] for c in codes]
        assert rand_index(pred, names) == rand_index(pred, codes)
        assert adjusted_rand_index(pred, names) == adjusted_rand_index(pred, codes)


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 1, 1, 2], [5, 9, 9, 7]) == 1.0

    def test_all_one_cluster_is_zero(self):
        assert adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pair_count_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 120))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert adjusted_rand_index(pred, truth) == pytest.approx(
            brute_force_ari(pred, truth), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=4, max_size=40),
        st.permutations(list(range(5))),
    )
    def test_relabeling_invariance(self, labels, perm):
        truth = [(i * 7) % 3 for i in range(len(labels))]
        relabeled = [perm[c] for c in labels]
        assert rand_index(labels, truth) == rand_index(relabeled, truth)
        assert adjusted_rand_index(labels, truth) == pytest.approx(
            adjusted_rand_index(relabeled, truth), abs=1e-14
        )


def label_vectors(n):
    """Labels for n samples: non-contiguous integer codes, strings, a single
    cluster, or all singletons."""
    return st.one_of(
        st.lists(st.sampled_from([-7, 0, 3, 100]), min_size=n, max_size=n),
        st.lists(st.sampled_from(["BRCA", "LUAD", "KIRC"]), min_size=n, max_size=n),
        st.just([0] * n),
        st.just([f"s{i}" for i in range(n)]),
    )


class TestPairCountOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(label_vectors(n), label_vectors(n))))
    def test_both_indices_match_brute_force(self, pair):
        pred, truth = pair
        assert rand_index(pred, truth) == brute_force_rand(pred, truth)
        assert adjusted_rand_index(pred, truth) == pytest.approx(
            brute_force_ari(pred, truth), abs=1e-12
        )
