import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkfs import baselines
from lkfs.baselines import (
    _between_cluster_ss,
    _l1_bounded_weights,
    graph_consistency_scores,
    sparse_kmeans,
    spec_scores,
)
from lkfs.dataio import minmax_scale
from lkfs.errors import ConfigError
from lkfs.kernel import gaussian_kernel, median_bandwidth


def spec_score_oracle(values, sigma):
    """Explicit normalized-Laplacian quadratic form, one feature at a time."""
    n = values.shape[0]
    S = gaussian_kernel(values, sigma).entries
    deg = S.sum(axis=1)
    L = np.eye(n) - np.diag(deg**-0.5) @ S @ np.diag(deg**-0.5)
    scores = []
    for j in range(values.shape[1]):
        g = np.sqrt(deg) * values[:, j]
        norm = np.sqrt(float(np.dot(g, g)))
        if norm == 0:
            scores.append(np.inf)
            continue
        fhat = g / norm
        scores.append(float(np.dot(fhat, L @ fhat)))
    return np.array(scores)


class TestBoundedWeights:
    def test_slack_case_returns_unit_l2(self):
        b = np.array([10.0, 0.0, 0.0])
        w = _l1_bounded_weights(b, s=1.5)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.abs(w).sum() <= 1.5

    def test_bisection_binds_l1(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(0.5, 3.0, size=40)
        s = 2.5
        w = _l1_bounded_weights(b, s)
        assert abs(np.abs(w).sum() - s) <= 1e-6
        assert np.linalg.norm(w) <= 1.0 + 1e-8
        assert np.all(w >= 0)

    def test_tied_top_uses_uniform_mass(self):
        # 9 tied maxima with s=2: sqrt(9) > 2, the L1 bound cannot bind at
        # unit L2; the maximizer spreads s/9 over the tied set
        b = np.concatenate([np.full(9, 5.0), np.full(11, 0.1)])
        s = 2.0
        w = _l1_bounded_weights(b, s)
        assert np.abs(w).sum() == pytest.approx(s)
        assert np.linalg.norm(w) <= 1.0 + 1e-12
        np.testing.assert_allclose(w[:9], s / 9)
        np.testing.assert_array_equal(w[9:], 0.0)

    def test_all_zero_bcss(self):
        w = _l1_bounded_weights(np.zeros(5), s=2.0)
        assert np.abs(w).sum() == pytest.approx(2.0)


class TestBetweenClusterSums:
    def test_clamped_where_rounding_goes_below_zero(self):
        # two clusters of the same three values: the between-cluster sum of
        # the first feature is 0, but total minus within rounds to -5.6e-17
        a = np.random.default_rng(0).uniform(0, 1, 3)
        values = np.column_stack([np.concatenate([a, a[::-1]]), [0, 0, 0, 1, 1, 1.0]])
        b = _between_cluster_ss(values, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert b.tolist() == [0.0, 1.5]


class TestSparseKmeans:
    def test_duplicate_features_get_equal_weights(self, small_fixture):
        X, _ = small_fixture
        values = minmax_scale(X).values[:, :8].copy()
        values[:, 7] = values[:, 0]  # exact duplicate of an informative feature
        result = sparse_kmeans(values, k=2, s=2.0, seed=0, restarts=4)
        assert result.weights[7] == pytest.approx(result.weights[0], abs=1e-6)

    def test_constraints_hold(self, small_fixture):
        X, _ = small_fixture
        result = sparse_kmeans(minmax_scale(X).values, k=2, s=3.0, seed=1, restarts=4)
        assert np.all(result.weights >= 0)
        assert np.linalg.norm(result.weights) <= 1.0 + 1e-8
        assert np.abs(result.weights).sum() <= 3.0 + 1e-8

    def test_objective_non_decreasing(self, small_fixture):
        X, _ = small_fixture
        result = sparse_kmeans(minmax_scale(X).values, k=2, s=3.0, seed=2, restarts=4)
        history = np.asarray(result.objective_history)
        assert np.all(np.diff(history) >= -1e-9)

    def test_informative_features_outweigh_noise(self, small_fixture):
        X, _ = small_fixture
        values = minmax_scale(X).values
        result = sparse_kmeans(values, k=2, s=float(np.sqrt(6)), seed=3, restarts=10)
        informative = result.weights[:6]
        noise = result.weights[6:]
        assert informative.min() > noise.max()

    def test_s_bounds_enforced(self, small_fixture):
        X, _ = small_fixture
        with pytest.raises(ConfigError):
            sparse_kmeans(minmax_scale(X).values, k=2, s=0.5, seed=0)
        with pytest.raises(ConfigError):
            sparse_kmeans(minmax_scale(X).values, k=2, s=100.0, seed=0)

    def test_stops_once_the_weights_move_less_than_1e_4(self, small_fixture, monkeypatch):
        # scripted weight updates whose relative L1 changes are 5e-3, then 5e-5
        values = minmax_scale(small_fixture[0]).values
        weights = [np.full(values.shape[1], 1.0 / math.sqrt(values.shape[1]))]
        factors = iter([1 + 5e-3, 1 + 5e-5, 1 + 5e-3])

        def scripted(b, s):
            weights.append(weights[-1] * next(factors))
            return weights[-1]

        monkeypatch.setattr(baselines, "_l1_bounded_weights", scripted)
        result = sparse_kmeans(values, k=2, s=2.0, seed=0, restarts=2)
        assert len(result.objective_history) == 2
        assert result.weights is weights[2]

    def test_deterministic(self, small_fixture):
        X, _ = small_fixture
        a = sparse_kmeans(minmax_scale(X).values, k=2, s=2.5, seed=5, restarts=3)
        b = sparse_kmeans(minmax_scale(X).values, k=2, s=2.5, seed=5, restarts=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.objective_history == b.objective_history


class TestSpecScores:
    def test_constant_features_score_inf_and_rank_last(self, rng):
        # a non-zero constant's degree-normalized vector is the Laplacian's
        # null vector, where the quadratic form is 0, the best score
        values = rng.standard_normal((15, 5))
        values[:, 1] = 2.5
        values[:, 3] = -1.5
        values[:, 4] = 0.0
        result = spec_scores(values)
        assert np.isinf(result.scores[[1, 3, 4]]).all()
        assert np.isfinite(result.scores[[0, 2]]).all()
        assert result.ranking == (*sorted([0, 2], key=lambda j: result.scores[j]), 1, 3, 4)

    def test_scores_within_laplacian_spectrum(self, rng):
        values = rng.standard_normal((20, 8))
        result = spec_scores(values)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores[np.isfinite(result.scores)] <= 2.0 + 1e-10)

    def test_matches_quadratic_form_oracle(self, rng):
        values = rng.standard_normal((20, 5))
        result = spec_scores(values)
        oracle = spec_score_oracle(values, median_bandwidth(values))
        np.testing.assert_allclose(result.scores, oracle, rtol=0, atol=1e-10)

    def test_scale_invariance_on_fixed_graph(self, rng):
        values = rng.standard_normal((18, 4))
        similarity = gaussian_kernel(values, median_bandwidth(values)).entries
        base = graph_consistency_scores(values, similarity)
        scaled = values.copy()
        scaled[:, 2] *= 37.0
        rescored = graph_consistency_scores(scaled, similarity)
        assert rescored[2] == pytest.approx(base[2], abs=1e-10)

    def test_zero_feature_ranked_last(self, rng):
        values = rng.standard_normal((12, 4))
        values[:, 0] = 0.0
        result = spec_scores(values)
        assert np.isinf(result.scores[0])
        assert result.ranking[-1] == 0


def with_twin_columns(seed, n, d):
    """An n x d draw whose last column repeats its first, so that every
    column-wise score of the two is the same float."""
    values = np.random.default_rng(seed).uniform(size=(n, d))
    values[:, -1] = values[:, 0]
    return values


class TestRanking:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 14),
        d=st.integers(3, 9),
        budget=st.floats(0.05, 1.0),
    )
    def test_skm_ranking_is_the_stable_order_of_largest_weights(self, seed, n, d, budget):
        # a small budget s soft-thresholds weights to exactly 0, and the twin
        # columns tie, so the draws hold tied weights
        s = 1.0 + budget * (np.sqrt(d) - 1.0)
        result = sparse_kmeans(with_twin_columns(seed, n, d), k=2, s=s, seed=seed, restarts=2)
        assert result.weights[0] == result.weights[-1]
        assert result.ranking == tuple(int(j) for j in np.argsort(-result.weights, kind="stable"))
        assert all(type(j) is int for j in result.ranking)

    def test_spec_ranking_is_the_stable_order_of_smallest_scores(self):
        values = with_twin_columns(0, 12, 6)
        values[:, [1, 3]] = 0.0  # two all-zero features, both scored +inf
        result = spec_scores(values)
        assert result.scores[0] == result.scores[-1]
        assert result.ranking == tuple(int(j) for j in np.argsort(result.scores, kind="stable"))
        assert result.ranking[-2:] == (1, 3)
