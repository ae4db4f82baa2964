import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lkfs.dataio import ExpressionMatrix
from lkfs.errors import ConfigError, DataValidationError
from lkfs.evaluation import (
    ClusteringMetrics,
    RepetitionRecord,
    aggregate,
    pca_2d,
    red_score,
)


def pearson_oracle(x, y):
    """Textbook Pearson correlation, no library shortcuts."""
    xm = x - sum(x) / len(x)
    ym = y - sum(y) / len(y)
    return float(np.dot(xm, ym) / np.sqrt(np.dot(xm, xm) * np.dot(ym, ym)))


def red_oracle(values, selected):
    """O(p^2 n) oracle over ordered pairs."""
    total = 0.0
    for i in selected:
        for j in selected:
            if i != j:
                total += abs(pearson_oracle(values[:, i], values[:, j]))
    p = len(selected)
    return total / (p * (p - 1))


class TestRedScore:
    def test_identical_features(self):
        values = np.column_stack([np.arange(5.0), np.arange(5.0)])
        assert red_score(values, [0, 1]) == pytest.approx(1.0)

    def test_anticorrelated_features(self):
        values = np.column_stack([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert red_score(values, [0, 1]) == pytest.approx(1.0)

    def test_three_feature_hand_case(self):
        values = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]])
        expected = red_oracle(values, [0, 1, 2])
        assert expected == pytest.approx(1 / 3)
        assert red_score(values, [0, 1, 2]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((30, 8))
        selected = [0, 2, 3, 7]
        assert red_score(values, selected) == pytest.approx(
            red_oracle(values, selected), abs=1e-12
        )

    def test_reorder_invariance(self, rng):
        values = rng.standard_normal((20, 6))
        assert red_score(values, [1, 3, 5]) == red_score(values, [5, 1, 3])

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            (12, 3),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_affine_invariance(self, values, slope, shift):
        assume((values.std(axis=0) > 1e-6).all())
        base = red_score(values, [0, 1, 2])
        rescaled = values.copy()
        rescaled[:, 1] = slope * rescaled[:, 1] + shift
        assume((rescaled.std(axis=0) > 1e-6).all())
        assert red_score(rescaled, [0, 1, 2]) == pytest.approx(base, abs=1e-9)

    def test_constant_feature_named_in_error(self):
        X = ExpressionMatrix(
            np.column_stack([np.arange(4.0), np.full(4, 2.0)]),
            tuple(f"s{i}" for i in range(4)),
            ("good", "flat"),
        )
        with pytest.raises(DataValidationError, match="flat"):
            red_score(X, [0, 1])

    def test_needs_two_features(self, rng):
        with pytest.raises(ConfigError):
            red_score(rng.standard_normal((5, 3)), [1])


class TestPca2d:
    def test_recovers_planar_data(self, rng):
        coords_true = rng.standard_normal((20, 2)) * [4.0, 1.5]
        basis, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        values = coords_true @ basis.T
        coords = pca_2d(values)
        recon_err = np.linalg.norm(
            (coords @ np.linalg.lstsq(coords, values - values.mean(0), rcond=None)[0])
            - (values - values.mean(0))
        )
        assert recon_err < 1e-8

    def test_component_variance_ordering(self, rng):
        coords = pca_2d(rng.standard_normal((30, 6)))
        assert coords[:, 0].var() >= coords[:, 1].var()

    def test_matches_eigendecomposition_oracle(self, rng):
        values = rng.standard_normal((10, 4))
        centered = values - values.mean(axis=0)
        cov = centered.T @ centered
        eigvals, eigvecs = np.linalg.eigh(cov)
        oracle = np.empty((10, 2))
        for rank, idx in enumerate(np.argsort(eigvals)[::-1][:2]):
            v = eigvecs[:, idx]
            if v[np.abs(v).argmax()] < 0:
                v = -v
            oracle[:, rank] = centered @ v
        np.testing.assert_allclose(pca_2d(values), oracle, rtol=0, atol=1e-8)

    def test_rank_deficient_warns_and_zeroes(self):
        values = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])  # rank 1
        with pytest.warns(RuntimeWarning, match="rank"):
            coords = pca_2d(values)
        np.testing.assert_array_equal(coords[:, 1], 0.0)

    def test_deterministic(self, rng):
        values = rng.standard_normal((15, 5))
        np.testing.assert_array_equal(pca_2d(values), pca_2d(values))


def record(rep, p, red, ks=(2, 3), rand=0.5):
    metrics = tuple(
        ClusteringMetrics(k=k, inertia=1.0 + k, rand_index=rand, adjusted_rand_index=rand / 2)
        for k in ks
    )
    return RepetitionRecord(
        repetition=rep,
        seed=rep * 11,
        p=p,
        selected_features=("a", "b"),
        red=red,
        clusterings=metrics,
    )


class TestAggregate:
    def test_single_record(self):
        report = aggregate([record(0, 5, red=0.4)], method="lkfs", dataset_id="x")
        cell = report.aggregates[0]
        assert cell.red_mean == 0.4 and cell.red_sd == 0.0
        assert cell.n_repetitions == 1

    def test_two_value_mean(self):
        report = aggregate(
            [record(0, 5, red=0.2), record(1, 5, red=0.4)], method="lkfs", dataset_id="x"
        )
        assert report.aggregates[0].red_mean == pytest.approx(0.3)

    def test_two_repetitions_match_a_hand_computed_oracle(self):
        # of two values a and b, the mean is (a + b) / 2 and the sample sd is
        # |a - b| / sqrt(2); the population sd would be |a - b| / 2
        def rec(rep, red, inertia, rand, ari):
            metrics = ClusteringMetrics(k=2, inertia=inertia, rand_index=rand,
                                        adjusted_rand_index=ari)
            return RepetitionRecord(repetition=rep, seed=rep, p=5, selected_features=("a", "b"),
                                    red=red, clusterings=(metrics,))

        records = [rec(0, red=0.25, inertia=3.0, rand=0.5, ari=0.0),
                   rec(1, red=0.75, inertia=7.0, rand=1.0, ari=1.0)]
        cell = aggregate(records, "lkfs", "x").aggregates[0]
        assert cell.n_repetitions == 2
        assert (cell.red_mean, cell.red_sd) == pytest.approx((0.5, 0.35355339059327373))
        assert (cell.inertia_mean, cell.inertia_sd) == pytest.approx((5.0, 2.82842712474619))
        assert (cell.rand_index_mean, cell.rand_index_sd) == pytest.approx(
            (0.75, 0.35355339059327373))
        assert (cell.adjusted_rand_index_mean, cell.adjusted_rand_index_sd) == pytest.approx(
            (0.5, 0.7071067811865475))

    def test_permutation_invariant(self):
        records = [record(r, p, red=0.1 * r + 0.01 * p) for r in range(3) for p in (5, 10)]
        a = aggregate(records, "lkfs", "x")
        b = aggregate(records[::-1], "lkfs", "x")
        assert a == b

    def test_mean_within_min_max(self):
        records = [record(r, 5, red=0.1 * (r + 1)) for r in range(4)]
        report = aggregate(records, "lkfs", "x")
        reds = [rec.red for rec in records]
        for cell in report.aggregates:
            assert min(reds) <= cell.red_mean <= max(reds)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(DataValidationError):
            aggregate([record(0, 5, 0.1), record(0, 5, 0.2)], "lkfs", "x")

    def test_inconsistent_k_sets_rejected(self):
        bad = record(1, 5, 0.1, ks=(2,))
        with pytest.raises(DataValidationError):
            aggregate([record(0, 5, 0.1), bad], "lkfs", "x")

    def test_null_rand_propagates(self):
        metrics = (ClusteringMetrics(k=2, inertia=1.0, rand_index=None, adjusted_rand_index=None),)
        rec = RepetitionRecord(0, 0, 5, ("a", "b"), 0.3, metrics)
        report = aggregate([rec], "spec", "x")
        assert report.aggregates[0].rand_index_mean is None

    def test_json_tree_shape(self):
        # the per-sample fields are set, and the report leaves them out
        rec = record(0, 5, 0.4)
        rec = dataclasses.replace(
            rec,
            clusterings=tuple(dataclasses.replace(c, cluster_labels=(0, 1)) for c in rec.clusterings),
            sample_ids=("s0", "s1"),
            projection=np.zeros((2, 2)),
        )
        doc = aggregate([rec], method="lkfs", dataset_id="x").to_json_dict()
        assert json.loads(json.dumps(doc))["repetitions"][0]["selected_features"] == ["a", "b"]
        assert set(doc) == {"method", "dataset_id", "repetitions", "aggregates"}
        rep = doc["repetitions"][0]
        assert set(rep) == {"repetition", "seed", "p", "selected_features", "red", "clusterings"}
        assert set(rep["clusterings"][0]) == {"k", "inertia", "rand_index", "adjusted_rand_index"}
