import dataclasses
import hashlib
import json
import warnings
import weakref

import numpy as np
import pytest

from lkfs.autoencoder import AeHyperparams
from lkfs.clustering import adjusted_rand_index, rand_index
from lkfs.dataio import LabelVector, PreprocessConfig, generate_synthetic, subsample
from lkfs.errors import ConfigError, DataValidationError
from lkfs.evaluation import pca_2d
from lkfs.pipeline import RunConfig, derive_seed, emit_outputs, run_experiment, run_lkfs_once
from lkfs.pipeline import preprocess_matrix

FAST_AE = AeHyperparams(epochs=15, batch_size=32)


def fast_config(**overrides):
    base = dict(
        preprocess=PreprocessConfig(repetitions=2),
        ae_hidden=(8,),
        ae_latent=2,
        ae=FAST_AE,
        methods=("lkfs", "spec"),
        p_grid=(4, 6),
        k_grid=(2, 3),
        kmeans_restarts=3,
        seed=11,
        dataset_id="fixture",
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def fixture_data():
    return generate_synthetic(n=80, d=24, informative=5, separation=4.0, seed=21)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_distinct_paths_distinct_seeds(self):
        seeds = {derive_seed(5, r, t) for r in range(10) for t in range(4)}
        assert len(seeds) == 40


class TestRunLkfsOnce:
    def test_contract(self, fixture_data):
        X, _ = fixture_data
        Xp = preprocess_matrix(X, PreprocessConfig())
        config = fast_config()
        solution, latent = run_lkfs_once(Xp, config, seed=3, p=5)
        assert len(solution.selected) <= 5
        assert np.all(np.diff(solution.alignment_trajectory) > 0)
        assert latent.z_values.shape == (Xp.n, config.ae_latent)

    def test_deterministic(self, fixture_data):
        X, _ = fixture_data
        Xp = preprocess_matrix(X, PreprocessConfig())
        config = fast_config()
        s1, l1 = run_lkfs_once(Xp, config, seed=3, p=5)
        s2, l2 = run_lkfs_once(Xp, config, seed=3, p=5)
        assert s1.selected == s2.selected
        np.testing.assert_array_equal(s1.mu, s2.mu)
        np.testing.assert_array_equal(l1.z_values, l2.z_values)


@pytest.fixture(scope="module")
def result(fixture_data):
    X, labels = fixture_data
    return run_experiment(fast_config(), X=X, labels=labels)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory, fixture_data):
    X, labels = fixture_data
    config = fast_config(methods=("spec",), p_grid=(4,), k_grid=(2,))
    result = run_experiment(config, X=X, labels=labels)
    out = tmp_path_factory.mktemp("artifacts")
    written = emit_outputs(result, out)
    return result, out, written


class TestRunExperiment:
    def test_grid_bookkeeping(self, result):
        for method in ("lkfs", "spec"):
            report = result.reports[method]
            assert len(report.records) == 2 * 2  # reps x p values
            assert all(len(rec.clusterings) == 2 for rec in report.records)
            assert len(report.aggregates) == 2 * 2  # p x k cells
            assert all(cell.n_repetitions == 2 for cell in report.aggregates)

    def test_cells_cover_full_grid(self, result):
        report = result.reports["lkfs"]
        assert {(c.p, c.k) for c in report.aggregates} == {(4, 2), (4, 3), (6, 2), (6, 3)}

    def test_rand_metrics_present_with_labels(self, result):
        for cell in result.reports["lkfs"].aggregates:
            assert cell.rand_index_mean is not None
            assert -1.0 <= cell.adjusted_rand_index_mean <= 1.0

    def test_aggregate_means_bounded_by_records(self, result):
        report = result.reports["spec"]
        for cell in report.aggregates:
            reds = [rec.red for rec in report.records if rec.p == cell.p]
            assert min(reds) <= cell.red_mean <= max(reds)

    def test_labels_absent_warns_and_nulls_rand(self, fixture_data):
        X, _ = fixture_data
        config = fast_config(methods=("spec",), p_grid=(4,), k_grid=(2,))
        with pytest.warns(RuntimeWarning, match="labels"):
            result = run_experiment(config, X=X, labels=None)
        cell = result.reports["spec"].aggregates[0]
        assert cell.rand_index_mean is None
        assert cell.red_mean > 0

    def test_partial_label_coverage_uses_intersection(self, fixture_data):
        from lkfs.dataio import LabelVector

        X, labels = fixture_data
        partial = LabelVector(dict(list(labels.labels.items())[: X.n - 10]))
        config = fast_config(methods=("spec",), p_grid=(4,), k_grid=(2,))
        result = run_experiment(config, X=X, labels=partial)
        cell = result.reports["spec"].aggregates[0]
        assert cell.rand_index_mean is not None
        assert 0.0 <= cell.rand_index_mean <= 1.0
        # each record scores the clusters of its labelled samples alone
        for rec in result.reports["spec"].records:
            [cm] = rec.clusterings
            pairs = [(c, partial.labels[s]) for s, c in zip(rec.sample_ids, cm.cluster_labels)
                     if s in partial.labels]
            assert len(pairs) < len(rec.sample_ids)
            assert cm.rand_index == rand_index(*zip(*pairs))
            assert cm.adjusted_rand_index == adjusted_rand_index(*zip(*pairs))

    def test_earlier_repetitions_stable_when_reps_grow(self, fixture_data):
        X, labels = fixture_data
        config2 = fast_config(methods=("spec",), preprocess=PreprocessConfig(repetitions=2))
        config3 = fast_config(methods=("spec",), preprocess=PreprocessConfig(repetitions=3))
        r2 = run_experiment(config2, X=X, labels=labels)
        r3 = run_experiment(config3, X=X, labels=labels)
        for rec2 in r2.reports["spec"].records:
            rec3 = next(
                r
                for r in r3.reports["spec"].records
                if r.repetition == rec2.repetition and r.p == rec2.p
            )
            assert rec3 == rec2

    def test_p_beyond_post_filter_width_rejected(self, fixture_data):
        X, labels = fixture_data
        with pytest.raises(ConfigError, match="post-filter"):
            run_experiment(fast_config(p_grid=(20,)), X=X, labels=labels)


class TestOncePerRepetition:
    def test_lkfs_selections_are_prefixes_of_max_p(self, fixture_data):
        X, labels = fixture_data
        config = fast_config(methods=("lkfs",), p_grid=(2, 4, 6), k_grid=(2,))
        report = run_experiment(config, X=X, labels=labels).reports["lkfs"]
        for rep in range(config.preprocess.repetitions):
            by_p = {r.p: r.selected_features for r in report.records if r.repetition == rep}
            for p, names in by_p.items():
                assert names == by_p[6][:p]
        # an independent greedy run at a smaller p stops on the same prefix
        Xp = preprocess_matrix(X, PreprocessConfig())
        largest, _ = run_lkfs_once(Xp, config, seed=5)
        for p in (2, 4):
            smaller, _ = run_lkfs_once(Xp, config, seed=5, p=p)
            assert smaller.selected == largest.selected[:p]

    def test_p_independent_work_runs_once(self, fixture_data, monkeypatch):
        from lkfs import baselines, mkl

        calls = {"greedy": 0, "spec": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(mkl, "greedy_select", counting("greedy", mkl.greedy_select))
        monkeypatch.setattr(baselines, "spec_scores", counting("spec", baselines.spec_scores))
        X, labels = fixture_data
        config = fast_config(p_grid=(2, 4, 6), k_grid=(2,))
        run_experiment(config, X=X, labels=labels)
        assert calls == {"greedy": 2, "spec": 2}  # one each per repetition


class TestRepetitionMemory:
    def test_unscaled_resample_is_freed_before_training(self, fixture_data, monkeypatch):
        from lkfs import dataio, pipeline

        resamples, alive_at_training = [], []
        draw, train = dataio.subsample, pipeline.train

        def drawing(*args, **kwargs):
            resample = draw(*args, **kwargs)
            resamples.append(weakref.ref(resample))
            return resample

        def training(*args):
            alive_at_training.append(resamples[-1]() is not None)
            return train(*args)

        monkeypatch.setattr(dataio, "subsample", drawing)
        monkeypatch.setattr(pipeline, "train", training)
        X, labels = fixture_data
        run_experiment(fast_config(methods=("lkfs",)), X=X, labels=labels)
        assert alive_at_training == [False, False]


    def test_loaded_matrix_is_freed_before_the_last_repetition(self, fixture_data, tmp_path,
                                                                  monkeypatch):
        from lkfs import dataio, pipeline

        loaded, alive_at_training = [], []
        load, train = dataio.load_matrix, pipeline.train

        def loading(*args, **kwargs):
            matrix = load(*args, **kwargs)
            loaded.append(weakref.ref(matrix))
            return matrix

        def training(*args):
            alive_at_training.append(loaded[0]() is not None)
            return train(*args)

        monkeypatch.setattr(dataio, "load_matrix", loading)
        monkeypatch.setattr(pipeline, "train", training)
        X, labels = fixture_data
        dataio.save_matrix(X, tmp_path / "matrix.tsv")
        config = fast_config(methods=("lkfs",), input=str(tmp_path / "matrix.tsv"))
        run_experiment(config, labels=labels)
        assert alive_at_training == [True, False]


class TestSelectionMemoryCheck:
    @pytest.mark.parametrize(
        "n, d, p, source, nbytes",
        [
            (640, 10_000, 50, "stack", 4 * 10_000 * 640 * 639),  # 15.2 GiB
            (160, 500, 10, "gram", 20 * 500 * 500),
            (40, 100, 10, "gram", 20 * 100 * 100),
            (10, 100, 10, "stack", 4 * 100 * 10 * 9),
        ],
    )
    def test_refuses_a_source_larger_than_physical_memory(self, monkeypatch, n, d, p, source,
                                                          nbytes):
        from lkfs import pipeline

        monkeypatch.setattr(pipeline, "_physical_memory", lambda: nbytes)
        pipeline._check_selection_fits(n, d, p)
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: nbytes - 1)
        message = (
            f"lkfs selection over {n} samples x {d} features at p={p} needs the {source} "
            f"source of {nbytes} bytes, more than the {nbytes - 1} bytes of physical memory"
        )
        with pytest.raises(DataValidationError, match=f"^{message}$"):
            pipeline._check_selection_fits(n, d, p)
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: None)
        pipeline._check_selection_fits(n, d, p)  # unknown memory: no refusal

    def test_run_is_refused_before_training(self, fixture_data, monkeypatch):
        from lkfs import pipeline

        monkeypatch.setattr(pipeline, "_physical_memory", lambda: 1024)
        monkeypatch.setattr(pipeline, "train", lambda *args: pytest.fail("trained"))
        X, labels = fixture_data
        # 64 of 80 samples, 12 of 24 features after the filter, p = 6
        with pytest.raises(DataValidationError, match="^lkfs selection over 64 samples x 12 "):
            run_experiment(fast_config(), X=X, labels=labels)
        run_experiment(fast_config(methods=("spec",)), X=X, labels=labels)


class TestEmitOutputs:
    def test_expected_file_set(self, emitted):
        _, out, _ = emitted
        names = {p.name for p in out.iterdir()}
        assert "report_spec.json" in names
        assert "selected_spec_p4_rep0.txt" in names
        assert "clusters_spec_p4_k2_rep1.txt" in names
        assert "proj_spec_p4_rep0.txt" in names
        assert "index.json" in names

    def test_index_checksums_match(self, emitted):
        _, out, _ = emitted
        index = json.loads((out / "index.json").read_text())
        assert index["files"]
        for entry in index["files"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert len(data) == entry["bytes"]

    def test_refuses_nonempty_dir_without_force(self, emitted, fixture_data):
        result, out, _ = emitted
        with pytest.raises(DataValidationError, match="force"):
            emit_outputs(result, out)
        emit_outputs(result, out, force=True)  # succeeds

    def test_report_round_trips_as_json(self, emitted):
        _, out, _ = emitted
        doc = json.loads((out / "report_spec.json").read_text())
        assert doc["method"] == "spec"
        assert len(doc["repetitions"]) == 2
        assert doc["repetitions"][0]["clusterings"][0]["k"] == 2

    @pytest.mark.parametrize("coverage", ["full", "partial", "none", "disjoint"])
    def test_projection_rows(self, fixture_data, tmp_path, coverage):
        """Each proj file row is: sample id, the two PCA coordinates of the
        selected columns, the sample's label (only when the labels cover some
        sample of the resample; "" for an unlabelled one) and its cluster at
        the first k, in the resample's row order."""
        X, labels = fixture_data
        given = {
            "full": labels,
            "partial": LabelVector(dict(list(labels.labels.items())[::2])),
            "none": None,
            "disjoint": LabelVector({"elsewhere0": "a", "elsewhere1": "b"}),
        }[coverage]
        config = fast_config(methods=("spec",), p_grid=(4,), k_grid=(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_experiment(config, X=X, labels=given)
        emit_outputs(result, tmp_path)
        truth_cells = []
        for rec in result.reports["spec"].records:
            seed = derive_seed(config.seed, rec.repetition, 0)
            Xp = preprocess_matrix(
                subsample(X, config.preprocess.subsample_fraction, seed), config.preprocess
            )
            columns = [Xp.feature_names.index(f) for f in rec.selected_features]
            coords = [[repr(float(x)), repr(float(y))] for x, y in pca_2d(Xp.values[:, columns])]
            text = (tmp_path / f"proj_spec_p4_rep{rec.repetition}.txt").read_text()
            rows = [line.split("\t") for line in text.splitlines()]
            assert [row[0] for row in rows] == list(Xp.sample_ids)
            assert [row[1:3] for row in rows] == coords
            first_k = rec.clusterings[0]
            assert first_k.k == 3
            assert [row[-1] for row in rows] == [str(c) for c in first_k.cluster_labels]
            assert {len(row) for row in rows} == {5 if coverage in ("full", "partial") else 4}
            if len(rows[0]) == 5:
                assert [row[3] for row in rows] == [given.labels.get(s, "") for s in Xp.sample_ids]
                truth_cells += [row[3] for row in rows]
        if coverage == "full":
            assert "" not in truth_cells and set(truth_cells) == set(labels.labels.values())
        if coverage == "partial":
            assert "" in truth_cells and set(truth_cells) - {""} == set(labels.labels.values())


class TestRunConfig:
    def test_from_dict_round_trip(self):
        config = fast_config()
        rebuilt = RunConfig.from_dict(dataclasses.asdict(config))
        assert rebuilt == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"bogus": 1})

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(k_grid=(1,))
        with pytest.raises(ConfigError):
            RunConfig(methods=("mystery",))
