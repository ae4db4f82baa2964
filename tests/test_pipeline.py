import dataclasses
import hashlib
import json

import numpy as np
import pytest

from lkfs.autoencoder import AeHyperparams
from lkfs.dataio import PreprocessConfig, generate_synthetic
from lkfs.errors import ConfigError, DataValidationError
from lkfs.pipeline import RunConfig, derive_seed, emit_outputs, run_experiment, run_lkfs_once
from lkfs.pipeline import preprocess_matrix

FAST_AE = AeHyperparams(epochs=15, batch_size=32)


def fast_config(**overrides):
    base = dict(
        preprocess=PreprocessConfig(repetitions=2, seed=0),
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

    def test_earlier_repetitions_stable_when_reps_grow(self, fixture_data):
        X, labels = fixture_data
        config2 = fast_config(methods=("spec",), preprocess=PreprocessConfig(repetitions=2, seed=0))
        config3 = fast_config(methods=("spec",), preprocess=PreprocessConfig(repetitions=3, seed=0))
        r2 = run_experiment(config2, X=X, labels=labels)
        r3 = run_experiment(config3, X=X, labels=labels)
        for rec2 in r2.reports["spec"].records:
            rec3 = next(
                r
                for r in r3.reports["spec"].records
                if r.repetition == rec2.repetition and r.p == rec2.p
            )
            assert rec3 == rec2

    def test_threads_do_not_change_results(self, fixture_data):
        X, labels = fixture_data
        config = fast_config(methods=("spec",))
        serial = run_experiment(config, X=X, labels=labels)
        threaded = run_experiment(fast_config(methods=("spec",), threads=2), X=X, labels=labels)
        assert serial.reports["spec"] == threaded.reports["spec"]

    def test_p_beyond_post_filter_width_rejected(self, fixture_data):
        X, labels = fixture_data
        with pytest.raises(ConfigError, match="post-filter"):
            run_experiment(fast_config(p_grid=(20,)), X=X, labels=labels)


class TestOncePerRepetition:
    @pytest.mark.parametrize("subsample", [None, 3])
    def test_lkfs_selections_are_prefixes_of_max_p(self, fixture_data, subsample):
        X, labels = fixture_data
        config = fast_config(
            methods=("lkfs",), p_grid=(2, 4, 6), k_grid=(2,), mkl_candidate_subsample=subsample
        )
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
