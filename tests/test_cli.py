import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lkfs import dataio, pipeline
from lkfs.cli import main
from lkfs.dataio import ExpressionMatrix, load_matrix, save_matrix, subsample
from lkfs.pipeline import RunConfig, derive_seed, preprocess_matrix


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth",
            "--n", "80",
            "--d", "24",
            "--informative", "5",
            "--separation", "4.0",
            "--seed", "21",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--n", "40", "--d", "12", "--seed", "5", "--out", str(out)]) == 0
    return out


def run_args(fixture_dir, out_dir, extra=()):
    return [
        "run",
        "--input", str(fixture_dir / "matrix.tsv"),
        "--labels", str(fixture_dir / "labels.tsv"),
        "--methods", "spec",
        "--p", "4",
        "--k", "2",
        "--reps", "2",
        "--seed", "3",
        "--out", str(out_dir),
        *extra,
    ]


class TestSynthAndPreprocess:
    def test_synth_files(self, fixture_dir):
        X = load_matrix(fixture_dir / "matrix.tsv")
        assert X.n == 80 and X.d == 24
        assert (fixture_dir / "labels.tsv").is_file()

    def test_preprocess(self, fixture_dir, tmp_path):
        out = tmp_path / "pre.tsv"
        code = main(
            [
                "preprocess",
                "--input", str(fixture_dir / "matrix.tsv"),
                "--keep-fraction", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        X = load_matrix(out)
        assert X.d == 12
        assert X.values.min() >= 0.0 and X.values.max() <= 1.0


class TestSelectClusterEvaluate:
    def test_spec_select_then_evaluate(self, fixture_dir, tmp_path):
        pre = tmp_path / "pre.tsv"
        main(["preprocess", "--input", str(fixture_dir / "matrix.tsv"), "--out", str(pre)])
        solution = tmp_path / "solution.json"
        code = main(
            ["select", "--input", str(pre), "--method", "spec", "--p", "4",
             "--seed", "0", "--out", str(solution)]
        )
        assert code == 0
        doc = json.loads(solution.read_text())
        assert doc["method"] == "spec" and len(doc["selected"]) == 4

        metrics = tmp_path / "metrics.json"
        code = main(
            ["evaluate", "--input", str(pre), "--labels", str(fixture_dir / "labels.tsv"),
             "--selection", str(solution), "--k", "2", "--out", str(metrics)]
        )
        assert code == 0
        result = json.loads(metrics.read_text())
        assert 0.0 <= result["red"] <= 1.0
        assert result["clusterings"][0]["rand_index"] is not None

    def test_evaluate_with_one_labelled_sample_gives_null_rand(self, fixture_dir, tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text("sample_id\tlabel\ns0000\tclass0\n")
        selection = tmp_path / "selection.txt"
        selection.write_text("f0000\nf0001\n")
        metrics = tmp_path / "metrics.json"
        code = main(
            ["evaluate", "--input", str(fixture_dir / "matrix.tsv"), "--labels", str(labels),
             "--selection", str(selection), "--k", "2", "--out", str(metrics)]
        )
        assert code == 0
        entry = json.loads(metrics.read_text())["clusterings"][0]
        assert entry["rand_index"] is None and entry["adjusted_rand_index"] is None

    def test_spec_never_selects_a_constant_column(self, tmp_path):
        assert main(["synth", "--n", "40", "--d", "15", "--seed", "5", "--out", str(tmp_path)]) == 0
        X = load_matrix(tmp_path / "matrix.tsv")
        values = np.column_stack([X.values, np.full(X.n, 3.0), np.full(X.n, -1.5)])
        matrix = tmp_path / "with_constants.tsv"
        save_matrix(ExpressionMatrix(values, X.sample_ids, (*X.feature_names, "c0", "c1")), matrix)
        solution, metrics = tmp_path / "solution.json", tmp_path / "metrics.json"
        code = main(["select", "--input", str(matrix), "--method", "spec", "--p", "6",
                     "--out", str(solution)])
        assert code == 0
        selected = json.loads(solution.read_text())["selected"]
        assert len(selected) == 6 and not {"c0", "c1"} & set(selected)
        code = main(["evaluate", "--input", str(matrix), "--selection", str(solution),
                     "--k", "2", "--out", str(metrics)])
        assert code == 0

    def test_select_takes_the_config_seed_unless_flagged(self, fixture_dir, tmp_path):
        ae = {"ae_hidden": [4], "ae_latent": 2, "ae": {"epochs": 5, "batch_size": 16}}

        def select(name, doc, *flags):
            config, out = tmp_path / f"{name}.json", tmp_path / f"{name}_solution.json"
            config.write_text(json.dumps(doc))
            code = main(
                ["select", "--config", str(config), "--input", str(fixture_dir / "matrix.tsv"),
                 "--method", "lkfs", "--p", "4", "--out", str(out), *flags]
            )
            assert code == 0
            return out.read_bytes()

        seven = select("file-seed", {**ae, "seed": 7})
        assert seven == select("flag-seed", ae, "--seed", "7")
        assert seven == select("flag-wins", {**ae, "seed": 0}, "--seed", "7")
        assert seven != select("default-seed", ae)

    def test_select_takes_the_config_orientation_unless_flagged(self, tmp_path):
        assert main(["synth", "--n", "40", "--d", "12", "--out", str(tmp_path)]) == 0
        X = load_matrix(tmp_path / "matrix.tsv")
        features_as_rows = tmp_path / "features_as_rows.tsv"
        save_matrix(ExpressionMatrix(X.values.T, X.feature_names, X.sample_ids), features_as_rows)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"orientation": "cols"}))

        def select(name, *flags):
            out = tmp_path / f"{name}.json"
            code = main(
                ["select", "--input", str(features_as_rows), "--method", "spec", "--p", "3",
                 "--out", str(out), *flags]
            )
            assert code == 0
            return json.loads(out.read_text())["selected"]

        from_file = select("file", "--config", str(config))
        assert from_file == select("flag", "--orientation", "cols")
        assert all(name.startswith("f") for name in from_file)
        assert select("flag-wins", "--config", str(config), "--orientation", "rows")[0][0] == "s"

    def test_cluster_assignment_dump(self, fixture_dir, tmp_path):
        out = tmp_path / "clusters.tsv"
        code = main(
            ["cluster", "--input", str(fixture_dir / "matrix.tsv"), "--k", "2",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 80
        assert all(line.split("\t")[1] in {"0", "1"} for line in lines)


STEP_SEED = 7
STEP_CONFIG = {
    "preprocess": {"repetitions": 2},
    "ae_hidden": [8],
    "ae_latent": 2,
    "ae": {"epochs": 15, "batch_size": 32},
    "methods": ["lkfs", "skm", "spec"],
    "p_grid": [3, 5],
    "k_grid": [2, 3],
    "kmeans_restarts": 3,
}


@pytest.fixture(scope="module")
def stepwise(fixture_dir, tmp_path_factory):
    """A `run` on the fixture, and repetition 0's preprocessed resample saved."""
    work = tmp_path_factory.mktemp("stepwise")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(STEP_CONFIG))
    code = main(
        ["run", "--config", str(config_path), "--input", str(fixture_dir / "matrix.tsv"),
         "--labels", str(fixture_dir / "labels.tsv"), "--seed", str(STEP_SEED),
         "--out", str(work / "run")]
    )
    assert code == 0
    config = RunConfig.from_dict(STEP_CONFIG)
    X = load_matrix(fixture_dir / "matrix.tsv")
    resample = subsample(X, config.preprocess.subsample_fraction, derive_seed(STEP_SEED, 0, 0))
    save_matrix(preprocess_matrix(resample, config.preprocess), work / "rep0.tsv")
    return work


def solution_fields(method, matrix, p):
    """The `select` document built field by field from the result that
    `select_features` gives for repetition 0 of the stepwise run."""
    X = load_matrix(matrix)
    config = RunConfig.from_dict({**STEP_CONFIG, "p_grid": [p], "seed": STEP_SEED})
    [(_, selected, result)] = pipeline.select_features(method, X, config, rep=0)
    names = [X.feature_names[j] for j in selected]
    if method == "lkfs":
        values, trajectory = result.mu, list(result.alignment_trajectory)
        target, stop_reason = result.target_alignment, result.stop_reason
    elif method == "skm":
        values, trajectory = result.weights, list(result.objective_history)
        target, stop_reason = None, "reached_p"
    else:
        values, trajectory, target, stop_reason = result.scores, [], None, "reached_p"
    return {
        "method": method,
        "selected": names,
        "mu": {name: float(values[j]) for name, j in zip(names, selected)},
        "trajectory": trajectory,
        "target_alignment": target,
        "stop_reason": stop_reason,
    }


class TestStepsReproduceRun:
    @pytest.mark.parametrize("method", ["lkfs", "skm", "spec"])
    def test_select_then_evaluate_equals_repetition_0(self, fixture_dir, stepwise, method):
        p = 3
        report = json.loads((stepwise / "run" / f"report_{method}.json").read_text())
        record = next(r for r in report["repetitions"] if r["repetition"] == 0 and r["p"] == p)
        assert len(record["selected_features"]) == p

        solution = stepwise / f"{method}.json"
        code = main(
            ["select", "--config", str(stepwise / "config.json"),
             "--input", str(stepwise / "rep0.tsv"), "--method", method, "--p", str(p),
             "--seed", str(STEP_SEED), "--out", str(solution)]
        )
        assert code == 0
        doc = json.loads(solution.read_text())
        assert doc["selected"] == record["selected_features"]
        assert doc == solution_fields(method, stepwise / "rep0.tsv", p)
        assert (doc["target_alignment"] is None) == (method != "lkfs")
        assert bool(doc["trajectory"]) == (method != "spec")

        metrics = stepwise / f"{method}_metrics.json"
        code = main(
            ["evaluate", "--input", str(stepwise / "rep0.tsv"),
             "--labels", str(fixture_dir / "labels.tsv"), "--selection", str(solution),
             "--k", "2,3", "--restarts", "3", "--seed", str(STEP_SEED), "--out", str(metrics)]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert doc["red"] == record["red"]
        assert doc["clusterings"] == record["clusterings"]


class TestRun:
    def test_full_run_writes_report(self, fixture_dir, tmp_path):
        out = tmp_path / "exp"
        assert main(run_args(fixture_dir, out)) == 0
        report = json.loads((out / "report_spec.json").read_text())
        assert len(report["repetitions"]) == 2
        assert (out / "index.json").is_file()

    def test_rerun_needs_force(self, fixture_dir, tmp_path):
        out = tmp_path / "exp"
        assert main(run_args(fixture_dir, out)) == 0
        assert main(run_args(fixture_dir, out)) == 2
        assert main(run_args(fixture_dir, out, extra=["--force"])) == 0

    def test_force_leaves_files_it_does_not_write_and_indexes_only_its_own(self, fixture_dir,
                                                                           tmp_path):
        out = tmp_path / "exp"
        assert main(run_args(fixture_dir, out)) == 0
        second_rep = sorted(f.name for f in out.iterdir() if "_rep1" in f.name)
        assert second_rep
        argv = run_args(fixture_dir, out, extra=["--force"])
        argv[argv.index("--reps") + 1] = "1"
        assert main(argv) == 0
        assert all((out / name).is_file() for name in second_rep)
        indexed = {e["path"] for e in json.loads((out / "index.json").read_text())["files"]}
        assert indexed and not indexed & set(second_rep)
        assert indexed | set(second_rep) | {"index.json"} == {f.name for f in out.iterdir()}

    def test_non_empty_out_is_refused_before_the_run(self, fixture_dir, tmp_path, monkeypatch,
                                                     capsys):
        out = tmp_path / "exp"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        calls = []
        monkeypatch.setattr(pipeline, "run_experiment", lambda *a, **k: calls.append(a))
        assert main(run_args(fixture_dir, out)) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("data error: output directory") and err.count("\n") == 1

    def test_out_naming_a_file_is_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "file.txt"
        out.write_text("x")
        assert main(run_args(fixture_dir, out)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: output path {out} exists and is not a directory\n"

    def test_byte_identical_reports(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(run_args(fixture_dir, out1)) == 0
        assert main(run_args(fixture_dir, out2)) == 0
        assert (out1 / "report_spec.json").read_bytes() == (out2 / "report_spec.json").read_bytes()

    def test_log_json_prints_one_event_per_record_and_the_same_artifacts(self, fixture_dir,
                                                                         tmp_path, capsys):
        plain, logged = tmp_path / "plain", tmp_path / "logged"
        extra = ["--methods", "spec,skm", "--p", "3,4"]
        assert main(run_args(fixture_dir, plain, extra)) == 0
        capsys.readouterr()
        assert main(run_args(fixture_dir, logged, [*extra, "--log-json"])) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert all(set(event) == {"method", "p", "red", "repetition"} for event in events)
        reds = {
            (record["repetition"], method, record["p"]): record["red"]
            for method in ("spec", "skm")
            for record in json.loads((plain / f"report_{method}.json").read_text())["repetitions"]
        }
        assert len(reds) == 2 * 2 * 2 and len(events) == len(reds)
        assert {(e["repetition"], e["method"], e["p"]): e["red"] for e in events} == reds
        files = sorted(f.relative_to(plain) for f in plain.rglob("*") if f.is_file())
        assert files == sorted(f.relative_to(logged) for f in logged.rglob("*") if f.is_file())
        assert Path("index.json") in files
        for name in files:
            assert (plain / name).read_bytes() == (logged / name).read_bytes()

    def test_print_config(self, fixture_dir, capsys):
        code = main(["run", "--input", str(fixture_dir / "matrix.tsv"), "--print-config"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_grid"] == [10, 20, 30, 40, 50]
        assert doc["k_grid"] == [2, 3, 4, 5]
        assert doc["methods"] == ["lkfs", "skm", "spec"]

    def test_config_file_with_flag_override(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"p_grid": [3], "k_grid": [2], "methods": ["spec"]}))
        code = main(
            ["run", "--config", str(cfg), "--input", str(fixture_dir / "matrix.tsv"),
             "--p", "5", "--print-config"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_grid"] == [5]  # flag overrides file
        assert doc["methods"] == ["spec"]  # file overrides default

    def test_run_imports_no_thread_pool_and_no_masked_arrays(self, fixture_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "ae_hidden": [4], "ae_latent": 2, "ae": {"epochs": 2, "batch_size": 16},
            "methods": ["lkfs", "skm", "spec"], "p_grid": [3], "k_grid": [2],
        }))
        argv = ["run", "--config", str(config), "--input", str(fixture_dir / "matrix.tsv"),
                "--labels", str(fixture_dir / "labels.tsv"), "--reps", "1",
                "--out", str(tmp_path / "out")]
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from lkfs.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print([m for m in ('concurrent.futures', 'numpy.ma') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_select_ignores_threads_env(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("LKFS_THREADS", "x")
        code = main(
            ["select", "--input", str(fixture_dir / "matrix.tsv"), "--method", "spec",
             "--p", "3", "--out", str(tmp_path / "solution.json")]
        )
        assert code == 0

    def test_evaluate_ignores_threads_env(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("LKFS_THREADS", "x")
        selection = tmp_path / "selection.txt"
        selection.write_text("f0000\nf0001\n")
        code = main(
            ["evaluate", "--input", str(fixture_dir / "matrix.tsv"),
             "--labels", str(fixture_dir / "labels.tsv"), "--selection", str(selection),
             "--k", "2", "--out", str(tmp_path / "metrics.json")]
        )
        assert code == 0


def run_lkfs_on(values, tmp_path, preprocess, p):
    """`lkfs run` of lkfs alone on an unlabelled matrix of columns g0, g1, ...;
    returns the exit code and the lkfs selections of every record."""
    n, d = values.shape
    matrix = tmp_path / "matrix.tsv"
    save_matrix(
        ExpressionMatrix(values, [f"s{i}" for i in range(n)], [f"g{j}" for j in range(d)]), matrix
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preprocess": preprocess,
        "ae_hidden": [4], "ae_latent": 2, "ae": {"epochs": 2, "batch_size": 16},
        "methods": ["lkfs"], "p_grid": [p], "k_grid": [2],
    }))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="labels"):
        code = main(["run", "--config", str(config), "--input", str(matrix), "--out", str(out)])
    if code:
        return code, []
    report = json.loads((out / "report_lkfs.json").read_text())
    return code, [r["selected_features"] for r in report["repetitions"]]


class TestZeroMedianColumns:
    """A column that holds one value in about 71% or more of a resample has a
    median pairwise distance of 0: it is left out of the greedy, as a constant
    column is, and the run goes on."""

    def test_zero_median_column_is_never_selected(self, tmp_path):
        # g1 takes one value in 29 of 40 samples: more than half of the sample
        # pairs are at distance 0, so its median bandwidth is 0
        values = np.random.default_rng(0).standard_normal((40, 3))
        values[:29, 1] = 0.0
        preprocess = {"variance_keep_fraction": 1.0, "subsample_fraction": 1.0, "repetitions": 1}
        code, selections = run_lkfs_on(values, tmp_path, preprocess, p=2)
        assert code == 0
        assert [sorted(s) for s in selections] == [["g0", "g2"]]

    def test_zero_inflated_genes_do_not_abort_the_run(self, tmp_path):
        # 10 of 60 columns are 80% zeros, as expression data often are; their
        # other values lie far from 0, so the variance filter keeps them
        rng = np.random.default_rng(4)
        values = rng.standard_normal((100, 60))
        values[:, :10] = 0.0
        for j in range(10):
            values[rng.choice(100, size=20, replace=False), j] = rng.uniform(2.0, 3.0, size=20)
        preprocess = {"variance_keep_fraction": 0.5, "subsample_fraction": 0.8, "repetitions": 2}
        code, selections = run_lkfs_on(values, tmp_path, preprocess, p=5)
        assert code == 0
        assert len(selections) == 2 and all(len(s) == 5 for s in selections)
        zero_inflated = {f"g{j}" for j in range(10)}
        assert not zero_inflated & {g for s in selections for g in s}


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1

    def test_unknown_method_is_1(self, fixture_dir):
        assert main(run_args(fixture_dir, "unused")[:5] + ["--methods", "bogus"]) == 1

    def test_tab_in_a_csv_sample_id_is_2_at_the_first_preprocess(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("id,g1,g2,g3\na\tb,1,2,3\nc,4,5,7\nd,0,1,1\n", encoding="utf-8")
        out = tmp_path / "p.tsv"
        argv = ["preprocess", "--input", str(matrix), "--keep-fraction", "1.0", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: sample id 'a\\tb' holds a tab or a line break\n"
        )
        assert not out.exists()

    def test_tab_in_a_csv_label_is_2_before_training(self, fixture_dir, tmp_path, monkeypatch,
                                                     capsys):
        text = (fixture_dir / "labels.tsv").read_text(encoding="utf-8")
        rows = text.replace("\t", ",").splitlines()
        rows[1] += "\tx"
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(rows) + "\n", encoding="utf-8")
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        out = tmp_path / "exp"
        argv = run_args(fixture_dir, out, extra=["--labels", str(labels), "--methods", "lkfs"])
        assert main(argv) == 2
        label = rows[1].split(",")[1]
        assert capsys.readouterr().err == (
            f"data error: label {label!r} holds a tab or a line break\n"
        )
        assert calls == [] and not out.exists()

    def test_missing_input_is_2(self, tmp_path):
        code = main(
            ["preprocess", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o.tsv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"ae": {"epochs": "5"}}, "config key 'ae.epochs' must be int, got '5'"),
            ({"p_grid": 5}, "config key 'p_grid' must be a list of int, got 5"),
            ([1], "config must be a JSON object, got list"),
            ({"preprocess": {"bogus": 1}}, "unknown config keys: ['preprocess.bogus']"),
            ({"kmeans_restarts": "3"}, "config key 'kmeans_restarts' must be int, got '3'"),
            ({"kmeans_restarts": True}, "config key 'kmeans_restarts' must be int, got True"),
            ({"mkl_candidate_subsample": 3}, "unknown config keys: ['mkl_candidate_subsample']"),
            ({"kernel_bandwidth_mode": "global"}, "unknown config keys: ['kernel_bandwidth_mode']"),
            ({"preprocess": {"seed": 1}}, "unknown config keys: ['preprocess.seed']"),
            ({"ae": {"seed": 1}}, "unknown config keys: ['ae.seed']"),
            ({"threads": 2}, "config key 'threads' must be 1 (repetitions run one after another), "
                             "got 2"),
            ({"write_svg": True}, "unknown config keys: ['write_svg']"),
            ({"skm_s": 2.0}, "unknown config keys: ['skm_s']"),
            ({"mkl_tolerance": 1e-6}, "unknown config keys: ['mkl_tolerance']"),
            ({"ae": {"learning_rate": 1e-3}}, "unknown config keys: ['ae.learning_rate']"),
            ({"ae": {"adam_beta1": 0.9}}, "unknown config keys: ['ae.adam_beta1']"),
            ({"ae": {"adam_beta2": 0.999}}, "unknown config keys: ['ae.adam_beta2']"),
            ({"ae": {"adam_epsilon": 1e-8}}, "unknown config keys: ['ae.adam_epsilon']"),
            ({"labels": 5}, "config key 'labels' must be str or null, got 5"),
        ],
        ids=["nested-string", "scalar-for-list", "top-level-list", "nested-unknown", "string",
             "bool-for-int", "removed-candidate-subsample", "removed-bandwidth-mode",
             "removed-preprocess-seed", "removed-ae-seed", "threads-other-than-1",
             "removed-write-svg", "removed-skm-s", "removed-mkl-tolerance",
             "removed-learning-rate", "removed-adam-beta1", "removed-adam-beta2",
             "removed-adam-epsilon", "int-for-optional-string"],
    )
    def test_config_value_of_wrong_type_is_1(self, fixture_dir, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(
            ["run", "--config", str(config), "--input", str(fixture_dir / "matrix.tsv"),
             "--print-config"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--svg"]], ids=["threads", "svg"])
    def test_removed_flag_is_1(self, fixture_dir, capsys, flag):
        assert main(run_args(fixture_dir, "unused", extra=flag)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unrecognized arguments: {flag[0]}") and err.count("\n") == 1

    def test_batch_larger_than_the_resample_is_2_before_any_work(self, tmp_path, capsys):
        # 60 samples subsample to 48, fewer than the default batch of 64
        assert main(["synth", "--n", "60", "--d", "24", "--out", str(tmp_path)]) == 0
        argv = ["run", "--input", str(tmp_path / "matrix.tsv"),
                "--labels", str(tmp_path / "labels.tsv"), "--p", "5", "--k", "2", "--reps", "1"]
        capsys.readouterr()
        code = main([*argv, "--methods", "spec,lkfs", "--out", str(tmp_path / "both")])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: need n >= batch_size, got n=48, batch_size=64\n"
        )
        assert main([*argv, "--methods", "spec", "--out", str(tmp_path / "spec")]) == 0

    def test_greedy_stopped_at_one_feature_is_2(self, tmp_path, capsys):
        # two distinct samples, each 30 times: the first kernel's alignment
        # rounds above 1 and the greedy stops there, one feature short of RED
        two = np.random.default_rng(0).standard_normal((2, 30))
        matrix, config = tmp_path / "matrix.tsv", tmp_path / "config.json"
        save_matrix(
            ExpressionMatrix(
                two[np.arange(60) % 2], [f"s{i}" for i in range(60)], [f"g{j}" for j in range(30)]
            ),
            matrix,
        )
        config.write_text(json.dumps({
            "preprocess": {"variance_keep_fraction": 1.0},
            "ae_hidden": [8], "ae_latent": 2, "ae": {"epochs": 5, "batch_size": 16},
            "methods": ["lkfs"], "p_grid": [5], "k_grid": [2],
        }))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="labels"):
            code = main(["run", "--config", str(config), "--input", str(matrix), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: repetition 0: lkfs selected 1 feature at p=5 "
            "(stop reason: no_improvement), and RED needs at least 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("run", ["--p", "3,3", "--k", "2"], "p_grid repeats a value: [3, 3]"),
            ("run", ["--p", "3", "--k", "2,2"], "k_grid repeats a value: [2, 2]"),
            ("evaluate", ["--k", "2,2"], "k_grid repeats a value: [2, 2]"),
        ],
        ids=["run-p", "run-k", "evaluate-k"],
    )
    def test_repeated_grid_value_is_1_before_any_work(self, fixture_dir, tmp_path, capsys,
                                                      command, flags, message):
        selection = tmp_path / "selection.txt"
        selection.write_text("f0000\nf0001\n")
        inputs = {
            "run": ["--methods", "spec", "--reps", "1", "--out", str(tmp_path / "out")],
            "evaluate": ["--selection", str(selection)],
        }[command]
        argv = [command, "--input", str(fixture_dir / "matrix.tsv"), *inputs, *flags]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods", ["spec", "lkfs,spec"])
    def test_p_below_2_is_1_before_any_work(self, fixture_dir, tmp_path, capsys, monkeypatch,
                                            methods):
        trained, train = [], pipeline.train
        monkeypatch.setattr(pipeline, "train", lambda *args: trained.append(args) or train(*args))
        argv = ["run", "--input", str(fixture_dir / "matrix.tsv"),
                "--labels", str(fixture_dir / "labels.tsv"), "--methods", methods,
                "--k", "2", "--reps", "1", "--out", str(tmp_path / "out")]
        assert main([*argv, "--p", "3,1"]) == 1
        assert capsys.readouterr().err == "error: argument --p: expected an integer >= 2, got '1'\n"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p_grid": [3, 1]}))
        assert main([*argv, "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: every p must be >= 2 to score RED, got p=1\n"
        assert trained == []
        solution = tmp_path / "solution.json"
        code = main(["select", "--input", str(fixture_dir / "matrix.tsv"), "--method", "spec",
                     "--p", "1", "--out", str(solution)])
        assert code == 0 and len(json.loads(solution.read_text())["selected"]) == 1

    def test_config_k_below_2_keeps_its_message(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k_grid": [2, 1]}))
        argv = ["run", "--config", str(config), "--input", str(fixture_dir / "matrix.tsv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: every k must be >= 2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "select", "evaluate", "cluster", "synth"])
    def test_negative_seed_is_1_before_any_work(self, small_dir, tmp_path, capsys, monkeypatch,
                                                command):
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        matrix, out = str(small_dir / "matrix.tsv"), str(tmp_path / "out")
        argv = {
            "run": ["run", "--input", matrix, "--methods", "spec", "--p", "3", "--k", "2",
                    "--out", out, "--seed", "-1"],
            "select": ["select", "--input", matrix, "--method", "skm", "--p", "3",
                       "--out", out, "--seed", "-2"],
            "evaluate": ["evaluate", "--input", matrix, "--selection", str(tmp_path / "sel"),
                         "--out", out, "--seed", "-1"],
            "cluster": ["cluster", "--input", matrix, "--k", "2", "--out", out, "--seed", "-1"],
            "synth": ["synth", "--n", "40", "--d", "12", "--out", out, "--seed", "-1"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        seed = argv[-1]
        assert captured.err == f"error: argument --seed: expected an integer >= 0, got '{seed}'\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("evaluate", "--restarts", "0", "expected an integer >= 1, got '0'"),
            ("cluster", "--restarts", "0", "expected an integer >= 1, got '0'"),
            ("cluster", "--k", "1", "expected an integer >= 2, got '1'"),
            ("run", "--reps", "0", "expected an integer >= 1, got '0'"),
            ("run", "--p", "3,x", "expected an integer >= 2, got 'x'"),
            ("evaluate", "--k", "2,x", "expected an integer >= 2, got 'x'"),
            ("run", "--k", "1", "expected an integer >= 2, got '1'"),
            ("evaluate", "--k", "2,1", "expected an integer >= 2, got '1'"),
            ("run", "--p", "1", "expected an integer >= 2, got '1'"),
        ],
        ids=["evaluate-restarts", "cluster-restarts", "cluster-k", "run-reps", "run-p",
             "evaluate-k", "run-k-below-2", "evaluate-k-below-2", "run-p-below-2"],
    )
    def test_integer_flag_error_names_the_flag(self, small_dir, tmp_path, capsys, monkeypatch,
                                               command, flag, value, message):
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        matrix, out = str(small_dir / "matrix.tsv"), str(tmp_path / "out")
        selection = tmp_path / "selection.txt"
        selection.write_text("f0000\nf0001\n")
        argv = {
            "run": ["run", "--input", matrix, "--methods", "spec", "--p", "3", "--k", "2",
                    "--out", out],
            "evaluate": ["evaluate", "--input", matrix, "--selection", str(selection),
                         "--out", out],
            "cluster": ["cluster", "--input", matrix, "--k", "2", "--out", out],
        }[command]
        assert main([*argv, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument {flag}: {message}\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, lowest",
        [("--n", "1", 2), ("--d", "0", 1), ("--informative", "-1", 0)],
        ids=["n", "d", "informative"],
    )
    def test_synth_integer_flag_error_names_the_flag(self, tmp_path, capsys, flag, value,
                                                     lowest):
        out = tmp_path / "out"
        assert main(["synth", "--n", "40", "--d", "12", "--out", str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: argument {flag}: expected an integer >= {lowest}, got '{value}'\n"
        )
        assert captured.out == "" and not out.exists()

    def test_out_of_memory_is_2_in_one_line(self, fixture_dir, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 15.2 GiB for an array with shape (10000, 204480)"

        def run_experiment(config, progress=None):
            raise MemoryError(message)

        monkeypatch.setattr(pipeline, "run_experiment", run_experiment)
        assert main(run_args(fixture_dir, tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"data error: out of memory: {message}\n"

    def test_underflowing_feature_is_3(self, tmp_path, capsys):
        # g3 is not constant, but every squared difference underflows to 0
        values = np.random.default_rng(0).uniform(size=(24, 4))
        values[:, 3] = np.tile([0.0, 1e-200], 12)
        matrix, config = tmp_path / "matrix.tsv", tmp_path / "config.json"
        names = [f"g{j}" for j in range(4)]
        save_matrix(ExpressionMatrix(values, [f"s{i}" for i in range(24)], names), matrix)
        config.write_text(json.dumps({"ae_hidden": [3], "ae_latent": 2,
                                      "ae": {"epochs": 2, "batch_size": 8}}))
        solution = tmp_path / "solution.json"
        code = main(["select", "--config", str(config), "--input", str(matrix),
                     "--method", "lkfs", "--p", "2", "--out", str(solution)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "numerical error: feature 3: all pairwise distances are zero; "
            "kernel would be degenerate\n"
        )
        assert captured.out == "" and not solution.exists()

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ({"seed": -3}, [], "config key 'seed' must be >= 0, got -3"),
            ({"methods": []}, [],
             "config key 'methods' must name at least one of ('lkfs', 'skm', 'spec')"),
            ({}, ["--methods", ","],
             "config key 'methods' must name at least one of ('lkfs', 'skm', 'spec')"),
            ({"kmeans_restarts": 0}, [], "config key 'kmeans_restarts' must be >= 1, got 0"),
            ({"ae_hidden": [4, 0], "methods": ["spec", "lkfs"]}, [],
             "config key 'ae_hidden' needs sizes >= 1, got [4, 0]"),
            ({"ae_latent": 0, "methods": ["spec", "lkfs"]}, [],
             "config key 'ae_latent' must be >= 1, got 0"),
        ],
        ids=["seed", "methods", "methods-flag", "kmeans-restarts", "ae-hidden", "ae-latent"],
    )
    def test_config_value_out_of_range_is_1_before_any_work(self, small_dir, tmp_path, capsys,
                                                            monkeypatch, doc, flags, message):
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ae": {"batch_size": 8}, **doc}))
        code = main(["run", "--config", str(config), "--input", str(small_dir / "matrix.tsv"),
                     "--p", "3", "--k", "2", "--reps", "1", "--out", str(tmp_path / "out"),
                     *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method, p, lowest",
        [("lkfs", 200, 1), ("spec", 200, 1), ("skm", 200, 2), ("lkfs", 0, 1), ("spec", 0, 1),
         ("skm", 1, 2)],
        ids=["lkfs-wide", "spec-wide", "skm-wide", "lkfs-0", "spec-0", "skm-1"],
    )
    def test_select_p_outside_the_matrix_is_1_before_any_method(self, small_dir, tmp_path,
                                                                  capsys, monkeypatch, method, p,
                                                                  lowest):
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        solution = tmp_path / "solution.json"
        code = main(["select", "--input", str(small_dir / "matrix.tsv"), "--method", method,
                     "--p", str(p), "--out", str(solution)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --p must be between {lowest} and the matrix width 12 for {method}, got {p}\n"
        )
        assert captured.out == "" and not solution.exists()

    @pytest.mark.parametrize(
        "names, message",
        [
            (["f0000", "f0000", "f0001"], "selection repeats features: ['f0000']"),
            (["f0000"], "selection needs at least 2 features to score RED, got ['f0000']"),
            (["f0000", "nope"], "selection names not in matrix: ['nope']"),
        ],
        ids=["repeated", "one-feature", "not-in-matrix"],
    )
    def test_selection_that_is_not_two_distinct_matrix_features_is_2(self, fixture_dir, tmp_path,
                                                                     capsys, names, message):
        selection = tmp_path / "selection.txt"
        selection.write_text("\n".join(names) + "\n")
        code = main(["evaluate", "--input", str(fixture_dir / "matrix.tsv"),
                     "--selection", str(selection), "--k", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "doc",
        [{"selected": 3}, {"selected": "f0000"}, {"other": 1}, {"selected": ["f0000", 1]}],
        ids=["number", "string", "no-selected", "non-string-name"],
    )
    def test_json_selection_without_a_list_of_names_is_2(self, fixture_dir, tmp_path, capsys,
                                                          doc):
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps(doc))
        code = main(["evaluate", "--input", str(fixture_dir / "matrix.tsv"),
                     "--selection", str(selection), "--k", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"data error: {selection}: 'selected' must be a list of feature names, got "
        )
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_numeric_feature_names_are_read_one_per_line(self, tmp_path, capsys):
        values = np.random.default_rng(0).standard_normal((20, 3))
        matrix = tmp_path / "matrix.tsv"
        save_matrix(ExpressionMatrix(values, [f"s{i}" for i in range(20)], ["7", "8", "9"]), matrix)
        selection = tmp_path / "selection.txt"
        argv = ["evaluate", "--input", str(matrix), "--selection", str(selection), "--k", "2"]
        selection.write_text("7\n9\n")
        assert main(argv) == 0
        selection.write_text("7\n")  # parses as the JSON number 7, yet names a feature
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: selection needs at least 2 features to score RED, got ['7']\n"
        )

    def test_resample_below_3_samples_is_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # 3 samples subsample to 2, too few for the 2-D projection of every record
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        values = np.arange(9.0).reshape(3, 3) ** 2
        matrix = tmp_path / "matrix.tsv"
        save_matrix(ExpressionMatrix(values, ["s0", "s1", "s2"], ["g0", "g1", "g2"]), matrix)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preprocess": {"variance_keep_fraction": 1.0}}))
        code = main(["run", "--config", str(config), "--input", str(matrix), "--methods", "spec",
                     "--p", "2", "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: a resample of 2 samples is too small: "
            "the 2-D projection needs at least 3\n"
        )
        assert not (tmp_path / "out").exists()

    def test_empty_label_is_2_naming_the_line(self, fixture_dir, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        labels.write_text("sample_id\tlabel\ns0\ta\ns1\t\n")
        argv = run_args(fixture_dir, tmp_path / "out")
        argv[argv.index("--labels") + 1] = str(labels)
        assert main(argv) == 2
        assert capsys.readouterr().err == "data error: labels line 3 has an empty label\n"

    def test_bad_cell_is_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tg1\ns1\tNA\ns2\t1\n")
        assert main(["cluster", "--input", str(bad), "--k", "2", "--out", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("labels, message", [
        (None, "labels file not found"), ("sample_id\tlabel\n", "labels file has no data rows"),
    ], ids=["missing", "header-only"])
    def test_run_labels_missing_or_without_rows_is_2(self, small_dir, tmp_path, capsys, labels,
                                                     message):
        path = tmp_path / "labels.tsv"
        if labels is not None:
            path.write_text(labels)
        code = main(["run", "--input", str(small_dir / "matrix.tsv"), "--labels", str(path),
                     "--methods", "spec", "--p", "2", "--k", "2", "--reps", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {message}: {path}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_selection_is_2(self, fixture_dir, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(
            ["evaluate", "--input", str(fixture_dir / "matrix.tsv"), "--selection", str(missing)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"data error: selection file not found: {missing}\n"

    @pytest.mark.parametrize("where", ["cluster-input", "run-labels", "evaluate-selection"])
    def test_file_that_is_not_utf8_is_2_in_one_line(self, small_dir, tmp_path, capsys, where):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"sample_id\tlabel\n\xff\ta\n")
        matrix = str(small_dir / "matrix.tsv")
        argv = {
            "cluster-input": ["cluster", "--input", str(bad), "--k", "2"],
            "run-labels": ["run", "--input", matrix, "--labels", str(bad), "--methods", "spec",
                           "--p", "2", "--k", "2", "--reps", "1"],
            "evaluate-selection": ["evaluate", "--input", matrix, "--selection", str(bad)],
        }[where]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {bad} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            "position 16: invalid start byte\n"
        )

    @pytest.mark.parametrize("command", ["select", "cluster", "preprocess", "evaluate"])
    def test_out_in_a_missing_directory_is_2_in_one_line(self, small_dir, tmp_path, capsys,
                                                          command):
        selection, out = tmp_path / "selection.txt", tmp_path / "missing" / "out"
        selection.write_text("f0000\nf0001\n")
        argv = {
            "select": ["select", "--method", "spec", "--p", "2"],
            "cluster": ["cluster", "--k", "2"],
            "preprocess": ["preprocess"],
            "evaluate": ["evaluate", "--selection", str(selection)],
        }[command]
        assert main([*argv, "--input", str(small_dir / "matrix.tsv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: [Errno 2] No such file or directory: '{out}'\n"
        )

    @pytest.mark.parametrize("parent", ["missing", "a file"])
    @pytest.mark.parametrize("command", ["select", "cluster", "preprocess", "evaluate"])
    def test_out_in_a_missing_directory_is_found_before_any_work(
        self, small_dir, tmp_path, monkeypatch, capsys, command, parent
    ):
        monkeypatch.setattr(dataio, "load_matrix", lambda *args: pytest.fail("matrix read"))
        monkeypatch.setattr(pipeline, "train", lambda *args: pytest.fail("trained"))
        selection, out = tmp_path / "selection.txt", tmp_path / "parent" / "out"
        selection.write_text("f0000\nf0001\n")
        if parent == "a file":
            (tmp_path / "parent").write_text("")
        argv = {
            "select": ["select", "--method", "lkfs", "--p", "2"],
            "cluster": ["cluster", "--k", "2"],
            "preprocess": ["preprocess"],
            "evaluate": ["evaluate", "--selection", str(selection)],
        }[command]
        assert main([*argv, "--input", str(small_dir / "matrix.tsv"), "--out", str(out)]) == 2
        reason = {"missing": "No such file or directory", "a file": "Not a directory"}[parent]
        assert capsys.readouterr().err.endswith(f"{reason}: '{out}'\n")

    def test_missing_config_file_is_1(self, small_dir, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        argv = ["run", "--config", str(missing), "--input", str(small_dir / "matrix.tsv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["not-json", "not-utf8"],
    )
    def test_config_file_that_is_not_json_is_1(self, small_dir, tmp_path, capsys, content,
                                               reason):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert main(["run", "--config", str(config), "--input", str(small_dir / "matrix.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"error: config file {config} is not valid JSON: {reason}\n"
        )

    def test_k_above_the_resample_is_1_before_any_work(self, small_dir, tmp_path, capsys,
                                                        monkeypatch):
        # 40 samples subsample to 32
        monkeypatch.setattr(pipeline, "select_features", lambda *args: pytest.fail("selected"))
        code = main(["run", "--input", str(small_dir / "matrix.tsv"),
                     "--labels", str(small_dir / "labels.tsv"), "--methods", "spec",
                     "--p", "2", "--k", "2,33", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: max k=33 exceeds the subsampled sample count 32\n"
        )
        assert not (tmp_path / "out").exists()

    def test_inspect_missing_file_is_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["inspect", "--path", str(missing)]) == 2
        assert capsys.readouterr().err == f"data error: file not found: {missing}\n"

    @pytest.mark.parametrize(
        "content, message",
        [(b"not json\n", "is not valid JSON"), (b"\xff\xfe binary", "is not UTF-8 text")],
        ids=["text", "binary"],
    )
    def test_inspect_non_json_is_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "notes.txt"
        path.write_bytes(content)
        assert main(["inspect", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path} {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "holds neither a JSON object nor a list"),
            ({"aggregates": 1}, "is not a well-formed report (TypeError: "),
            ({"aggregates": [{"p": 3}]}, "is not a well-formed report (KeyError: "),
            ({"selected": 3}, "is not a well-formed solution (TypeError: "),
        ],
        ids=["number", "aggregates-not-a-list", "cell-without-k", "selected-not-a-list"],
    )
    def test_inspect_malformed_json_is_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: {path} {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_inspect_list_is_printed(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('[1, "aggregates"]')
        assert main(["inspect", "--path", str(path)]) == 0
        assert capsys.readouterr().out == '[\n  1,\n  "aggregates"\n]\n'


def test_inspect_solution(fixture_dir, tmp_path, capsys):
    pre = tmp_path / "pre.tsv"
    main(["preprocess", "--input", str(fixture_dir / "matrix.tsv"), "--out", str(pre)])
    solution = tmp_path / "sol.json"
    main(["select", "--input", str(pre), "--method", "spec", "--p", "3",
          "--seed", "0", "--out", str(solution)])
    capsys.readouterr()
    assert main(["inspect", "--path", str(solution)]) == 0
    out = capsys.readouterr().out
    assert "method=spec" in out and "selected (3)" in out


def _inspect_lines(path, capsys):
    capsys.readouterr()
    assert main(["inspect", "--path", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_inspect_report(fixture_dir, tmp_path, capsys, labelled):
    out = tmp_path / "run"
    argv = run_args(fixture_dir, out, extra=["--p", "3,4", "--k", "2,3"])
    if labelled:
        assert main(argv) == 0
    else:
        at = argv.index("--labels")
        with pytest.warns(RuntimeWarning, match="no ground-truth labels"):
            assert main(argv[:at] + argv[at + 2 :]) == 0
    report = json.loads((out / "report_spec.json").read_text())
    lines = _inspect_lines(out / "report_spec.json", capsys)
    assert lines[:3] == [
        "report: method=spec dataset=matrix",
        f"repetition records: {len(report['repetitions'])}",
        "   p   k      RED     Rand      ARI    inertia",
    ]
    cells = report["aggregates"]
    assert len(cells) == 4 and len(lines) == 3 + len(cells)
    for line, cell in zip(lines[3:], cells):
        rand, ari = cell["rand_index_mean"], cell["adjusted_rand_index_mean"]
        assert (rand is None and ari is None) == (not labelled)
        assert line.split() == [
            str(cell["p"]), str(cell["k"]), f"{cell['red_mean']:.4f}",
            "None" if rand is None else f"{rand:.4f}", "None" if ari is None else f"{ari:.4f}",
            f"{cell['inertia_mean']:.4g}",
        ]


def test_inspect_lkfs_solution(fixture_dir, tmp_path, capsys):
    pre, config = tmp_path / "pre.tsv", tmp_path / "config.json"
    main(["preprocess", "--input", str(fixture_dir / "matrix.tsv"), "--out", str(pre)])
    config.write_text(json.dumps(STEP_CONFIG))
    solution = tmp_path / "lkfs.json"
    assert main(["select", "--config", str(config), "--input", str(pre), "--method", "lkfs",
                 "--p", "4", "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    assert doc["target_alignment"] is not None and doc["trajectory"]
    assert _inspect_lines(solution, capsys) == [
        f"solution: method=lkfs stop={doc['stop_reason']}",
        f"selected ({len(doc['selected'])}): {', '.join(doc['selected'])}",
        f"target alignment: {doc['target_alignment']:.6f}",
        "trajectory: " + ", ".join(f"{a:.6f}" for a in doc["trajectory"]),
    ]
