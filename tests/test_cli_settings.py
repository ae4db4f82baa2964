"""The settings path of `lkfs`: every subcommand's flags, their `--help`
text, and the RunConfig values that each subcommand hands to its work."""

import dataclasses
import json

import pytest

from lkfs import clustering, dataio, pipeline
from lkfs.cli import main
from lkfs.pipeline import RunConfig

# `lkfs <command> --help` at 80 columns
HELP = {
    "synth": """\
usage: lkfs synth [-h] [--n N] [--d D] [--informative INFORMATIVE]
                  [--separation SEPARATION] [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --n N
  --d D
  --informative INFORMATIVE
  --separation SEPARATION
  --seed SEED
  --out OUT             output directory
""",
    "preprocess": """\
usage: lkfs preprocess [-h] --input INPUT [--orientation {rows,cols}]
                       [--keep-fraction KEEP_FRACTION] --out OUT

options:
  -h, --help            show this help message and exit
  --input INPUT
  --orientation {rows,cols}
  --keep-fraction KEEP_FRACTION
  --out OUT             output matrix file
""",
    "select": """\
usage: lkfs select [-h] --input INPUT [--orientation {rows,cols}]
                   [--method {lkfs,skm,spec}] --p P [--seed SEED]
                   [--config CONFIG] --out OUT

options:
  -h, --help            show this help message and exit
  --input INPUT
  --orientation {rows,cols}
                        overrides the config file's orientation (default rows)
  --method {lkfs,skm,spec}
  --p P
  --seed SEED           overrides the config file's seed (default 0)
  --config CONFIG       JSON run configuration
  --out OUT             solution JSON path
""",
    "cluster": """\
usage: lkfs cluster [-h] --input INPUT [--orientation {rows,cols}] --k K
                    [--restarts RESTARTS] [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --input INPUT
  --orientation {rows,cols}
  --k K
  --restarts RESTARTS
  --seed SEED
  --out OUT
""",
    "evaluate": """\
usage: lkfs evaluate [-h] --input INPUT [--orientation {rows,cols}]
                     [--labels LABELS] --selection SELECTION [--k K]
                     [--restarts RESTARTS] [--seed SEED] [--out OUT]

options:
  -h, --help            show this help message and exit
  --input INPUT
  --orientation {rows,cols}
  --labels LABELS
  --selection SELECTION
                        solution JSON or one feature name per line
  --k K
  --restarts RESTARTS
  --seed SEED
  --out OUT             metrics JSON path (default stdout)
""",
    "run": """\
usage: lkfs run [-h] [--config CONFIG] [--input INPUT] [--labels LABELS]
                [--orientation {rows,cols}] [--methods METHODS] [--p P]
                [--k K] [--reps REPS] [--seed SEED] [--out OUT] [--force]
                [--log-json] [--print-config]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --input INPUT
  --labels LABELS
  --orientation {rows,cols}
  --methods METHODS     comma list from {lkfs,skm,spec}
  --p P                 comma list of p values
  --k K                 comma list of k values
  --reps REPS
  --seed SEED
  --out OUT             output directory
  --force
  --log-json
  --print-config        dump effective config and exit
""",
    "inspect": """\
usage: lkfs inspect [-h] --path PATH

options:
  -h, --help   show this help message and exit
  --path PATH
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == HELP[command]


class _Handed(Exception):
    """Raised by a stand-in for the work a subcommand hands its settings to."""


def flat(config: RunConfig) -> dict:
    """The fields of ``config``, a nested dataclass's as ``<field>.<key>``."""
    out = {}
    for key, value in dataclasses.asdict(config).items():
        if isinstance(value, dict):
            out.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            out[key] = value
    return out


ALL = tuple(flat(RunConfig()))
# the settings each subcommand reads: the whole config for `select` and `run`
READS = {
    "preprocess": ("input", "orientation", "preprocess.variance_keep_fraction"),
    "select": ALL,
    "cluster": ("input", "orientation", "kmeans_restarts", "seed"),
    "evaluate": ("input", "orientation", "labels", "k_grid", "kmeans_restarts", "seed"),
    "run": ALL,
}


@pytest.fixture
def work(tmp_path, monkeypatch):
    """A 40 x 12 fixture, a two-feature selection and a config file in the
    working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "40", "--d", "12", "--seed", "5", "--out", "fx"]) == 0
    (tmp_path / "selection.txt").write_text("f0000\nf0001\n")
    (tmp_path / "config.json").write_text(json.dumps(FILE))
    return tmp_path


def handed_settings(monkeypatch, argv) -> dict:
    """The settings that `lkfs <argv>` hands to its work, which is stopped there."""
    seen = {}
    load_matrix, load_labels = dataio.load_matrix, dataio.load_labels

    def matrix(path, orientation="rows"):
        seen.update(input=str(path), orientation=orientation)
        return load_matrix(path)  # the fixture's rows, whatever the orientation

    def labels(path):
        seen["labels"] = str(path)
        return load_labels(path)

    def config(config, *args, **kwargs):
        seen.update(flat(config))
        raise _Handed

    def variance_filter(X, keep_fraction):
        seen["preprocess.variance_keep_fraction"] = keep_fraction
        raise _Handed

    def kmeans(values, k, restarts, seed):
        seen.update(kmeans_restarts=restarts, seed=seed)
        raise _Handed

    def score_selection(X, selected, labels, config, rep, p):
        assert (labels is None) == ("labels" not in seen)
        seen.setdefault("labels", None)
        seen.update({key: getattr(config, key) for key in ("k_grid", "kmeans_restarts", "seed")})
        raise _Handed

    monkeypatch.setattr(dataio, "load_matrix", matrix)
    monkeypatch.setattr(dataio, "load_labels", labels)
    monkeypatch.setattr(dataio, "variance_filter", variance_filter)
    monkeypatch.setattr(clustering, "kmeans", kmeans)
    monkeypatch.setattr(pipeline, "score_selection", score_selection)
    monkeypatch.setattr(pipeline, "select_features", lambda method, X, cfg, rep: config(cfg))
    monkeypatch.setattr(pipeline, "run_experiment", config)
    with pytest.raises(_Handed):
        main(argv)
    return seen


MATRIX = "fx/matrix.tsv"
REQUIRED = {
    "preprocess": ["--input", MATRIX, "--out", "pre.tsv"],
    "select": ["--input", MATRIX, "--method", "spec", "--p", "3", "--out", "solution.json"],
    "cluster": ["--input", MATRIX, "--k", "2", "--out", "clusters.tsv"],
    "evaluate": ["--input", MATRIX, "--selection", "selection.txt"],
    "run": ["--input", MATRIX],
}
FILE = {
    "orientation": "cols", "seed": 7, "methods": ["spec"], "p_grid": [3, 4], "k_grid": [2, 3],
    "kmeans_restarts": 4, "labels": "file-labels.tsv", "output_dir": "file-out",
    "preprocess": {"repetitions": 3, "variance_keep_fraction": 0.75},
}
# (command, flags, the settings that differ from the config's): with
# "--config", the config is the file's, else RunConfig's defaults
CASES = [
    *((command, [], {}) for command in REQUIRED),
    ("preprocess", ["--orientation", "cols"], {"orientation": "cols"}),
    ("preprocess", ["--keep-fraction", "0.25"], {"preprocess.variance_keep_fraction": 0.25}),
    ("select", ["--orientation", "cols"], {"orientation": "cols"}),
    ("select", ["--seed", "5"], {"seed": 5}),
    ("select", ["--config", "config.json"], {}),
    ("select", ["--config", "config.json", "--orientation", "rows"], {"orientation": "rows"}),
    ("select", ["--config", "config.json", "--seed", "5"], {"seed": 5}),
    ("cluster", ["--orientation", "cols"], {"orientation": "cols"}),
    ("cluster", ["--restarts", "3"], {"kmeans_restarts": 3}),
    ("cluster", ["--seed", "5"], {"seed": 5}),
    ("evaluate", ["--orientation", "cols"], {"orientation": "cols"}),
    ("evaluate", ["--labels", "fx/labels.tsv"], {"labels": "fx/labels.tsv"}),
    ("evaluate", ["--labels", ""], {}),
    ("evaluate", ["--k", "2,4"], {"k_grid": (2, 4)}),
    ("evaluate", ["--restarts", "3"], {"kmeans_restarts": 3}),
    ("evaluate", ["--seed", "5"], {"seed": 5}),
    ("run", ["--labels", "fx/labels.tsv"], {"labels": "fx/labels.tsv"}),
    ("run", ["--labels", ""], {}),
    ("run", ["--orientation", "cols"], {"orientation": "cols"}),
    ("run", ["--methods", "skm, spec"], {"methods": ("skm", "spec")}),
    ("run", ["--methods", ""], {}),
    ("run", ["--p", "3,5"], {"p_grid": (3, 5)}),
    ("run", ["--k", "3"], {"k_grid": (3,)}),
    ("run", ["--reps", "2"], {"preprocess.repetitions": 2}),
    ("run", ["--seed", "5"], {"seed": 5}),
    ("run", ["--out", "flag-out"], {"output_dir": "flag-out"}),
    ("run", ["--out", ""], {}),
    ("run", ["--config", "config.json"], {}),
    ("run", ["--config", "config.json", "--labels", "fx/labels.tsv"], {"labels": "fx/labels.tsv"}),
    ("run", ["--config", "config.json", "--labels", ""], {}),
    ("run", ["--config", "config.json", "--orientation", "rows"], {"orientation": "rows"}),
    ("run", ["--config", "config.json", "--methods", "lkfs"], {"methods": ("lkfs",)}),
    ("run", ["--config", "config.json", "--methods", ""], {}),
    ("run", ["--config", "config.json", "--p", "5"], {"p_grid": (5,)}),
    ("run", ["--config", "config.json", "--k", "4"], {"k_grid": (4,)}),
    ("run", ["--config", "config.json", "--reps", "2"], {"preprocess.repetitions": 2}),
    ("run", ["--config", "config.json", "--seed", "5"], {"seed": 5}),
    ("run", ["--config", "config.json", "--out", "flag-out"], {"output_dir": "flag-out"}),
]


@pytest.mark.parametrize(
    "command, flags, changed", CASES, ids=[f"{c}[{' '.join(f)}]" for c, f, _ in CASES]
)
def test_each_subcommand_hands_over_the_config_with_its_flags_applied(work, monkeypatch,
                                                                      command, flags, changed):
    doc = FILE if "--config" in flags else {}
    expected = {**flat(RunConfig.from_dict(doc)), "input": MATRIX, **changed}
    if command == "select":
        expected["p_grid"] = (3,)  # the one p of `select --p`
    seen = handed_settings(monkeypatch, [command, *REQUIRED[command], *flags])
    assert seen == {key: expected[key] for key in READS[command]}


def test_select_out_names_the_solution_not_the_output_dir(work, monkeypatch):
    seen = handed_settings(monkeypatch, ["select", *REQUIRED["select"]])
    assert seen["output_dir"] == RunConfig().output_dir
    seen = handed_settings(monkeypatch, ["select", *REQUIRED["select"], "--config", "config.json"])
    assert seen["output_dir"] == FILE["output_dir"]


@pytest.mark.parametrize("command", list(REQUIRED))
def test_empty_input_is_1_before_any_work(work, capsys, monkeypatch, command):
    monkeypatch.setattr(dataio, "load_matrix", lambda *args: pytest.fail("loaded"))
    argv = [command, *REQUIRED[command], "--input", ""]
    assert main(argv) == 1
    message = {"run": "run needs an input matrix (--input or config file)"}.get(
        command, f"{command} needs an input matrix"
    )
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("form", ["flag", "config"])
def test_repeated_method_is_1_before_the_matrix_is_read(work, capsys, monkeypatch, form):
    monkeypatch.setattr(dataio, "load_matrix", lambda *args: pytest.fail("loaded"))
    repeated = {"flag": ["--methods", "spec,spec"], "config": ["--config", "methods.json"]}[form]
    (work / "methods.json").write_text(json.dumps({"methods": ["spec", "spec"]}))
    argv = ["run", "--input", MATRIX, "--labels", "fx/labels.tsv", "--p", "3", "--k", "2",
            "--reps", "1", "--out", "out", *repeated]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: methods repeats a value: ['spec', 'spec']\n"
    assert captured.out == "" and not (work / "out").exists()
