"""Smoke tests: every script under ``scripts/`` runs to completion at its
smallest arguments, and the benchmark's tracer still finds what it wraps, so
an API change that breaks one fails here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lkfs.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BENCH = Path(__file__).resolve().parents[1] / "bench"


SMOKE = {  # script: (arguments, a line start its output must hold)
    "claims.py": (
        ["--n", "100", "--d", "40", "--informative", "4", "--reps", "1", "--separations", "4.0"],
        "       4.0     skm   10    4.0",
    ),
    "selection_sources.py": (["20x40:4", "--repeats", "1"], "20x40, 4"),
}


def test_every_script_has_a_smoke_case():
    assert {path.name for path in SCRIPTS.glob("*.py")} == set(SMOKE)


@pytest.mark.parametrize("script", sorted(SMOKE), ids=lambda script: script.removesuffix(".py"))
def test_script_runs(tmp_path, script):
    args, expected = SMOKE[script]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_tracer_reaches_every_traced_function(tmp_path):
    """The benchmark's span recorder wraps `lkfs` functions by name; a toy
    `lkfs run` of all three methods under it must find each one and count
    greedy calls, autoencoder batches and SKM rounds."""
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert main(["synth", "--n", "40", "--d", "12", "--out", str(tmp_path)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ae_hidden": [4], "ae_latent": 2, "ae": {"epochs": 2, "batch_size": 16},
        "methods": ["lkfs", "skm", "spec"], "p_grid": [3], "k_grid": [2],
    }))
    argv = ["run", "--config", str(config), "--input", str(tmp_path / "matrix.tsv"),
            "--labels", str(tmp_path / "labels.tsv"), "--reps", "1", "--out", str(tmp_path / "out")]
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        assert recorder.root(main, argv) == 0
    finally:
        recorder.uninstall()
    assert recorder.missing == []
    metrics = tracer.reduce_spans(recorder.spans)
    for name in ("mkl.greedy_calls", "autoencoder.batches", "baselines.skm_rounds"):
        assert metrics[name] > 0, name
