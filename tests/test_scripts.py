"""Smoke tests: every script under ``scripts/`` runs to completion at its
smallest arguments, so an API change that breaks one fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        (
            "run_synthetic_experiment.py",
            ["--n", "100", "--d", "20", "--informative", "4", "--p", "3", "--k", "2",
             "--reps", "1", "--epochs", "2"],
            "method    p   k     RED",
        ),
        ("redundancy_benchmark.py", ["--seeds", "1", "--reps", "1", "--p", "5"], "mean RED"),
        ("selection_sources.py", ["20x40:4", "--repeats", "1"], "20x40, 4"),
    ],
    ids=["run_synthetic_experiment", "redundancy_benchmark", "selection_sources"],
)
def test_script_runs(tmp_path, script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
