"""Record the decisions of one toy `lkfs run` of all three methods into
``toy_run.json`` beside this file, which ``tests/test_pins.py`` compares
every later run with.

Run from the repository root, and only where a change is meant to alter
what a run decides:

    PYTHONPATH=src python tests/pins/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from lkfs.cli import main

PINS = Path(__file__).resolve().parent / "toy_run.json"
SYNTH = ["--n", "60", "--d", "40", "--informative", "6", "--seed", "5"]
CONFIG = {
    "ae_hidden": [8], "ae_latent": 2, "ae": {"epochs": 20, "batch_size": 16},
    "methods": ["lkfs", "skm", "spec"], "p_grid": [3, 6], "k_grid": [2, 3],
    "kmeans_restarts": 3, "preprocess": {"repetitions": 2}, "seed": 11,
}


def toy_run(work: Path) -> dict:
    """Per method, the (repetition, p) records of the toy run in ``work``:
    the selected features and RED, and for every k the cluster labels in the
    resample's row order, inertia, Rand index and ARI."""
    if main(["synth", *SYNTH, "--out", str(work)]) != 0:
        raise RuntimeError("lkfs synth failed")
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    argv = ["run", "--config", str(config), "--input", str(work / "matrix.tsv"),
            "--labels", str(work / "labels.tsv"), "--out", str(out)]
    if main(argv) != 0:
        raise RuntimeError("lkfs run failed")
    pins = {}
    for method in CONFIG["methods"]:
        report = json.loads((out / f"report_{method}.json").read_text(encoding="utf-8"))
        pins[method] = []
        for rec in report["repetitions"]:
            clusterings = []
            for c in rec["clusterings"]:
                path = out / f"clusters_{method}_p{rec['p']}_k{c['k']}_rep{rec['repetition']}.txt"
                lines = path.read_text(encoding="utf-8").splitlines()
                labels = "".join(line.split("\t")[1] for line in lines)
                clusterings.append({**c, "labels": labels})
            pins[method].append({
                "repetition": rec["repetition"], "p": rec["p"],
                "selected": rec["selected_features"], "red": rec["red"],
                "clusterings": clusterings,
            })
    return pins


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = toy_run(Path(tmp))
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINS}", file=sys.stderr)
