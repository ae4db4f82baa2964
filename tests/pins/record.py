"""Record the decisions of each pinned `lkfs run` of all three methods into
``<name>.json`` beside this file, which ``tests/test_pins.py`` compares every
later run with.

- ``toy_run``: a well separated 60 x 40 fixture.
- ``contested_run``: an 80 x 60 fixture at separation 1.5, where sparse
  k-means runs several rounds and keeps a previous partition, and the lkfs
  greedy stops short of p = 20 after accepting gains between 1e-6 and 1e-5.

Run from the repository root, and only where a change is meant to alter
what a run decides; name fixtures to record only those:

    PYTHONPATH=src python tests/pins/record.py [toy_run] [contested_run]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from lkfs.cli import main

HERE = Path(__file__).resolve().parent
_CONFIG = {
    "ae_hidden": [8], "ae_latent": 2, "ae": {"epochs": 20, "batch_size": 16},
    "methods": ["lkfs", "skm", "spec"], "p_grid": [3, 6], "k_grid": [2, 3],
    "kmeans_restarts": 3, "preprocess": {"repetitions": 2}, "seed": 11,
}
# name: (`lkfs synth` arguments, run config)
FIXTURES = {
    "toy_run": (["--n", "60", "--d", "40", "--informative", "6", "--seed", "5"], _CONFIG),
    "contested_run": (
        ["--n", "80", "--d", "60", "--informative", "6", "--separation", "1.5", "--seed", "5"],
        {**_CONFIG, "p_grid": [3, 6, 20]},
    ),
}


def pins_path(name: str) -> Path:
    return HERE / f"{name}.json"


def pinned_run(name: str, work: Path) -> dict:
    """Per method, the (repetition, p) records of fixture ``name`` run in
    ``work``: the selected features and RED, and for every k the cluster
    labels in the resample's row order, inertia, Rand index and ARI."""
    synth, config = FIXTURES[name]
    if main(["synth", *synth, "--out", str(work)]) != 0:
        raise RuntimeError("lkfs synth failed")
    config_path, out = work / "config.json", work / "out"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", "--config", str(config_path), "--input", str(work / "matrix.tsv"),
            "--labels", str(work / "labels.tsv"), "--out", str(out)]
    if main(argv) != 0:
        raise RuntimeError("lkfs run failed")
    pins = {}
    for method in config["methods"]:
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
    for name in sys.argv[1:] or FIXTURES:
        with tempfile.TemporaryDirectory() as tmp:
            doc = pinned_run(name, Path(tmp))
        pins_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {pins_path(name)}", file=sys.stderr)
