"""Record the decisions of each pinned `lkfs run` of all three methods, and
of the pinned `lkfs select` and `lkfs evaluate` documents, into
``<name>.json`` beside this file, which ``tests/test_pins.py`` compares every
later run with.

- ``toy_run``: a well separated 60 x 40 fixture.
- ``contested_run``: an 80 x 60 fixture at separation 1.5, where sparse
  k-means runs several rounds and keeps a previous partition, and the lkfs
  greedy stops short of p = 20 after accepting gains between 1e-6 and 1e-5.
- ``toy_documents``: on the preprocessed toy_run matrix, each method's
  `select` document and `evaluate`'s output for the lkfs selection.

Run from the repository root, and only where a change is meant to alter
what a run decides; name fixtures to record only those:

    PYTHONPATH=src python tests/pins/record.py [toy_run] [contested_run] [toy_documents]
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

# name of the document pins: the fixture whose matrix and config they use
DOCUMENTS = {"toy_documents": "toy_run"}


def pins_path(name: str) -> Path:
    return HERE / f"{name}.json"


def _lkfs(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise RuntimeError(f"lkfs {argv[0]} failed")


def _synth(name: str, work: Path) -> dict:
    """Fixture ``name``'s matrix and labels written to ``work``, with its
    config as ``work/config.json``; returns the config."""
    synth, config = FIXTURES[name]
    _lkfs("synth", *synth, "--out", str(work))
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return config


def pinned(name: str, work: Path) -> dict:
    """The decisions pinned as ``name``, run in ``work``."""
    return pinned_documents(name, work) if name in DOCUMENTS else pinned_run(name, work)


def pinned_documents(name: str, work: Path) -> dict:
    """The documents of ``DOCUMENTS[name]``'s fixture, preprocessed, written
    to ``work/documents``: ``select_<method>.json`` at the config's largest
    p, and ``evaluate.json`` for the lkfs one with the config's k grid,
    restarts and seed. Returns them parsed, keyed by file stem."""
    config = _synth(DOCUMENTS[name], work)
    docs, matrix = work / "documents", str(work / "preprocessed.tsv")
    docs.mkdir()
    _lkfs("preprocess", "--input", str(work / "matrix.tsv"), "--out", matrix)
    for method in config["methods"]:
        _lkfs("select", "--config", str(work / "config.json"), "--input", matrix,
              "--method", method, "--p", str(max(config["p_grid"])),
              "--out", str(docs / f"select_{method}.json"))
    _lkfs("evaluate", "--input", matrix, "--labels", str(work / "labels.tsv"),
          "--selection", str(docs / "select_lkfs.json"),
          "--k", ",".join(map(str, config["k_grid"])),
          "--restarts", str(config["kmeans_restarts"]), "--seed", str(config["seed"]),
          "--out", str(docs / "evaluate.json"))
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(docs.glob("*.json"))}


def pinned_run(name: str, work: Path) -> dict:
    """Per method, the (repetition, p) records of fixture ``name`` run in
    ``work``: the selected features and RED, and for every k the cluster
    labels in the resample's row order, inertia, Rand index and ARI."""
    config = _synth(name, work)
    out = work / "out"
    _lkfs("run", "--config", str(work / "config.json"), "--input", str(work / "matrix.tsv"),
          "--labels", str(work / "labels.tsv"), "--out", str(out))
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
    for name in sys.argv[1:] or [*FIXTURES, *DOCUMENTS]:
        with tempfile.TemporaryDirectory() as tmp:
            doc = pinned(name, Path(tmp))
        pins_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {pins_path(name)}", file=sys.stderr)
