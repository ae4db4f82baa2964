"""A toy `lkfs run` of all three methods decides what it decided when its
pins were recorded (``tests/pins/record.py``): the same selections and
cluster labels exactly, and RED, inertia, Rand index and ARI within the
benchmark checker's tolerance (``bench/check.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


check = _load("bench_check", ROOT / "bench" / "check.py")
record = _load("pins_record", ROOT / "tests" / "pins" / "record.py")
PINNED = json.loads(record.PINS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    return record.toy_run(tmp_path_factory.mktemp("toy_run"))


@pytest.mark.parametrize("method", sorted(PINNED))
def test_toy_run_matches_its_pins(toy_run, method):
    runs, pins = toy_run[method], PINNED[method]
    assert [(r["repetition"], r["p"]) for r in runs] == [(r["repetition"], r["p"]) for r in pins]
    for run, pin in zip(runs, pins):
        where = f"{method} repetition {pin['repetition']} p={pin['p']}"
        assert run["selected"] == pin["selected"], where
        assert check._close(run["red"], pin["red"], pin["red"]), where
        assert [c["k"] for c in run["clusterings"]] == [c["k"] for c in pin["clusterings"]]
        for got, want in zip(run["clusterings"], pin["clusterings"]):
            at = f"{where} k={want['k']}"
            assert got["labels"] == want["labels"], at
            for metric in ("inertia", "rand_index", "adjusted_rand_index"):
                assert check._close(got[metric], want[metric], want[metric]), f"{at} {metric}"
