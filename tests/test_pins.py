"""Each pinned `lkfs run` of all three methods decides what it decided when
its pins were recorded (``tests/pins/record.py``): the same selections and
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
PINNED = {
    name: json.loads(record.pins_path(name).read_text(encoding="utf-8"))
    for name in record.FIXTURES
}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    runs = {}

    def run(name: str) -> dict:
        if name not in runs:
            runs[name] = record.pinned_run(name, tmp_path_factory.mktemp(name))
        return runs[name]

    return run


def _assert_matches_pins(name: str, run_doc: dict, method: str) -> None:
    runs, pins = run_doc[method], PINNED[name][method]
    assert [(r["repetition"], r["p"]) for r in runs] == [(r["repetition"], r["p"]) for r in pins]
    for run, pin in zip(runs, pins):
        where = f"{name} {method} repetition {pin['repetition']} p={pin['p']}"
        assert run["selected"] == pin["selected"], where
        assert check._close(run["red"], pin["red"], pin["red"]), where
        assert [c["k"] for c in run["clusterings"]] == [c["k"] for c in pin["clusterings"]]
        for got, want in zip(run["clusterings"], pin["clusterings"]):
            at = f"{where} k={want['k']}"
            assert got["labels"] == want["labels"], at
            for metric in ("inertia", "rand_index", "adjusted_rand_index"):
                assert check._close(got[metric], want[metric], want[metric]), f"{at} {metric}"


@pytest.mark.parametrize("method", sorted(PINNED["toy_run"]))
def test_toy_run_matches_its_pins(pinned_run, method):
    _assert_matches_pins("toy_run", pinned_run("toy_run"), method)


@pytest.mark.parametrize("method", sorted(PINNED["contested_run"]))
def test_contested_run_matches_its_pins(pinned_run, method):
    _assert_matches_pins("contested_run", pinned_run("contested_run"), method)
