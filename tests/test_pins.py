"""Each pinned `lkfs run` of all three methods decides what it decided when
its pins were recorded (``tests/pins/record.py``): the same selections and
cluster labels exactly, and RED, inertia, Rand index and ARI within the
benchmark checker's tolerance (``bench/check.py``). Each decision those
runs make clears float noise by far, so the pins hold across machines."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lkfs import baselines, clustering, mkl

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


def _relative(gap: float, scale: float) -> float:
    return gap / abs(scale) if scale else (math.inf if gap else 0.0)


def _partition(labels: np.ndarray) -> tuple[int, ...]:
    """The labels renumbered in order of first appearance."""
    ids = {c: i for i, c in enumerate(dict.fromkeys(labels.tolist()))}
    return tuple(ids[c] for c in labels.tolist())


def decision_margins(name: str, work: Path) -> dict[str, float]:
    """The smallest margin of each kind of decision in the pinned run of
    ``name``: how far the decision's value lies from flipping it, absolute
    for alignments and relative for the rest.

    - greedy step: per accepted step, the best alignment minus the best of the
      candidates that are not twins of the winner (``first_copies``)
    - accepted gain: a later step's gain minus ``_IMPROVEMENT_TOLERANCE``
    - stopping gain: the tolerance minus the gain of the step that stopped
    - k-means: per call, the inertia gap from the chosen restart to the best
      restart with a different partition (none when all restarts agree)
    - SPEC scores and SKM weights: the gaps between adjacent ranked values up
      to rank p + 1, which order the selection and make its cut; exact zero
      ties are broken by index, so they count as infinite
    """
    margins: dict[str, float] = {}

    def note(kind: str, margin: float) -> None:
        margins[kind] = min(margins.get(kind, math.inf), margin)

    def note_ranked(kind: str, ranked: np.ndarray, p: int) -> None:
        for a, b in zip(ranked[:p], ranked[1 : p + 1]):
            if a or b:
                note(kind, _relative(abs(b - a), max(abs(a), abs(b))))

    batches, restarts = [], []
    pair_weights, greedy = mkl._pair_weights_batch, mkl.greedy_select
    lloyd, kmeans = clustering._lloyd, clustering.kmeans
    spec, skm = baselines.spec_scores, baselines.sparse_kmeans
    tolerance = mkl._IMPROVEMENT_TOLERANCE
    max_p = max(record.FIXTURES[name][1]["p_grid"])

    def recorded_pair_weights(*args):
        weights = pair_weights(*args)
        batches.append(weights[2])
        return weights

    def recorded_greedy(candidates, Kz, config):
        batches.clear()
        solution = greedy(candidates, Kz, config)
        first, open_ = candidates.first_copies, ~candidates.degenerate
        trajectory = solution.alignment_trajectory
        for step, achieved in enumerate(batches):
            best, pool = float(achieved.max()), np.flatnonzero(open_)
            if step == len(solution.selected):
                note("stopping gain", tolerance - (best - trajectory[-1]))
                continue
            winner = solution.selected[step]
            rivals = achieved[first[pool] != first[winner]]
            note("greedy step", best - float(rivals.max()) if rivals.size else math.inf)
            if step:
                note("accepted gain", best - trajectory[step - 1] - tolerance)
            open_[winner] = False
        return solution

    def recorded_lloyd(*args):
        result = lloyd(*args)
        restarts.append(result)
        return result

    def recorded_kmeans(*args, **kwargs):
        restarts.clear()
        result = kmeans(*args, **kwargs)
        chosen = _partition(result.labels)
        others = [inertia for labels, inertia, _ in restarts if _partition(labels) != chosen]
        if others:
            note("k-means", _relative(min(others) - result.inertia, result.inertia))
        return result

    def recorded_spec(values):
        result = spec(values)
        note_ranked("SPEC scores", result.scores[list(result.ranking)], max_p)
        return result

    def recorded_skm(values, k, s, seed, restarts):
        result = skm(values, k, s=s, seed=seed, restarts=restarts)
        note_ranked("SKM weights", result.weights[list(result.ranking)], round(s * s))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mkl, "_pair_weights_batch", recorded_pair_weights)
        patch.setattr(mkl, "greedy_select", recorded_greedy)
        patch.setattr(clustering, "_lloyd", recorded_lloyd)
        patch.setattr(clustering, "kmeans", recorded_kmeans)
        patch.setattr(baselines, "kmeans", recorded_kmeans)
        patch.setattr(baselines, "spec_scores", recorded_spec)
        patch.setattr(baselines, "sparse_kmeans", recorded_skm)
        record.pinned_run(name, work)
    return margins


@pytest.mark.parametrize("name", sorted(record.FIXTURES))
def test_every_decision_clears_float_noise(tmp_path, name):
    margins = decision_margins(name, tmp_path)
    assert {"greedy step", "k-means", "SPEC scores", "SKM weights"} <= set(margins)
    low = {kind: margin for kind, margin in margins.items() if not margin >= 1e-10}
    assert not low, f"{name}: decisions within 1e-10 of flipping: {low}"
