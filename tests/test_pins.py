"""Each pinned `lkfs run` of all three methods decides what it decided when
its pins were recorded (``tests/pins/record.py``): the same selections and
cluster labels exactly, and RED, inertia, Rand index and ARI within the
benchmark checker's tolerance (``bench/check.py``). So do the pinned
`lkfs select` and `lkfs evaluate` documents. Each decision those runs make
clears float noise by far, so the pins hold across machines; the margin
wrappers that measure this are checked against margins worked out by hand.
Every JSON document those runs write has the one layout lkfs writes."""

import contextlib
import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from lkfs import baselines, clustering, mkl
from lkfs.kernel import KernelMatrix

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


check = _load("bench_check", ROOT / "bench" / "check.py")
record = _load("pins_record", ROOT / "tests" / "pins" / "record.py")
NAMES = [*record.FIXTURES, *record.DOCUMENTS]
PINNED = {
    name: json.loads(record.pins_path(name).read_text(encoding="utf-8")) for name in NAMES
}


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Each pinned name run once: (its decisions, the directory it ran in)."""
    runs = {}

    def run(name: str) -> tuple[dict, Path]:
        if name not in runs:
            work = tmp_path_factory.mktemp(name)
            runs[name] = record.pinned(name, work), work
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
def test_toy_run_matches_its_pins(pinned, method):
    _assert_matches_pins("toy_run", pinned("toy_run")[0], method)


@pytest.mark.parametrize("method", sorted(PINNED["contested_run"]))
def test_contested_run_matches_its_pins(pinned, method):
    _assert_matches_pins("contested_run", pinned("contested_run")[0], method)


def _assert_same_document(got, want, where: str) -> None:
    """Every float of ``want`` within ``check._close`` of ``got``'s, and the
    rest (names, stop reasons, k, nulls and the document's shape) equal."""
    if isinstance(want, float):
        assert isinstance(got, float) and check._close(got, want, want), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key, value in want.items():
            _assert_same_document(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_document(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("document", sorted(PINNED["toy_documents"]))
def test_toy_documents_match_their_pins(pinned, document):
    got = pinned("toy_documents")[0][document]
    _assert_same_document(got, PINNED["toy_documents"][document], document)


def test_every_json_document_has_the_one_layout(pinned):
    """The reports and index of a run, the `select` documents and `evaluate`'s
    output are each written as sorted keys indented by 2, with a final newline."""
    run_dir, documents_dir = pinned("toy_run")[1] / "out", pinned("toy_documents")[1] / "documents"
    written = [*run_dir.glob("*.json"), *documents_dir.glob("*.json")]
    assert sorted(path.name for path in written) == [
        "evaluate.json", "index.json", "report_lkfs.json", "report_skm.json", "report_spec.json",
        "select_lkfs.json", "select_skm.json", "select_spec.json",
    ]
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def _relative(gap: float, scale: float) -> float:
    return gap / abs(scale) if scale else (math.inf if gap else 0.0)


def _partition(labels: np.ndarray) -> tuple[int, ...]:
    """The labels renumbered in order of first appearance."""
    ids = {c: i for i, c in enumerate(dict.fromkeys(labels.tolist()))}
    return tuple(ids[c] for c in labels.tolist())


@contextlib.contextmanager
def recorded_margins(max_p: int) -> Iterator[dict[str, float]]:
    """The smallest margin of each kind of decision made inside the block, in
    the dict it yields: how far the decision's value lies from flipping it,
    absolute for alignments and relative for the rest. SPEC's ranking is
    read up to rank ``max_p`` + 1.

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
        yield margins


def decision_margins(name: str, work: Path) -> dict[str, float]:
    """The smallest margin of each kind of decision in the pinned run of ``name``."""
    config = record.FIXTURES[record.DOCUMENTS.get(name, name)][1]
    with recorded_margins(max(config["p_grid"])) as margins:
        record.pinned(name, work)
    return margins


class _VectorKernels:
    """Three candidate kernels known through their inner products alone,
    those of the vectors A = (1, 1, 0), B = (3, -2, 0) and C = (0, 0, 1),
    with the target z = (1, 0, 0)."""

    n = 1
    degenerate = np.zeros(3, dtype=bool)
    first_copies = np.arange(3)
    vectors = np.array([[1.0, 1.0, 0.0], [3.0, -2.0, 0.0], [0.0, 0.0, 1.0]])

    def __len__(self) -> int:
        return 3

    def inner_products(self, Kz, steps):
        target, gram = np.array([1.0, 0.0, 0.0]), self.vectors @ self.vectors.T
        return self.vectors @ target, gram.diagonal(), target @ target, lambda j: gram[j]


def test_greedy_margins_match_a_hand_computed_oracle():
    """Alone, A aligns with z at 1/sqrt(2), B at 3/sqrt(13) and C at 0: B
    wins by 3/sqrt(13) - 1/sqrt(2). Paired with B, A reaches z (weights 1/3
    on B, 2/3 on A) at alignment 1, while C, orthogonal to z and to B, leaves
    B alone at 3/sqrt(13): A wins by 1 - 3/sqrt(13), the larger gap, and its
    gain is the same. C then leaves the combination as it is, a gain of
    exactly 0, so the greedy stops a whole tolerance short of accepting."""
    tolerance = mkl._IMPROVEMENT_TOLERANCE
    with recorded_margins(max_p=3) as margins:
        solution = mkl.greedy_select(_VectorKernels(), KernelMatrix(np.ones((1, 1))),
                                     mkl.MklConfig(p=3))
    assert solution.selected == (1, 0) and solution.stop_reason == "no_improvement"
    assert margins == pytest.approx({
        "greedy step": 3 / math.sqrt(13) - 1 / math.sqrt(2),
        "accepted gain": 1 - 3 / math.sqrt(13) - tolerance,
        "stopping gain": tolerance,
    }, rel=1e-12)


def test_kmeans_margin_matches_a_hand_computed_oracle():
    """The corners of a 2 x 1 rectangle have two 2-means fixed points: split
    across the long side, inertia 4 * 0.5^2 = 1, and along it, 4 * 1^2 = 4.
    At seed 1 the first restart ends along it and the second across, so the
    kept partition clears the other by (4 - 1) / 1."""
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    with recorded_margins(max_p=2) as margins:
        result = clustering.kmeans(X, 2, restarts=2, seed=1)
    assert result.inertia == 1.0 and _partition(result.labels) == (0, 1, 0, 1)
    assert margins == {"k-means": 3.0}


@pytest.mark.parametrize("name", sorted(NAMES))
def test_every_decision_clears_float_noise(tmp_path, name):
    margins = decision_margins(name, tmp_path)
    assert {"greedy step", "k-means", "SPEC scores", "SKM weights"} <= set(margins)
    low = {kind: margin for kind, margin in margins.items() if not margin >= 1e-10}
    assert not low, f"{name}: decisions within 1e-10 of flipping: {low}"
