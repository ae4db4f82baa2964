"""Output check of one `lkfs run` output directory.

Checks, all against the fixture the benchmark wrote and none through `lkfs`
code:

- every file in the directory is listed in `index.json`, with its byte count
  and SHA-256;
- each `report_<method>.json` has |p| x |k| aggregate cells with the expected
  repetition count, and one record per (repetition, p);
- per record: the selection file matches the report, the selection is distinct
  names of the matrix (exactly p of them for SKM/SPEC, at most p for LKFS);
  RED, k-means inertia, Rand index and ARI recomputed from the raw matrix,
  the cluster files and the labels match the report;
- the aggregates match means and standard deviations of the records;
- when a reference is recorded for this workload and seed, the selected
  features match it exactly and the RED/Rand/ARI means within `TOLERANCE`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Absolute tolerance on values in [0, 1] (RED, Rand, ARI), relative on inertia.
# It admits a changed floating-point summation order and nothing else.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Fixture:
    values: np.ndarray
    sample_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    labels: dict[str, str]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(scale))


def _read_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]


def _check_index(out: Path, problems: list[str]) -> None:
    index_path = out / "index.json"
    if not index_path.is_file():
        problems.append("index.json missing")
        return
    listed = {e["path"]: e for e in json.loads(index_path.read_text())["files"]}
    present = {p.name for p in out.iterdir() if p.name != "index.json"}
    if set(listed) != present:
        problems.append(f"index lists {len(listed)} files, directory has {len(present)}")
    for name in sorted(set(listed) & present):
        path = out / name
        if path.stat().st_size != listed[name]["bytes"] or sha256(path) != listed[name]["sha256"]:
            problems.append(f"index checksum mismatch: {name}")


def _red(raw: np.ndarray) -> float:
    """Mean absolute Pearson correlation over ordered pairs of distinct columns."""
    centered = raw - raw.mean(axis=0)
    unit = centered / np.sqrt((centered * centered).sum(axis=0))
    corr = np.abs(unit.T @ unit)
    p = raw.shape[1]
    return float((corr.sum() - np.trace(corr)) / (p * (p - 1)))


def _pair_indices(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Rand index by brute-force pair comparison; ARI from the contingency table."""
    n = pred.size
    upper = np.triu_indices(n, 1)
    same_pred = (pred[:, None] == pred[None, :])[upper]
    same_true = (truth[:, None] == truth[None, :])[upper]
    rand = float((same_pred == same_true).mean())
    table = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    cells = float((table * (table - 1) // 2).sum())
    rows = float((table.sum(1) * (table.sum(1) - 1) // 2).sum())
    cols = float((table.sum(0) * (table.sum(0) - 1) // 2).sum())
    expected = rows * cols / (n * (n - 1) / 2)
    maximum = (rows + cols) / 2
    ari = 1.0 if maximum == expected else (cells - expected) / (maximum - expected)
    return rand, ari


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def _check_record(out, method, rec, fixture, col_of, row_of, class_code, problems) -> None:
    p, rep = rec["p"], rec["repetition"]
    tag = f"{method} p={p} rep={rep}"
    selected = rec["selected_features"]
    sel_path = out / f"selected_{method}_p{p}_rep{rep}.txt"
    if not sel_path.is_file() or _read_lines(sel_path) != selected:
        problems.append(f"{tag}: selection file does not match the report")
    too_many = len(selected) > p if method == "lkfs" else len(selected) != p
    if too_many or len(selected) < 2 or len(set(selected)) != len(selected):
        problems.append(f"{tag}: {len(selected)} selected features")
        return
    if any(name not in col_of for name in selected):
        problems.append(f"{tag}: selected feature not in the matrix")
        return
    cols = [col_of[name] for name in selected]
    for cm in rec["clusterings"]:
        k = cm["k"]
        path = out / f"clusters_{method}_p{p}_k{k}_rep{rep}.txt"
        if not path.is_file():
            problems.append(f"{tag} k={k}: cluster file missing")
            continue
        cells = [ln.split("\t") for ln in _read_lines(path)]
        sids = [c[0] for c in cells]
        if len(set(sids)) != len(sids) or any(s not in row_of for s in sids):
            problems.append(f"{tag} k={k}: cluster file has unknown or repeated samples")
            continue
        pred = np.array([int(c[1]) for c in cells])
        if pred.min() < 0 or pred.max() >= k:
            problems.append(f"{tag} k={k}: cluster id out of range")
            continue
        raw = fixture.values[np.ix_([row_of[s] for s in sids], cols)]
        if cm is rec["clusterings"][0] and not _close(_red(raw), rec["red"]):
            problems.append(f"{tag}: RED {rec['red']} differs from recomputed {_red(raw)}")
        span = raw.max(axis=0) - raw.min(axis=0)
        scaled = (raw - raw.min(axis=0)) / np.where(span == 0, 1.0, span)
        inertia = sum(
            float(((scaled[pred == c] - scaled[pred == c].mean(axis=0)) ** 2).sum())
            for c in np.unique(pred)
        )
        if not _close(inertia, cm["inertia"], cm["inertia"]):
            problems.append(f"{tag} k={k}: inertia {cm['inertia']} differs from {inertia}")
        rand, ari = _pair_indices(pred, np.array([class_code[s] for s in sids]))
        if not (_close(rand, cm["rand_index"]) and _close(ari, cm["adjusted_rand_index"])):
            problems.append(f"{tag} k={k}: Rand/ARI differ from recomputed {rand}, {ari}")


def _check_aggregates(method, report, problems) -> None:
    for cell in report["aggregates"]:
        recs = [r for r in report["repetitions"] if r["p"] == cell["p"]]
        per_k = [next(c for c in r["clusterings"] if c["k"] == cell["k"]) for r in recs]
        expected = {
            "red": _mean_sd([r["red"] for r in recs]),
            "inertia": _mean_sd([c["inertia"] for c in per_k]),
            "rand_index": _mean_sd([c["rand_index"] for c in per_k]),
            "adjusted_rand_index": _mean_sd([c["adjusted_rand_index"] for c in per_k]),
        }
        for key, (mean, sd) in expected.items():
            got_mean, got_sd = cell[f"{key}_mean"], cell[f"{key}_sd"]
            if not (_close(got_mean, mean, mean) and _close(got_sd, sd, mean)):
                problems.append(f"{method} p={cell['p']} k={cell['k']}: {key} aggregate differs")


def summarize(out: Path, methods) -> dict:
    """The values a reference records: selections and the RED/Rand/ARI means."""
    summary = {}
    for method in methods:
        report = json.loads((out / f"report_{method}.json").read_text())
        summary[method] = {
            "selected": {
                f"rep{r['repetition']}_p{r['p']}": r["selected_features"]
                for r in report["repetitions"]
            },
            "aggregates": {
                f"p{c['p']}_k{c['k']}": [
                    c["red_mean"], c["rand_index_mean"], c["adjusted_rand_index_mean"]
                ]
                for c in report["aggregates"]
            },
        }
    return summary


def _check_reference(out, methods, reference, problems) -> None:
    got = summarize(out, methods)
    for method in methods:
        want = reference[method]
        if got[method]["selected"] != want["selected"]:
            diff = [key for key in want["selected"]
                    if got[method]["selected"].get(key) != want["selected"][key]]
            problems.append(f"{method}: selected features differ from the reference at {diff[:5]}")
        for cell, values in want["aggregates"].items():
            mine = got[method]["aggregates"].get(cell)
            if mine is None or not all(_close(a, b) for a, b in zip(mine, values)):
                problems.append(f"{method} {cell}: RED/Rand/ARI means differ from the reference")


def check_output(out: Path, fixture: Fixture, workload, reference: dict | None) -> list[str]:
    """Every problem found in the output directory; empty when it passes."""
    problems: list[str] = []
    _check_index(out, problems)
    col_of = {name: j for j, name in enumerate(fixture.feature_names)}
    row_of = {sid: i for i, sid in enumerate(fixture.sample_ids)}
    classes = sorted(set(fixture.labels.values()))
    class_code = {sid: classes.index(label) for sid, label in fixture.labels.items()}
    expected_cells = {(p, k) for p in workload.p_grid for k in workload.k_grid}
    expected_recs = {(r, p) for r in range(workload.reps) for p in workload.p_grid}
    for method in workload.methods:
        path = out / f"report_{method}.json"
        if not path.is_file():
            problems.append(f"report_{method}.json missing")
            continue
        report = json.loads(path.read_text())
        cells = [(c["p"], c["k"]) for c in report["aggregates"]]
        recs = [(r["repetition"], r["p"]) for r in report["repetitions"]]
        if report["method"] != method or sorted(cells) != sorted(expected_cells):
            problems.append(f"{method}: aggregate cells {sorted(cells)} are not the p x k grid")
        if any(c["n_repetitions"] != workload.reps for c in report["aggregates"]):
            problems.append(f"{method}: aggregate repetition count is not {workload.reps}")
        if len(recs) != len(expected_recs) or set(recs) != expected_recs:
            problems.append(f"{method}: records are not one per (repetition, p)")
            continue
        for rec in report["repetitions"]:
            if [c["k"] for c in rec["clusterings"]] != list(workload.k_grid):
                problems.append(f"{method} p={rec['p']}: clusterings are not the k grid")
                continue
            _check_record(out, method, rec, fixture, col_of, row_of, class_code, problems)
        _check_aggregates(method, report, problems)
    if reference is not None and not problems:
        _check_reference(out, workload.methods, reference, problems)
    return problems


def report_hashes(out: Path, methods) -> dict[str, str]:
    return {
        f"report_{m}.json": sha256(out / f"report_{m}.json")
        for m in methods
        if (out / f"report_{m}.json").is_file()
    }
