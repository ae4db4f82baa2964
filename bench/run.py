"""Benchmark of `lkfs run`, the repeated-resample experiment, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/lkfs`. Workloads are defined
in `bench/workloads.py`, which records why each was chosen.

Set-up writes a synthetic fixture (matrix, labels, JSON config) generated from
the seed. Then `lkfs run` is invoked in a fresh process (`bench/invoke.py`)
round after round until `--seconds` is used up, at least `MIN_ROUNDS` times,
always on the same inputs. Each round first repeats the set-up
`SETUP_PER_ROUND` times, so that `setup_s`, the median set-up time, samples
the whole run as `run_s` does. Every invocation's output is checked (`bench/check.py`); one
that exits non-zero or fails the check counts as failed. BLAS runs on one
thread (`BLAS_ENV`) in every invocation: the thread count changes `cpu_s` by
~40% (20 s against 12 s on deep_latent) without changing `run_s` or the
report bytes, so it is fixed rather than left to the machine.

With `--trace 0` the result holds the medians of `run_s` (wall time from
matrix load to the last artifact written), `cpu_s` (user+sys CPU of the run
process over the same interval) and `peak_rss_mb` (peak resident memory of the
run process), plus `setup_s`. The fail ratio is the result's `failed` over
`attempted`.

With `--trace 1`, untraced and traced invocations alternate, and the result
holds the per-layer metrics of `bench/tracer.py`: the median of each over the
traced invocations, and `trace.overhead_s`, the median over pairs of the
traced minus the untraced `run_s`. Work counts must repeat exactly across the
traced invocations, or the run is marked incorrect. `clustering.lloyd_iters` counts
the Lloyd iterations of the best restart of each k-means call only.

The last line of standard output is the JSON result; the lines before it are
a readable summary, the report SHA-256s and an environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_ROUND = 2
MIN_ROUNDS = 2
DEADLINE_S = 170.0  # every run of the benchmark ends within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_lkfs() -> None:
    """Import `lkfs` from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "lkfs" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lkfs sources at {SRC / 'lkfs'}")
    sys.path.insert(0, str(SRC))
    import lkfs

    if Path(lkfs.__file__).resolve().parent != SRC / "lkfs":
        raise ImportError(f"lkfs imported from {lkfs.__file__}, not from {SRC}")


def set_up(workload, seed: int, work: Path):
    """Write matrix, labels and config; return the fixture and the config path."""
    from lkfs import dataio

    import workloads
    from check import Fixture

    X, labels = dataio.generate_synthetic(
        n=workload.n,
        d=workload.d,
        informative=workload.informative,
        separation=workloads.SEPARATION,
        seed=seed,
    )
    work.mkdir(parents=True, exist_ok=True)
    dataio.save_matrix(X, work / "matrix.tsv")
    dataio.save_labels(labels, work / "labels.tsv")
    config = {
        **workload.config,
        "input": str(work / "matrix.tsv"),
        "labels": str(work / "labels.tsv"),
        "seed": seed,
        "dataset_id": workload.name,
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return Fixture(X.values, X.sample_ids, X.feature_names, dict(labels.labels)), config_path


def invoke(config_path: Path, out: Path, traced: bool, timeout: float) -> dict:
    """One `lkfs run` in a fresh process; its result, or an `error` entry."""
    result_path = out.with_suffix(".result.json")
    spans_path = out.with_suffix(".spans.json")
    cmd = [sys.executable, str(BENCH / "invoke.py"), "--config", str(config_path),
           "--out", str(out), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    env = {**os.environ, **BLAS_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"invoke exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(result_path.read_text())
    if traced:
        result["spans"] = json.loads(spans_path.read_text())
    if result["exit_code"] != 0:
        result["error"] = f"lkfs run exited {result['exit_code']}: {proc.stderr.strip()[-500:]}"
    return result


def _environment(workload, seed: int, scale: str, blas_runtime: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_runtime": blas_runtime,
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "workload": workload.name,
        "scale": scale,
        "fixture_seed": seed,
        "run_seed": seed,
        "threads": workload.config["threads"],
    }


def load_reference(workload, seed: int, scale: str) -> tuple[dict | None, str]:
    """The recorded reference for this workload and seed, and a note on it."""
    if scale != "full":
        return None, "none at toy scale"
    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    entry = doc.get(workload.name)
    if entry is None:
        return None, "none recorded for this workload"
    if entry["fingerprint"] != json.loads(json.dumps(workload.fingerprint())):
        raise ValueError(f"reference for {workload.name} was recorded for another workload shape")
    ref = entry["seeds"].get(str(seed))
    if ref is None:
        recorded = sorted(map(int, entry["seeds"]))
        return None, f"none recorded for seed {seed} (recorded: {recorded[0]}..{recorded[-1]})"
    return ref, f"seed {seed} from bench/reference.json"


def _median(values) -> float:
    """Median, or 0.0 when nothing was measured (the result is then incorrect)."""
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shapes are for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    sys.dont_write_bytecode = True
    try:
        import_lkfs()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import check
    import tracer
    import workloads

    try:
        workload = workloads.get(args.workload, args.scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    reference, reference_note = load_reference(workload, args.seed, args.scale)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times: list[float] = []
        runs: list[dict] = []
        measure_start = time.perf_counter()

        def timed_set_up():
            t0 = time.perf_counter()
            result = set_up(workload, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
            return result

        def run_once(traced: bool, fixture, config_path: Path) -> dict:
            out = work / f"out{len(runs)}"
            remaining = DEADLINE_S - (time.perf_counter() - started)
            result = invoke(config_path, out, traced, timeout=max(remaining, 1.0))
            if "error" not in result:
                expected = reference["methods"] if reference else None
                problems = check.check_output(out, fixture, workload, expected)
                if problems:
                    result["error"] = "output check failed: " + "; ".join(problems[:5])
                result["hashes"] = check.report_hashes(out, workload.methods)
            result["traced"] = traced
            runs.append(result)
            shutil.rmtree(out, ignore_errors=True)
            return result

        # a round is one invocation, or an untraced and a traced one when tracing
        kinds = (False, True) if args.trace else (False,)
        rounds = 0
        while True:
            elapsed = time.perf_counter() - measure_start
            per_round = elapsed / max(rounds, 1)
            if rounds and time.perf_counter() - started + per_round > DEADLINE_S:
                break
            if rounds >= MIN_ROUNDS and elapsed + per_round > args.seconds:
                break
            rounds += 1
            for _ in range(SETUP_PER_ROUND):
                fixture, config_path = timed_set_up()
            if any(run_once(t, fixture, config_path).get("error") for t in kinds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in runs if r.get("error")]
    correct = not failed
    measured = [r for r in runs if "run_s" in r]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]

    lines = [f"workload {workload.name} ({args.scale}), seed {args.seed}, "
             f"{len(runs)} invocations of lkfs run, reference: {reference_note}"]
    for r in failed:
        lines.append(f"FAILED: {r['error']}")
    lines.append("run_s per invocation: " + " ".join(
        f"{r['run_s']:.3f}{'t' if r['traced'] else ''}" for r in measured))
    if args.trace:
        not_traced = sorted({name for r in traced for name in r["not_traced"]})
        if not_traced:
            lines.append("not traced (missing in lkfs): " + ", ".join(not_traced))
        layer = [tracer.reduce_spans(r["spans"]) for r in traced]
        counts = {tuple(m[c] for c in tracer.COUNT_METRICS) for m in layer}
        if len(counts) > 1:
            correct = False
            lines.append("FAILED: work counts differ between traced runs of the same inputs")
        metrics = {name: _median([m[name] for m in layer]) for name in tracer.PER_LAYER_UNITS
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _median(
            [t["run_s"] - u["run_s"] for u, t in zip(untraced, traced)]
        )
        units = tracer.PER_LAYER_UNITS
        lines.append("layer shares of traced run_s: " + ", ".join(
            f"{name} {metrics[f'{name}.share']:.1%}" for name in tracer.LAYERS))
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s on "
                     f"{metrics['trace.run_s']:.3f} s traced")
    else:
        metrics = {
            "run_s": _median([r["run_s"] for r in untraced]),
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": _median(setup_times),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:14.6g} {units[name]}")
    lines.append(f"  {'fail_ratio':32s} {len(failed) / max(len(runs), 1):14.6g} ratio "
                 f"({len(failed)} of {len(runs)})")
    hashes = next((r["hashes"] for r in runs if r.get("hashes")), {})
    for name, digest in sorted(hashes.items()):
        lines.append(f"sha256 {digest}  {name}")
    if reference is not None and hashes:
        same = hashes == reference["report_sha256"]
        verdict = "identical to" if same else "differ from"
        lines.append(f"report bytes {verdict} the reference")
    blas_runtime = next((r["blas"] for r in measured), {})
    print("\n".join(lines))
    print(json.dumps({"environment": _environment(workload, args.seed, args.scale, blas_runtime)},
                     sort_keys=True))
    print(json.dumps({
        "correct": correct and bool(measured),
        "attempted": max(len(runs), 1),
        "failed": len(failed) if runs else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
