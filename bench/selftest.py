"""Self-test of the benchmark at toy sizes (a few seconds in all).

    python3 bench/selftest.py

1. Runs every workload's toy shape once per trace mode through `run.py` and
   checks that the result is correct and names every end-to-end or per-layer
   metric of `BENCHMARK.json` with its declared unit.
2. Checks that the output check catches a corrupted report: changed bytes
   (index checksum), a changed value with a re-signed index (recomputation),
   and a selection that differs from a reference.
3. Checks that `run.py` fails without printing a result in a directory that
   holds only `BENCHMARK.json` and the benchmark's files.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SelfTestFailure(Exception):
    pass


def _expect(condition, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names() -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in BENCHMARK["workloads"]:
        for trace in (0, 1):
            proc = _run_benchmark(
                run.ROOT, "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy",
            )
            tag = f"{workload['name']} --trace {trace}"
            _expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, tag)
            _expect(result["correct"] and result["failed"] == 0, f"{tag}: {proc.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == declared[trace], f"{tag}: metrics {got} != declared {declared[trace]}")
            print(f"ok  {tag}: {len(got)} metrics with units, {result['attempted']} runs")


def _resign_index(out: Path) -> None:
    index = json.loads((out / "index.json").read_text())
    for entry in index["files"]:
        data = (out / entry["path"]).read_bytes()
        entry["bytes"], entry["sha256"] = len(data), hashlib.sha256(data).hexdigest()
    (out / "index.json").write_text(json.dumps(index))


def check_corruption_caught() -> None:
    import check
    import workloads

    workload = workloads.get("baseline_grid", "toy")
    work = run.WORK / "selftest-corrupt"
    try:
        fixture, config_path = run.set_up(workload, seed=2, work=work)
        out = work / "out"
        result = run.invoke(config_path, out, traced=False, timeout=120)
        _expect("error" not in result, result.get("error"))
        _expect(check.check_output(out, fixture, workload, None) == [], "clean output rejected")
        reference = check.summarize(out, workload.methods)
        problems = check.check_output(out, fixture, workload, reference)
        _expect(problems == [], f"output rejected against its own reference: {problems}")

        report = out / "report_skm.json"
        pristine = report.read_text()
        report.write_text(pristine.replace('"red": 0.', '"red": 1.', 1))
        problems = check.check_output(out, fixture, workload, None)
        _expect(any("checksum" in p for p in problems), f"changed bytes not caught: {problems}")
        print("ok  corrupted report caught by the index checksum")

        _resign_index(out)
        problems = check.check_output(out, fixture, workload, None)
        _expect(any("RED" in p for p in problems), f"changed RED not caught: {problems}")
        print("ok  corrupted RED caught by recomputation")

        report.write_text(pristine)
        _resign_index(out)
        key = next(iter(reference["skm"]["selected"]))
        reference["skm"]["selected"][key] = reference["skm"]["selected"][key][::-1]
        problems = check.check_output(out, fixture, workload, reference)
        _expect(any("reference" in p for p in problems), f"mismatch not caught: {problems}")
        print("ok  selection differing from the reference caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory_fails() -> None:
    bare = run.WORK / "selftest-bare"
    try:
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_benchmark(bare, "--workload", BENCHMARK["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0")
        _expect(proc.returncode != 0, "benchmark succeeded without the program's sources")
        _expect('"correct"' not in proc.stdout, "benchmark printed a result without the sources")
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        run.import_lkfs()
        check_metric_names()
        check_corruption_caught()
        check_bare_directory_fails()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
