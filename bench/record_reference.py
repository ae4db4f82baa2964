"""Record the reference outputs the benchmark's output check compares against.

    python3 bench/record_reference.py --workload NAME

For each seed in `SEEDS`, sets up the workload's fixture exactly as
`bench/run.py` does, runs `lkfs run` once, checks the output without a
reference, and stores the selected features, the RED/Rand/ARI means and the
report SHA-256s under the workload in `bench/reference.json`. Run it on the
commit whose outputs are the reference; only the named workload's entry is
replaced.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

REFERENCE = run.BENCH / "reference.json"
SEEDS = range(32)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    run.import_lkfs()
    import check
    import workloads

    workload = workloads.get(args.workload)
    seeds = {}
    for seed in SEEDS:
        work = run.WORK / f"reference-{workload.name}-{seed}"
        try:
            fixture, config_path = run.set_up(workload, seed, work)
            out = work / "out"
            result = run.invoke(config_path, out, traced=False, timeout=600.0)
            if "error" in result:
                print(f"seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            problems = check.check_output(out, fixture, workload, reference=None)
            if problems:
                print(f"seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            seeds[str(seed)] = {
                "report_sha256": check.report_hashes(out, workload.methods),
                "methods": check.summarize(out, workload.methods),
            }
            print(f"seed {seed}: recorded ({result['run_s']:.2f} s)", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc[workload.name] = {"fingerprint": workload.fingerprint(), "seeds": seeds}
    REFERENCE.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
