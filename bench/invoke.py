"""One `lkfs run` invocation in a fresh process, timed, optionally traced.

    python3 bench/invoke.py --config CFG --out DIR --result RESULT.json [--spans SPANS.json]

Imports `lkfs` from the checkout's `src/` directory, then times
`cli.main(["run", ...])` from its start (before the matrix is loaded) to its
return (after the last artifact is written). Writes the exit code, wall time,
user+sys CPU time and peak RSS of this process to RESULT.json. With --spans,
the public functions of every `lkfs` module are wrapped by the span recorder
and the spans are written to SPANS.json after the run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import run


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_runtime() -> dict:
    """Thread count and core type the loaded OpenBLAS reports, where it has one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted(
        {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and "/" in ln}
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": Path(path).name}
        for suffix in ("scipy_openblas_", "openblas_"):
            for tail in ("64_", ""):
                threads = getattr(lib, f"{suffix}get_num_threads{tail}", None)
                corename = getattr(lib, f"{suffix}get_corename{tail}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    info["core"] = corename().decode()
                if "threads" in info:
                    return info
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    try:
        run.import_lkfs()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from lkfs import cli

    cli_argv = ["run", "--config", args.config, "--out", args.out]

    recorder = None
    if args.spans:
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        code = recorder.root(cli.main, cli_argv) if recorder else cli.main(cli_argv)
    finally:
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        if recorder:
            recorder.uninstall()
    result = {
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_runtime(),
        "not_traced": recorder.missing if recorder else [],
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    if recorder:
        Path(args.spans).write_text(json.dumps(recorder.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
