#!/usr/bin/env python3
"""Selection time and memory of the greedy's two sources of inner products.

For each shape NxD:P, draws a random n x d matrix and a random target kernel
and runs ``feature_kernels`` + ``greedy_select`` with p features, once with
the Gram matrix forced and once with the stack of triangles forced. Prints
each source's time (the minimum over --repeats runs, BLAS on one thread), its
``tracemalloc`` peak in one more run, whether both selected the same
features, and the source that ``mkl._takes_gram`` picks for the shape.

    python3 scripts/selection_sources.py 160x500:10 320x1000:20 --repeats 3
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import argparse
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lkfs import mkl
from lkfs.dataio import ExpressionMatrix
from lkfs.kernel import feature_kernels, gaussian_kernel


def select(X, target, p, source):
    with mock.patch.object(mkl, "_takes_gram", lambda n, d, steps: source == "gram"):
        return mkl.greedy_select(feature_kernels(X), target, mkl.MklConfig(p=p)).selected


def measure(X, target, p, source, repeats):
    """(seconds, peak bytes, selection) of one source."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        selected = select(X, target, p, source)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        select(X, target, p, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return min(seconds), peak, selected


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("shapes", nargs="+", help="NxD:P, for example 160x500:10")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    print("n x d, p      d/p  rule   gram s  gram MiB  stack s  stack MiB  same")
    for shape in args.shapes:
        size, p = shape.split(":")
        (n, d), p = (int(v) for v in size.split("x")), int(p)
        rng = np.random.default_rng(0)
        X = ExpressionMatrix(
            rng.random((n, d)), tuple(f"s{i}" for i in range(n)), tuple(f"g{j}" for j in range(d))
        )
        target = gaussian_kernel(rng.standard_normal((n, 2)), sigma=1.0)
        gram = measure(X, target, p, "gram", args.repeats)
        stack = measure(X, target, p, "stack", args.repeats)
        rule = "gram" if mkl._takes_gram(n, d, p) else "stack"
        print(
            f"{n}x{d}, {p:<4} {d / p:5.1f}  {rule:5}  {gram[0]:7.3f}  {gram[1] / 2**20:8.1f}"
            f"  {stack[0]:7.3f}  {stack[1] / 2**20:9.1f}  {gram[2] == stack[2]}",
            flush=True,
        )


if __name__ == "__main__":
    main()
