#!/usr/bin/env python3
"""Selection time and memory of the greedy's two sources of inner products.

``StackedKernels.inner_products`` reads the greedy's inner products from the
Gram matrix or from the stack of triangles, as ``kernel.selection_source``
picks from the shape. For each shape NxD:P, this draws a uniform random
n x d matrix and a Gaussian target kernel of random 2-D points, and runs
``feature_kernels`` + ``greedy_select`` with p features twice: once with
``kernel.selection_source`` patched to take the Gram matrix, once to take
the stack. Prints d/p, the source the rule picks and the bytes it counts for
that source, each source's time (the minimum over --repeats runs, BLAS on
one thread) and its ``tracemalloc`` peak in one more run, and whether both
selected the same features.

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

from lkfs import kernel, mkl
from lkfs.dataio import ExpressionMatrix
from lkfs.kernel import feature_kernels, gaussian_kernel


def select(X, target, p, source):
    with mock.patch.object(kernel, "selection_source", lambda n, d, steps: (source, 0)):
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
    print("n x d, p      d/p  rule   rule MiB  gram s  gram MiB  stack s  stack MiB  same")
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
        rule, nbytes = kernel.selection_source(n, d, p)
        print(
            f"{n}x{d}, {p:<4} {d / p:5.1f}  {rule:5}  {nbytes / 2**20:8.1f}"
            f"  {gram[0]:7.3f}  {gram[1] / 2**20:8.1f}"
            f"  {stack[0]:7.3f}  {stack[1] / 2**20:9.1f}  {gram[2] == stack[2]}",
            flush=True,
        )


if __name__ == "__main__":
    main()
