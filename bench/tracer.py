"""Span recorder for traced `lkfs run` invocations, and the per-layer reduction.

The recorder wraps the public functions of each `lkfs` module at the names
the pipeline reaches them through (for example `pipeline.train`, or
`baselines.kmeans` for the k-means that SKM runs internally). Each call becomes
one span: name, layer, parent span, repetition, start, end, and work counts
computed at the wrapper from the call's arguments and return value. Spans are
kept in memory and written out when the run ends.

The repetition of a span is the number of `dataio.subsample` calls before it
minus one; the pipeline subsamples once at the start of each repetition and
runs repetitions one after another with `threads=1`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from pathlib import Path

# (module, attribute, span name, layer)
WRAPPED = (
    ("dataio", "load_matrix", "dataio.load_matrix", "dataio"),
    ("dataio", "load_labels", "dataio.load_labels", "dataio"),
    ("dataio", "subsample", "dataio.subsample", "dataio"),
    ("pipeline", "preprocess_matrix", "pipeline.preprocess_matrix", "dataio"),
    ("pipeline", "train", "autoencoder.train", "autoencoder"),
    ("pipeline", "encode", "autoencoder.encode", "autoencoder"),
    ("kernel", "median_bandwidth", "kernel.median_bandwidth", "kernel"),
    ("kernel", "gaussian_kernel", "kernel.gaussian_kernel", "kernel"),
    ("kernel", "feature_kernels", "kernel.feature_kernels", "kernel"),
    ("baselines", "median_bandwidth", "kernel.median_bandwidth", "kernel"),
    ("baselines", "gaussian_kernel", "kernel.gaussian_kernel", "kernel"),
    ("mkl", "greedy_select", "mkl.greedy_select", "mkl"),
    ("baselines", "sparse_kmeans", "baselines.sparse_kmeans", "baselines"),
    ("baselines", "spec_scores", "baselines.spec_scores", "baselines"),
    ("baselines", "kmeans", "clustering.kmeans", "clustering"),
    ("clustering", "kmeans", "clustering.kmeans", "clustering"),
    ("clustering", "rand_index", "clustering.rand_index", "clustering"),
    ("clustering", "adjusted_rand_index", "clustering.adjusted_rand_index", "clustering"),
    ("evaluation", "red_score", "evaluation.red_score", "evaluation"),
    ("evaluation", "pca_2d", "evaluation.pca_2d", "evaluation"),
    ("evaluation", "aggregate", "evaluation.aggregate", "evaluation"),
    ("pipeline", "run_experiment", "pipeline.run_experiment", "pipeline"),
    ("pipeline", "emit_outputs", "pipeline.emit_outputs", "pipeline"),
)

ROOT = "lkfs.run"
LAYERS = (
    "dataio", "autoencoder", "kernel", "mkl", "baselines", "clustering", "evaluation", "pipeline"
)


def _ae_batches(n: int, batch_size: int) -> int:
    """Mini-batches per epoch: a trailing single row joins the previous batch."""
    count = math.ceil(n / batch_size)
    if count > 1 and n - (count - 1) * batch_size == 1:
        count -= 1
    return count


def _count_train(call, result) -> dict:
    hp = call["hp"]
    return {"batches": hp.epochs * _ae_batches(call["X"].n, hp.batch_size)}


def _nbytes(obj) -> int:
    """Array bytes of a kernel result: one array, a kernel, or a list of them."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if hasattr(obj, "entries"):
        return _nbytes(obj.entries)
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    return 0


def _count_feature_kernels(call, result) -> dict:
    return {"kernel_bytes": _nbytes(result)}


def _count_greedy(call, result) -> dict:
    candidates, config = call["candidates"], call["config"]
    active = sum(not getattr(K, "degenerate", False) for K in candidates)
    steps = len(result.selected)
    # the scoring loop runs once per accepted feature after the first, plus
    # once more when it stops on a rejected best gain
    rounds = steps - 1 + (result.stop_reason == "no_improvement")
    cap = getattr(config, "candidate_subsample", None) or active
    scored = active + sum(min(cap, active - i) for i in range(1, rounds + 1))
    return {
        "steps": steps,
        "candidates_scored": scored,
        "early_stop": int(result.stop_reason == "no_improvement"),
    }


def _count_skm(call, result) -> dict:
    return {"rounds": len(result.objective_history)}


def _count_kmeans(call, result) -> dict:
    return {"lloyd_iters": result.iterations_run}


def _count_emit(call, result) -> dict:
    return {"files": len(result), "bytes": sum(Path(p).stat().st_size for p in result)}


COUNTERS = {
    "autoencoder.train": _count_train,
    "kernel.feature_kernels": _count_feature_kernels,
    "mkl.greedy_select": _count_greedy,
    "baselines.sparse_kmeans": _count_skm,
    "clustering.kmeans": _count_kmeans,
    "pipeline.emit_outputs": _count_emit,
}


class SpanRecorder:
    """Records one span per wrapped call; `install` patches, `uninstall` restores.

    A function missing from `lkfs` is left out and named in `missing`, so a
    renamed function shows up as time moving to its caller, not as a crash.
    """

    def __init__(self):
        # each span: [name, layer, parent, rep, start, end, counts]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._rep = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "dataio.subsample":
                self._rep += 1
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, layer, parent, self._rep, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[6] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, layer in WRAPPED:
            module = importlib.import_module(f"lkfs.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def root(self, fn, *args):
        """Run `fn(*args)` inside the root span and return its result."""
        return self._wrap(fn, ROOT, "pipeline")(*args)


# ---------------------------------------------------------------- reduction

# Per-layer metrics and their units, in report order. Every `_s` metric is self
# time (span duration minus the child spans it covers); together the `_s`
# metrics below partition the traced run time.
PER_LAYER_UNITS = {
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "dataio.load_matrix_s": "s",
    "dataio.load_labels_s": "s",
    "dataio.preprocess_s": "s",
    "autoencoder.train_s": "s",
    "autoencoder.encode_s": "s",
    "autoencoder.batches": "count",
    "autoencoder.batch_ms": "ms",
    "kernel.target_s": "s",
    "kernel.feature_kernels_s": "s",
    "kernel.spec_kernel_s": "s",
    "kernel.feature_kernel_bytes": "B",
    "kernel.gaussian_kernel_calls": "count",
    "mkl.greedy_s": "s",
    "mkl.greedy_calls": "count",
    "mkl.steps_run": "count",
    "mkl.candidates_scored": "count",
    "mkl.useful_step_ratio": "ratio",
    "mkl.early_stops": "count",
    "baselines.skm_s": "s",
    "baselines.skm_rounds": "count",
    "baselines.spec_s": "s",
    "baselines.spec_calls": "count",
    "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count",
    "clustering.skm_kmeans_s": "s",
    "clustering.skm_kmeans_calls": "count",
    "clustering.lloyd_iters": "count",
    "clustering.rand_s": "s",
    "evaluation.red_s": "s",
    "evaluation.pca_s": "s",
    "evaluation.aggregate_s": "s",
    "pipeline.self_s": "s",
    "pipeline.emit_s": "s",
    "pipeline.files_written": "count",
    "pipeline.bytes_written": "B",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
}

# Metrics that are exact functions of the code and seed; the self-check
# requires them to repeat across traced runs.
COUNT_METRICS = tuple(m for m, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")) + (
    "mkl.useful_step_ratio",
)


def _bucket(name: str, parent_name: str | None) -> str | None:
    """The `_s` metric a span's self time belongs to."""
    if name == ROOT or name == "pipeline.run_experiment":
        return "pipeline.self_s"
    if name in ("dataio.subsample", "pipeline.preprocess_matrix"):
        return "dataio.preprocess_s"
    if name in ("kernel.median_bandwidth", "kernel.gaussian_kernel"):
        if parent_name == "kernel.feature_kernels":
            return "kernel.feature_kernels_s"
        if parent_name == "baselines.spec_scores":
            return "kernel.spec_kernel_s"
        return "kernel.target_s"
    if name == "clustering.kmeans":
        if parent_name == "baselines.sparse_kmeans":
            return "clustering.skm_kmeans_s"
        return "clustering.kmeans_s"
    if name in ("clustering.rand_index", "clustering.adjusted_rand_index"):
        return "clustering.rand_s"
    return {
        "dataio.load_matrix": "dataio.load_matrix_s",
        "dataio.load_labels": "dataio.load_labels_s",
        "autoencoder.train": "autoencoder.train_s",
        "autoencoder.encode": "autoencoder.encode_s",
        "kernel.feature_kernels": "kernel.feature_kernels_s",
        "mkl.greedy_select": "mkl.greedy_s",
        "baselines.sparse_kmeans": "baselines.skm_s",
        "baselines.spec_scores": "baselines.spec_s",
        "evaluation.red_score": "evaluation.red_s",
        "evaluation.pca_2d": "evaluation.pca_s",
        "evaluation.aggregate": "evaluation.aggregate_s",
        "pipeline.emit_outputs": "pipeline.emit_s",
    }.get(name)


def reduce_spans(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything but `trace.overhead_s`)."""
    metrics = {m: 0.0 for m in PER_LAYER_UNITS if m != "trace.overhead_s"}
    child_time = [0.0] * len(spans)
    for name, layer, parent, rep, start, end, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    layer_time = dict.fromkeys(LAYERS, 0.0)
    steps_by_rep: dict[int, int] = {}
    for i, (name, layer, parent, rep, start, end, counts) in enumerate(spans):
        parent_name = spans[parent][0] if parent is not None else None
        own = (end - start) - child_time[i]
        bucket = _bucket(name, parent_name)
        if bucket is None:
            raise ValueError(f"span {name!r} has no metric")
        metrics[bucket] += own
        layer_time[layer] += own
        if name == ROOT:
            metrics["trace.run_s"] = end - start
        elif name == "autoencoder.train":
            metrics["autoencoder.batches"] += counts["batches"]
        elif name == "kernel.gaussian_kernel":
            metrics["kernel.gaussian_kernel_calls"] += 1
        elif name == "kernel.feature_kernels":
            metrics["kernel.feature_kernel_bytes"] += counts["kernel_bytes"]
        elif name == "mkl.greedy_select":
            metrics["mkl.greedy_calls"] += 1
            metrics["mkl.steps_run"] += counts["steps"]
            metrics["mkl.candidates_scored"] += counts["candidates_scored"]
            metrics["mkl.early_stops"] += counts["early_stop"]
            steps_by_rep[rep] = max(steps_by_rep.get(rep, 0), counts["steps"])
        elif name == "baselines.sparse_kmeans":
            metrics["baselines.skm_rounds"] += counts["rounds"]
        elif name == "baselines.spec_scores":
            metrics["baselines.spec_calls"] += 1
        elif name == "clustering.kmeans":
            inside_skm = parent_name == "baselines.sparse_kmeans"
            metrics["clustering.skm_kmeans_calls" if inside_skm else "clustering.kmeans_calls"] += 1
            metrics["clustering.lloyd_iters"] += counts["lloyd_iters"]
        elif name == "pipeline.emit_outputs":
            metrics["pipeline.files_written"] += counts["files"]
            metrics["pipeline.bytes_written"] += counts["bytes"]
    if metrics["autoencoder.batches"]:
        metrics["autoencoder.batch_ms"] = (
            1000.0 * metrics["autoencoder.train_s"] / metrics["autoencoder.batches"]
        )
    if metrics["mkl.steps_run"]:
        metrics["mkl.useful_step_ratio"] = sum(steps_by_rep.values()) / metrics["mkl.steps_run"]
    run_s = metrics["trace.run_s"]
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_time[layer] / run_s
    return metrics
