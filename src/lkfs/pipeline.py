"""End-to-end orchestration: the repeated-resample experiment protocol.

Each repetition draws a seeded subsample, preprocesses it (min-max scale, then
variance filter), runs every requested selection method over the p grid, and
clusters the selected submatrix for every k. Per-repetition seeds derive from
(master seed, repetition index) so earlier repetitions never change when more
are added.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import types
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import baselines, clustering, dataio, evaluation, kernel, mkl
from .autoencoder import AeArchitecture, AeHyperparams, LatentRepresentation, encode, train
from .dataio import ExpressionMatrix, LabelVector, PreprocessConfig, derive_seed
from .errors import ConfigError, DataValidationError
from .evaluation import ClusteringMetrics, EvaluationReport, RepetitionRecord

METHODS = ("lkfs", "skm", "spec")

# integer tags for per-purpose seed derivation
_SEED_SUBSAMPLE = 0
_SEED_AE = 1
_SEED_KMEANS = 2
_SEED_SKM = 3


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    labels: str | None = None
    orientation: str = "rows"  # one of dataio.ORIENTATIONS
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    ae_hidden: tuple[int, ...] = (200, 100)
    ae_latent: int = 50
    ae: AeHyperparams = field(default_factory=AeHyperparams)
    methods: tuple[str, ...] = METHODS
    p_grid: tuple[int, ...] = (10, 20, 30, 40, 50)
    k_grid: tuple[int, ...] = (2, 3, 4, 5)
    kmeans_restarts: int = 10
    output_dir: str = "lkfs-out"
    seed: int = 0
    threads: int = 1  # repetitions run one after another; only 1 is accepted
    dataset_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(self, "k_grid", tuple(int(k) for k in self.k_grid))
        object.__setattr__(self, "ae_hidden", tuple(int(h) for h in self.ae_hidden))
        if not self.methods:
            raise ConfigError(f"config key 'methods' must name at least one of {METHODS}")
        if not self.p_grid or not self.k_grid:
            raise ConfigError("p_grid and k_grid must be non-empty")
        if any(k < 2 for k in self.k_grid):
            raise ConfigError("every k must be >= 2")
        if any(p < 1 for p in self.p_grid):
            raise ConfigError("every p must be >= 1")
        for name in ("methods", "p_grid", "k_grid"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {list(values)}")
        for key, lowest in (("kmeans_restarts", 1), ("ae_latent", 1), ("seed", 0)):
            if getattr(self, key) < lowest:
                raise ConfigError(
                    f"config key {key!r} must be >= {lowest}, got {getattr(self, key)}"
                )
        if any(h < 1 for h in self.ae_hidden):
            raise ConfigError(
                f"config key 'ae_hidden' needs sizes >= 1, got {list(self.ae_hidden)}"
            )
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}; choose from {METHODS}")
        if self.orientation not in dataio.ORIENTATIONS:
            raise ConfigError(f"orientation must be one of {dataio.ORIENTATIONS}")
        if self.threads != 1:
            raise ConfigError(
                "config key 'threads' must be 1 (repetitions run one after another), "
                f"got {self.threads!r}"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Build a config from a parsed JSON document.

        Every key is checked against its field's declared type first, so a
        misspelt key or a value of the wrong type is a ``ConfigError`` that
        names the key. A list is accepted where a tuple is declared.
        """
        return _build(cls, doc, "")


def _build(cls, doc, prefix: str):
    """``cls(**doc)`` once every key of ``doc`` names a field of the declared type."""
    if not isinstance(doc, dict):
        where = f"config key {prefix[:-1]!r}" if prefix else "config"
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(prefix + key for key in set(doc) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    fields = {}
    for key, value in doc.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value, f"{prefix}{key}.")
        elif not _has_type(value, hint):
            raise ConfigError(
                f"config key {prefix + key!r} must be {_type_name(hint)}, got {value!r}"
            )
        fields[key] = value
    return cls(**fields)


def _has_type(value, hint) -> bool:
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if typing.get_origin(hint) is tuple:  # always tuple[T, ...]
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):  # a bool is an int to isinstance, never to a config
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if isinstance(hint, types.UnionType):
        return " or ".join(_type_name(arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return f"a list of {_type_name(typing.get_args(hint)[0])}"
    return "null" if hint is type(None) else hint.__name__


def preprocess_matrix(X: ExpressionMatrix, cfg: PreprocessConfig) -> ExpressionMatrix:
    """Min-max scale, then keep the top-variance fraction of columns."""
    return dataio.variance_filter(dataio.minmax_scale(X), cfg.variance_keep_fraction)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_selection_fits(n: int, d: int, p: int) -> None:
    """Raise ``DataValidationError`` when the source that the lkfs greedy over
    d kernels of n samples reads for p steps (``kernel.selection_source``)
    would alone exceed physical memory. The answer depends on the machine;
    what a run outputs never does."""
    source, nbytes = kernel.selection_source(n, d, p)
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise DataValidationError(
            f"lkfs selection over {n} samples x {d} features at p={p} needs the {source} "
            f"source of {nbytes} bytes, more than the {memory} bytes of physical memory"
        )


def _train_latent(
    X: ExpressionMatrix, config: RunConfig, seed: int
) -> LatentRepresentation:
    arch = AeArchitecture.default(X.d, hidden=config.ae_hidden, latent_dim=config.ae_latent)
    model = train(X, arch, config.ae, seed)
    return encode(model, X)


def run_lkfs_once(
    X: ExpressionMatrix, config: RunConfig, seed: int, p: int | None = None
) -> tuple[mkl.MklSolution, LatentRepresentation]:
    """Train the autoencoder, build the latent target kernel and greedily select.

    ``X`` is expected to be preprocessed already. ``seed`` seeds the
    autoencoder, and ``p`` defaults to ``max(config.p_grid)``. For one seed,
    the selection at a smaller p is a prefix of the selection at a larger one.
    """
    latent = _train_latent(X, config, seed)
    kz = kernel.gaussian_kernel(
        latent.z_values, kernel.median_bandwidth(latent.z_values), source="latent"
    )
    solution = mkl.greedy_select(
        kernel.feature_kernels(X),
        kz,
        mkl.MklConfig(p=p if p is not None else max(config.p_grid)),
    )
    return solution, latent


@dataclass
class RunResult:
    reports: dict[str, EvaluationReport]
    labels: LabelVector | None


def select_features(
    method: str, X: ExpressionMatrix, config: RunConfig, rep: int
) -> Iterator[
    tuple[int, tuple[int, ...], mkl.MklSolution | baselines.SkmResult | baselines.SpecResult]
]:
    """Selections of one method on the preprocessed ``X`` for every p of
    ``config.p_grid``, as repetition ``rep`` of ``run_experiment`` makes them.

    Yields (p, selected column indices, the result they come from) per p.
    The greedy runs once at the largest p and SPEC scores once, so smaller p
    take prefixes of one result; sparse k-means runs once per p. Seeds derive
    from ``(config.seed, rep)``.
    """
    if method == "lkfs":
        solution, _ = run_lkfs_once(X, config, derive_seed(config.seed, rep, _SEED_AE))
        for p in config.p_grid:
            yield p, solution.selected[:p], solution
    elif method == "spec":
        spec = baselines.spec_scores(X.values)
        for p in config.p_grid:
            yield p, spec.ranking[:p], spec
    elif method == "skm":
        for p in config.p_grid:
            result = baselines.sparse_kmeans(
                X.values,
                k=config.k_grid[0],
                s=float(np.sqrt(p)),
                seed=derive_seed(config.seed, rep, _SEED_SKM, p),
                restarts=config.kmeans_restarts,
            )
            yield p, result.ranking[:p], result
    else:
        raise ConfigError(f"unknown method {method!r}")


def score_selection(
    X: ExpressionMatrix,
    selected: Sequence[int],
    labels: LabelVector | None,
    config: RunConfig,
    rep: int,
    p: int,
) -> tuple[float, tuple[ClusteringMetrics, ...]]:
    """RED of the selected columns of ``X``, then k-means on them for every k
    of ``config.k_grid``, as repetition ``rep`` of ``run_experiment`` scores
    its selection for ``p``.

    Rand index and ARI compare the clusters of the labelled samples with their
    class names; with fewer than 2 labelled samples they are None.
    """
    red = evaluation.red_score(X, selected)
    sub = X.values[:, selected]
    truth = labels.labels if labels is not None else {}
    labelled = [i for i, sid in enumerate(X.sample_ids) if sid in truth]
    classes = [truth[X.sample_ids[i]] for i in labelled]
    metrics = []
    for k in config.k_grid:
        assignment = clustering.kmeans(
            sub,
            k,
            restarts=config.kmeans_restarts,
            seed=derive_seed(config.seed, rep, _SEED_KMEANS, p, k),
        )
        rand = ari = None
        if len(labelled) >= 2:
            pred = assignment.labels[labelled]
            rand = clustering.rand_index(pred, classes)
            ari = clustering.adjusted_rand_index(pred, classes)
        metrics.append(
            ClusteringMetrics(
                k=k,
                inertia=assignment.inertia,
                rand_index=rand,
                adjusted_rand_index=ari,
                cluster_labels=tuple(int(c) for c in assignment.labels),
            )
        )
    return red, tuple(metrics)


def _run_repetition(
    rep_index: int,
    rep_seed: int,
    Xp: ExpressionMatrix,
    labels: LabelVector | None,
    config: RunConfig,
    progress: Callable[[dict], None] | None,
) -> dict[str, list[RepetitionRecord]]:
    """The records of repetition ``rep_index`` on its preprocessed resample ``Xp``.

    Raises ``DataValidationError`` when a selection holds fewer than the two
    features RED needs. Every p is at least 2, so only the greedy can stop
    that short: duplicate samples can make one kernel align with the target
    alone."""
    records: dict[str, list[RepetitionRecord]] = {m: [] for m in config.methods}
    for method in config.methods:
        for p, selected, result in select_features(method, Xp, config, rep_index):
            if len(selected) < 2:
                raise DataValidationError(
                    f"repetition {rep_index}: {method} selected {len(selected)} feature at "
                    f"p={p} (stop reason: {result.stop_reason}), and RED needs at least 2"
                )
            red, metrics = score_selection(Xp, selected, labels, config, rep_index, p)
            records[method].append(
                RepetitionRecord(
                    repetition=rep_index,
                    seed=rep_seed,
                    p=p,
                    selected_features=tuple(Xp.feature_names[j] for j in selected),
                    red=red,
                    clusterings=metrics,
                    sample_ids=Xp.sample_ids,
                    projection=evaluation.pca_2d(Xp.values[:, selected]),
                )
            )
            if progress is not None:
                progress({"repetition": rep_index, "method": method, "p": p, "red": red})
    return records


def run_experiment(
    config: RunConfig,
    X: ExpressionMatrix | None = None,
    labels: LabelVector | None = None,
    progress: Callable[[dict], None] | None = None,
) -> RunResult:
    """Run the full repeated-resample grid and aggregate per method."""
    if X is None:
        if config.input is None:
            raise ConfigError("run_experiment needs a matrix: set config.input or pass X")
        X = dataio.load_matrix(config.input, config.orientation)
    if labels is None and config.labels is not None:
        labels = dataio.load_labels(config.labels)
    if labels is None:
        warnings.warn("no ground-truth labels: Rand metrics will be null", RuntimeWarning)

    if min(config.p_grid) < 2:
        raise ConfigError(f"every p must be >= 2 to score RED, got p={min(config.p_grid)}")
    post_filter_d = int(np.floor(config.preprocess.variance_keep_fraction * X.d))
    if max(config.p_grid) > post_filter_d:
        raise ConfigError(
            f"max p={max(config.p_grid)} exceeds post-filter feature count {post_filter_d}"
        )
    subsampled_n = int(np.floor(config.preprocess.subsample_fraction * X.n))
    if max(config.k_grid) > subsampled_n:
        raise ConfigError(
            f"max k={max(config.k_grid)} exceeds the subsampled sample count {subsampled_n}"
        )
    if subsampled_n < 3:
        raise DataValidationError(
            f"a resample of {subsampled_n} samples is too small: "
            "the 2-D projection needs at least 3"
        )
    if "lkfs" in config.methods and subsampled_n < config.ae.batch_size:
        raise DataValidationError(
            f"need n >= batch_size, got n={subsampled_n}, batch_size={config.ae.batch_size}"
        )
    if "lkfs" in config.methods:
        _check_selection_fits(subsampled_n, post_filter_d, max(config.p_grid))

    per_method: dict[str, list[RepetitionRecord]] = {m: [] for m in config.methods}
    last = config.preprocess.repetitions - 1
    for rep_index in range(last + 1):
        rep_seed = derive_seed(config.seed, rep_index, _SEED_SUBSAMPLE)
        resample = dataio.subsample(X, config.preprocess.subsample_fraction, seed=rep_seed)
        if rep_index == last:
            del X  # nothing reads the loaded matrix after its last resample
        # each stage drops what the next does not read: the unscaled resample
        # once preprocessing returns (this name and preprocess_matrix's
        # argument keep it alive through variance_filter, beside the scaled
        # copy), and the preprocessed one before the next draw
        Xp = preprocess_matrix(resample, config.preprocess)
        del resample
        records = _run_repetition(rep_index, rep_seed, Xp, labels, config, progress)
        del Xp
        for method, recs in records.items():
            per_method[method].extend(recs)

    dataset_id = config.dataset_id or (Path(config.input).stem if config.input else "in-memory")
    reports = {
        method: evaluation.aggregate(recs, method=method, dataset_id=dataset_id)
        for method, recs in per_method.items()
    }
    return RunResult(reports=reports, labels=labels)


def _json_text(doc) -> str:
    """The layout of every JSON document lkfs writes: sorted keys, indent 2, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_output_dir(output_dir: str | Path, force: bool = False) -> None:
    """Raise ``DataValidationError`` unless ``output_dir`` is absent, an empty
    directory, or (with ``force``) any directory."""
    out = Path(output_dir)
    if out.exists() and not out.is_dir():
        raise DataValidationError(f"output path {out} exists and is not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise DataValidationError(
            f"output directory {out} is not empty; pass force=True (--force) to overwrite"
        )


def emit_outputs(result: RunResult, output_dir: str | Path, force: bool = False) -> list[Path]:
    """Write reports, selection lists, cluster assignments, each record's 2-D
    projection and an index with checksums. A projection row holds a label only
    when ``result.labels`` cover some sample of its resample ("" for an
    unlabelled one). Refuses a non-empty target directory unless forced
    (``check_output_dir``)."""
    check_output_dir(output_dir, force)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries: dict[Path, dict] = {}  # index entry of every file written, in write order

    def emit(path: Path, text: str) -> None:
        data = text.encode("utf-8")
        path.write_bytes(data)
        entries[path] = {
            "path": path.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }

    truth = result.labels.labels if result.labels is not None else {}
    for method, report in result.reports.items():
        emit(out / f"report_{method}.json", _json_text(report.to_json_dict()))
        for rec in report.records:
            emit(
                out / f"selected_{method}_p{rec.p}_rep{rec.repetition}.txt",
                "\n".join(rec.selected_features) + "\n",
            )
            for cm in rec.clusterings:
                lines = [f"{sid}\t{c}" for sid, c in zip(rec.sample_ids, cm.cluster_labels)]
                emit(
                    out / f"clusters_{method}_p{rec.p}_k{cm.k}_rep{rec.repetition}.txt",
                    "\n".join(lines) + "\n",
                )
            has_truth = any(sid in truth for sid in rec.sample_ids)
            first_k = rec.clusterings[0]
            proj_lines = []
            for sid, (x, y), c in zip(rec.sample_ids, rec.projection, first_k.cluster_labels):
                cells = [sid, repr(float(x)), repr(float(y))]
                if has_truth:
                    cells.append(truth.get(sid, ""))
                cells.append(str(c))
                proj_lines.append("\t".join(cells))
            emit(
                out / f"proj_{method}_p{rec.p}_rep{rec.repetition}.txt",
                "\n".join(proj_lines) + "\n",
            )

    index = {"files": [entries[p] for p in sorted(entries)]}
    index_path = out / "index.json"
    index_path.write_text(_json_text(index), encoding="utf-8")
    return [*entries, index_path]
