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
import types
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import baselines, clustering, dataio, evaluation, kernel, mkl
from .autoencoder import AeArchitecture, AeHyperparams, LatentRepresentation, encode, train
from .dataio import ExpressionMatrix, LabelVector, PreprocessConfig
from .errors import ConfigError, DataValidationError
from .evaluation import ClusteringMetrics, EvaluationReport, RepetitionRecord

METHODS = ("lkfs", "skm", "spec")

# integer tags for per-purpose seed derivation
_SEED_SUBSAMPLE = 0
_SEED_AE = 1
_SEED_KMEANS = 2
_SEED_SKM = 3


def derive_seed(master: int, *tags: int) -> int:
    """Stable child seed from a master seed and integer path tags."""
    seq = np.random.SeedSequence([int(master), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    labels: str | None = None
    orientation: str = "rows"  # "rows" = samples as rows, "cols" = features as rows
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    ae_hidden: tuple[int, ...] = (200, 100)
    ae_latent: int = 50
    ae: AeHyperparams = field(default_factory=AeHyperparams)
    mkl_tolerance: float = 1e-6
    mkl_candidate_subsample: int | None = None
    kernel_bandwidth_mode: str = "per-feature"
    methods: tuple[str, ...] = METHODS
    p_grid: tuple[int, ...] = (10, 20, 30, 40, 50)
    k_grid: tuple[int, ...] = (2, 3, 4, 5)
    kmeans_restarts: int = 10
    skm_s: float | None = None  # default sqrt(p)
    output_dir: str = "lkfs-out"
    seed: int = 0
    threads: int = 1
    write_svg: bool = False
    dataset_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(self, "k_grid", tuple(int(k) for k in self.k_grid))
        object.__setattr__(self, "ae_hidden", tuple(int(h) for h in self.ae_hidden))
        if not self.p_grid or not self.k_grid:
            raise ConfigError("p_grid and k_grid must be non-empty")
        if any(k < 2 for k in self.k_grid):
            raise ConfigError("every k must be >= 2")
        if any(p < 1 for p in self.p_grid):
            raise ConfigError("every p must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}; choose from {METHODS}")
        if self.orientation not in ("rows", "cols"):
            raise ConfigError("orientation must be 'rows' or 'cols'")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

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


def _train_latent(
    X: ExpressionMatrix, config: RunConfig, seed: int
) -> LatentRepresentation:
    arch = AeArchitecture.default(X.d, hidden=config.ae_hidden, latent_dim=config.ae_latent)
    model = train(X, arch, dataclasses.replace(config.ae, seed=seed))
    return encode(model, X)


def run_lkfs_once(
    X: ExpressionMatrix, config: RunConfig, seed: int, p: int | None = None
) -> tuple[mkl.MklSolution, LatentRepresentation]:
    """Train the autoencoder, build the latent target kernel and greedily select.

    ``X`` is expected to be preprocessed already. ``seed`` seeds both the
    autoencoder and the candidate subsample, and ``p`` defaults to
    ``max(config.p_grid)``. For one seed, the selection at a smaller p is a
    prefix of the selection at a larger one.
    """
    latent = _train_latent(X, config, seed)
    kz = kernel.gaussian_kernel(
        latent.z_values, kernel.median_bandwidth(latent.z_values), source="latent"
    )
    candidates = kernel.feature_kernels(X, bandwidth_mode=config.kernel_bandwidth_mode)
    solution = mkl.greedy_select(
        candidates,
        kz,
        mkl.MklConfig(
            p=p if p is not None else max(config.p_grid),
            improvement_tolerance=config.mkl_tolerance,
            candidate_subsample=config.mkl_candidate_subsample,
            seed=seed,
        ),
    )
    return solution, latent


@dataclass
class RunResult:
    config: RunConfig
    reports: dict[str, EvaluationReport]
    sample_ids_by_rep: dict[int, tuple[str, ...]]
    true_labels_by_rep: dict[int, tuple[str, ...] | None]
    projections: dict[tuple[str, int, int], np.ndarray]  # (method, p, rep) -> n x 2


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
        spec = baselines.spec_scores(X)
        for p in config.p_grid:
            yield p, baselines.select_top_p(spec, p), spec
    elif method == "skm":
        for p in config.p_grid:
            result = baselines.sparse_kmeans(
                X,
                k=config.k_grid[0],
                s=config.skm_s if config.skm_s is not None else float(np.sqrt(p)),
                seed=derive_seed(config.seed, rep, _SEED_SKM, p),
                restarts=config.kmeans_restarts,
            )
            yield p, baselines.select_top_p(result, p), result
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
    labels; with fewer than 2 labelled samples they are None.
    """
    red = evaluation.red_score(X, selected)
    sub = X.values[:, selected]
    labelled = labels.covered(X.sample_ids) if labels is not None else []
    codes = mask = None
    if len(labelled) >= 2:
        codes = labels.aligned_to(labelled)
        mask = np.array([sid in labels.labels for sid in X.sample_ids])
    metrics = []
    for k in config.k_grid:
        assignment = clustering.kmeans(
            sub,
            k,
            restarts=config.kmeans_restarts,
            seed=derive_seed(config.seed, rep, _SEED_KMEANS, p, k),
        )
        rand = ari = None
        if codes is not None:
            pred = assignment.labels[mask]
            rand = clustering.rand_index(pred, codes)
            ari = clustering.adjusted_rand_index(pred, codes)
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
    X_raw: ExpressionMatrix,
    labels: LabelVector | None,
    config: RunConfig,
    progress: Callable[[dict], None] | None,
) -> tuple[dict[str, list[RepetitionRecord]], tuple[str, ...], tuple[str, ...] | None, dict]:
    rep_seed = derive_seed(config.seed, rep_index, _SEED_SUBSAMPLE)
    Xs = dataio.subsample(X_raw, config.preprocess.subsample_fraction, seed=rep_seed)
    Xp = preprocess_matrix(Xs, config.preprocess)

    records: dict[str, list[RepetitionRecord]] = {m: [] for m in config.methods}
    projections: dict[tuple[str, int, int], np.ndarray] = {}
    for method in config.methods:
        for p, selected, _ in select_features(method, Xp, config, rep_index):
            red, metrics = score_selection(Xp, selected, labels, config, rep_index, p)
            records[method].append(
                RepetitionRecord(
                    repetition=rep_index,
                    seed=rep_seed,
                    p=p,
                    selected_features=tuple(Xp.feature_names[j] for j in selected),
                    red=red,
                    clusterings=metrics,
                )
            )
            projections[(method, p, rep_index)] = evaluation.pca_2d(Xp.values[:, selected])
            if progress is not None:
                progress({"repetition": rep_index, "method": method, "p": p, "red": red})
    truth_row = (
        tuple(labels.labels.get(sid, "") for sid in Xp.sample_ids)
        if labels is not None and labels.covered(Xp.sample_ids)
        else None
    )
    return records, Xp.sample_ids, truth_row, projections


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
        orientation = "samples-as-rows" if config.orientation == "rows" else "features-as-rows"
        X = dataio.load_matrix(config.input, orientation)
    if labels is None and config.labels is not None:
        labels = dataio.load_labels(config.labels)
    if labels is None:
        warnings.warn("no ground-truth labels: Rand metrics will be null", RuntimeWarning)

    post_filter_d = int(np.floor(config.preprocess.variance_keep_fraction * X.d))
    if max(config.p_grid) > post_filter_d:
        raise ConfigError(
            f"max p={max(config.p_grid)} exceeds post-filter feature count {post_filter_d}"
        )
    if max(config.k_grid) > int(np.floor(config.preprocess.subsample_fraction * X.n)):
        raise ConfigError("max k exceeds the subsampled sample count")

    reps = range(config.preprocess.repetitions)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(
                pool.map(lambda r: _run_repetition(r, X, labels, config, progress), reps)
            )
    else:
        results = [_run_repetition(r, X, labels, config, progress) for r in reps]

    per_method: dict[str, list[RepetitionRecord]] = {m: [] for m in config.methods}
    sample_ids_by_rep: dict[int, tuple[str, ...]] = {}
    true_labels_by_rep: dict[int, tuple[str, ...] | None] = {}
    projections: dict[tuple[str, int, int], np.ndarray] = {}
    for rep_index, (records, sids, truth_row, projs) in enumerate(results):
        for method, recs in records.items():
            per_method[method].extend(recs)
        sample_ids_by_rep[rep_index] = sids
        true_labels_by_rep[rep_index] = truth_row
        projections.update(projs)

    dataset_id = config.dataset_id or (Path(config.input).stem if config.input else "in-memory")
    reports = {
        method: evaluation.aggregate(recs, method=method, dataset_id=dataset_id)
        for method, recs in per_method.items()
    }
    return RunResult(
        config=config,
        reports=reports,
        sample_ids_by_rep=sample_ids_by_rep,
        true_labels_by_rep=true_labels_by_rep,
        projections=projections,
    )


def _report_json(report: EvaluationReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _projection_svg(coords: np.ndarray, cluster_ids: Sequence[int]) -> str:
    span = coords.max(axis=0) - coords.min(axis=0)
    span[span == 0] = 1.0
    unit = (coords - coords.min(axis=0)) / span
    points = []
    for (x, y), c in zip(unit, cluster_ids):
        color = _SVG_COLORS[int(c) % len(_SVG_COLORS)]
        points.append(
            f'<circle cx="{20 + 360 * x:.1f}" cy="{380 - 360 * y:.1f}" r="3" fill="{color}"/>'
        )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400">\n'
        + "\n".join(points)
        + "\n</svg>\n"
    )


def emit_outputs(result: RunResult, output_dir: str | Path, force: bool = False) -> list[Path]:
    """Write reports, selection lists, cluster assignments, projections and an
    index with checksums. Refuses a non-empty target directory unless forced."""
    out = Path(output_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataValidationError(
            f"output directory {out} is not empty; pass force=True (--force) to overwrite"
        )
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

    for method, report in result.reports.items():
        emit(out / f"report_{method}.json", _report_json(report))
        for rec in report.records:
            emit(
                out / f"selected_{method}_p{rec.p}_rep{rec.repetition}.txt",
                "\n".join(rec.selected_features) + "\n",
            )
            sids = result.sample_ids_by_rep[rec.repetition]
            for cm in rec.clusterings:
                lines = [f"{sid}\t{c}" for sid, c in zip(sids, cm.cluster_labels)]
                emit(
                    out / f"clusters_{method}_p{rec.p}_k{cm.k}_rep{rec.repetition}.txt",
                    "\n".join(lines) + "\n",
                )
            coords = result.projections[(method, rec.p, rec.repetition)]
            truth = result.true_labels_by_rep[rec.repetition]
            first_k = rec.clusterings[0]
            proj_lines = []
            for i, sid in enumerate(sids):
                cells = [sid, repr(float(coords[i, 0])), repr(float(coords[i, 1]))]
                if truth is not None:
                    cells.append(truth[i])
                cells.append(str(first_k.cluster_labels[i]))
                proj_lines.append("\t".join(cells))
            emit(
                out / f"proj_{method}_p{rec.p}_rep{rec.repetition}.txt",
                "\n".join(proj_lines) + "\n",
            )
            if result.config.write_svg:
                emit(
                    out / f"proj_{method}_p{rec.p}_rep{rec.repetition}.svg",
                    _projection_svg(coords, first_k.cluster_labels),
                )

    index = {"files": [entries[p] for p in sorted(entries)]}
    index_path = out / "index.json"
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [*entries, index_path]
