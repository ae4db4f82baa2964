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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

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
        doc = dict(doc)
        pre = doc.pop("preprocess", {})
        ae = doc.pop("ae", {})
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            preprocess=PreprocessConfig(**pre) if isinstance(pre, dict) else pre,
            ae=AeHyperparams(**ae) if isinstance(ae, dict) else ae,
            **doc,
        )

    def to_dict(self) -> dict:
        pre = self.preprocess
        ae = self.ae
        return {
            "input": self.input,
            "labels": self.labels,
            "orientation": self.orientation,
            "preprocess": {
                "variance_keep_fraction": pre.variance_keep_fraction,
                "subsample_fraction": pre.subsample_fraction,
                "repetitions": pre.repetitions,
                "seed": pre.seed,
            },
            "ae_hidden": list(self.ae_hidden),
            "ae_latent": self.ae_latent,
            "ae": {
                "learning_rate": ae.learning_rate,
                "beta_l2": ae.beta_l2,
                "epochs": ae.epochs,
                "batch_size": ae.batch_size,
                "adam_beta1": ae.adam_beta1,
                "adam_beta2": ae.adam_beta2,
                "adam_epsilon": ae.adam_epsilon,
                "seed": ae.seed,
            },
            "mkl_tolerance": self.mkl_tolerance,
            "mkl_candidate_subsample": self.mkl_candidate_subsample,
            "kernel_bandwidth_mode": self.kernel_bandwidth_mode,
            "methods": list(self.methods),
            "p_grid": list(self.p_grid),
            "k_grid": list(self.k_grid),
            "kmeans_restarts": self.kmeans_restarts,
            "skm_s": self.skm_s,
            "output_dir": self.output_dir,
            "seed": self.seed,
            "threads": self.threads,
            "write_svg": self.write_svg,
            "dataset_id": self.dataset_id,
        }


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


def _select_for_method(
    method: str,
    Xp: ExpressionMatrix,
    p: int,
    config: RunConfig,
    rep_index: int,
    lkfs_selection: tuple[int, ...] | None,
    spec: baselines.SpecResult | None,
) -> list[int]:
    if method == "lkfs":
        return list(lkfs_selection[:p])
    if method == "skm":
        s = config.skm_s if config.skm_s is not None else float(np.sqrt(p))
        result = baselines.sparse_kmeans(
            Xp,
            k=config.k_grid[0],
            s=s,
            seed=derive_seed(config.seed, rep_index, _SEED_SKM, p),
            restarts=config.kmeans_restarts,
        )
        return list(baselines.select_top_p(result, p))
    if method == "spec":
        return list(baselines.select_top_p(spec, p))
    raise ConfigError(f"unknown method {method!r}")


def _run_repetition(
    rep_index: int,
    X_raw: ExpressionMatrix,
    labels: LabelVector | None,
    config: RunConfig,
    progress: Callable[[dict], None] | None,
) -> tuple[dict[str, list[RepetitionRecord]], tuple[str, ...], tuple[str, ...] | None, dict]:
    master = config.seed
    rep_seed = derive_seed(master, rep_index, _SEED_SUBSAMPLE)
    Xs = dataio.subsample(X_raw, config.preprocess.subsample_fraction, seed=rep_seed)
    Xp = preprocess_matrix(Xs, config.preprocess)

    truth = None
    if labels is not None:
        covered = labels.covered(Xp.sample_ids)
        if covered:
            truth = labels
    # p-independent work runs once per repetition: smaller p take prefixes of
    # the max-p greedy selection and the top of one SPEC ranking
    lkfs_selection = None
    if "lkfs" in config.methods:
        solution, _ = run_lkfs_once(Xp, config, derive_seed(master, rep_index, _SEED_AE))
        lkfs_selection = solution.selected
    spec = baselines.spec_scores(Xp) if "spec" in config.methods else None

    records: dict[str, list[RepetitionRecord]] = {m: [] for m in config.methods}
    projections: dict[tuple[str, int, int], np.ndarray] = {}
    for method in config.methods:
        for p in config.p_grid:
            selected = _select_for_method(
                method, Xp, p, config, rep_index, lkfs_selection, spec
            )
            red = evaluation.red_score(Xp, selected)
            sub = Xp.values[:, selected]
            metrics = []
            for k in config.k_grid:
                assignment = clustering.kmeans(
                    sub,
                    k,
                    restarts=config.kmeans_restarts,
                    seed=derive_seed(master, rep_index, _SEED_KMEANS, p, k),
                )
                rand = ari = None
                if truth is not None:
                    mask = np.array([sid in truth.labels for sid in Xp.sample_ids])
                    if mask.sum() >= 2:
                        pred = assignment.labels[mask]
                        codes = truth.aligned_to(
                            [s for s, m in zip(Xp.sample_ids, mask) if m]
                        )
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
            records[method].append(
                RepetitionRecord(
                    repetition=rep_index,
                    seed=rep_seed,
                    p=p,
                    selected_features=tuple(Xp.feature_names[j] for j in selected),
                    red=red,
                    clusterings=tuple(metrics),
                )
            )
            projections[(method, p, rep_index)] = evaluation.pca_2d(sub)
            if progress is not None:
                progress({"repetition": rep_index, "method": method, "p": p, "red": red})
    truth_row = (
        tuple(labels.labels.get(sid, "") for sid in Xp.sample_ids) if truth is not None else None
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
    written: list[Path] = []

    def emit(path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")
        written.append(path)

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

    index = {
        "files": [
            {
                "path": p.name,
                "bytes": p.stat().st_size,
                "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
            }
            for p in sorted(written)
        ]
    }
    index_path = out / "index.json"
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(index_path)
    return written
