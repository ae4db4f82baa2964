"""Selection-quality metrics, the 2-D PCA projection and report aggregation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Sequence

import numpy as np

from .dataio import ExpressionMatrix
from .errors import ConfigError, DataValidationError


def red_score(X: ExpressionMatrix | np.ndarray, selected: Sequence[int]) -> float:
    """Mean absolute pairwise Pearson correlation among the selected features.

    Sums over ordered pairs i != j with the 1/(p(p-1)) normalizer, so two
    perfectly correlated features score 1.
    """
    values = X.values if isinstance(X, ExpressionMatrix) else np.asarray(X, dtype=np.float64)
    names = X.feature_names if isinstance(X, ExpressionMatrix) else None
    idx = sorted(selected)  # the score is set-valued; canonical order keeps it bit-exact
    p = len(idx)
    if p < 2:
        raise ConfigError("red_score needs at least 2 selected features")
    sub = values[:, idx]
    stds = sub.std(axis=0)
    if (stds == 0.0).any():
        j = int(np.argwhere(stds == 0.0)[0][0])
        name = names[idx[j]] if names is not None else str(idx[j])
        raise DataValidationError(f"constant feature has undefined correlation: {name!r}")
    corr = np.corrcoef(sub, rowvar=False)
    abs_sum = float(np.abs(corr).sum()) - p  # drop the unit diagonal
    return abs_sum / (p * (p - 1))


def pca_2d(X: np.ndarray) -> np.ndarray:
    """Projection onto the top-2 principal components of the centered matrix.

    Component signs are fixed so the largest-magnitude loading is positive.
    Rank-deficient input gets a zeroed second coordinate and a RuntimeWarning.
    """
    values = np.asarray(X, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 3:
        raise DataValidationError("pca_2d needs a 2-D matrix with at least 3 rows")
    centered = values - values.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    coords = np.zeros((values.shape[0], 2))
    rank_tol = max(values.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    n_comp = min(2, s.size)
    usable = sum(1 for i in range(n_comp) if s[i] > rank_tol)
    for i in range(usable):
        loading = vt[i]
        if loading[np.abs(loading).argmax()] < 0:
            loading = -loading
        coords[:, i] = centered @ loading
    if usable < 2:
        warnings.warn("input rank < 2: second principal coordinate zeroed", RuntimeWarning)
    return coords


@dataclass(frozen=True)
class ClusteringMetrics:
    k: int
    inertia: float
    rand_index: float | None
    adjusted_rand_index: float | None
    cluster_labels: tuple[int, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class RepetitionRecord:
    repetition: int
    seed: int
    p: int
    selected_features: tuple[str, ...]
    red: float
    clusterings: tuple[ClusteringMetrics, ...]
    # the resample's sample ids, in the row order of cluster_labels and projection
    sample_ids: tuple[str, ...] = field(repr=False, default=())
    projection: np.ndarray | None = field(repr=False, compare=False, default=None)  # n x 2


@dataclass(frozen=True)
class CellAggregate:
    p: int
    k: int
    n_repetitions: int
    red_mean: float
    red_sd: float
    inertia_mean: float
    inertia_sd: float
    rand_index_mean: float | None
    rand_index_sd: float | None
    adjusted_rand_index_mean: float | None
    adjusted_rand_index_sd: float | None


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    dataset_id: str
    records: tuple[RepetitionRecord, ...]
    aggregates: tuple[CellAggregate, ...]

    def to_json_dict(self) -> dict:
        doc = report_fields(self)
        doc["repetitions"] = doc.pop("records")
        return doc


def report_fields(value):
    """The JSON form of a record, or of a tuple or list of them: its dataclass
    fields, less the per-sample ones (those marked ``repr=False``), each
    written the same way."""
    if is_dataclass(value):
        return {f.name: report_fields(getattr(value, f.name)) for f in fields(value) if f.repr}
    if isinstance(value, (tuple, list)):
        return [report_fields(v) for v in value]
    return value


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def aggregate(records: Sequence[RepetitionRecord], method: str, dataset_id: str) -> EvaluationReport:
    """Per-(p, k) means and sample standard deviations over repetitions."""
    if not records:
        raise DataValidationError("aggregate needs at least one record")
    # canonical order makes the aggregation bit-identical under input permutation
    records = sorted(records, key=lambda r: (r.repetition, r.p))
    seen = set()
    k_sets = set()
    for rec in records:
        key = (rec.repetition, rec.p)
        if key in seen:
            raise DataValidationError(f"duplicate record for repetition={rec.repetition}, p={rec.p}")
        seen.add(key)
        k_sets.add(tuple(c.k for c in rec.clusterings))
    if len(k_sets) != 1:
        raise DataValidationError("records disagree on the set of k values")

    p_values = sorted({rec.p for rec in records})
    k_values = list(k_sets.pop())
    cells = []
    for p in p_values:
        per_p = [rec for rec in records if rec.p == p]
        for k in k_values:
            reds = [rec.red for rec in per_p]
            metrics = [next(c for c in rec.clusterings if c.k == k) for rec in per_p]
            inertias = [m.inertia for m in metrics]
            red_mean, red_sd = _mean_sd(reds)
            inertia_mean, inertia_sd = _mean_sd(inertias)
            if all(m.rand_index is not None for m in metrics):
                rand_mean, rand_sd = _mean_sd([m.rand_index for m in metrics])
                ari_mean, ari_sd = _mean_sd([m.adjusted_rand_index for m in metrics])
            else:
                rand_mean = rand_sd = ari_mean = ari_sd = None
            cells.append(
                CellAggregate(
                    p=p,
                    k=k,
                    n_repetitions=len(per_p),
                    red_mean=red_mean,
                    red_sd=red_sd,
                    inertia_mean=inertia_mean,
                    inertia_sd=inertia_sd,
                    rand_index_mean=rand_mean,
                    rand_index_sd=rand_sd,
                    adjusted_rand_index_mean=ari_mean,
                    adjusted_rand_index_sd=ari_sd,
                )
            )
    return EvaluationReport(
        method=method, dataset_id=dataset_id, records=tuple(records), aggregates=tuple(cells)
    )
