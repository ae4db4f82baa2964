"""Loading, validation, preprocessing and resampling of sample-by-feature matrices.

The on-disk matrix format is UTF-8 delimited text (tab or comma, auto-detected
from the header line). The first row is a header whose first cell is ignored;
the first column holds sample identifiers. With ``orientation="features-as-rows"``
the file is transposed on load so that samples are always rows in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataValidationError

ORIENTATIONS = ("samples-as-rows", "features-as-rows")


@dataclass(frozen=True)
class ExpressionMatrix:
    """An n-samples by d-features matrix of finite reals with identifiers."""

    values: np.ndarray
    sample_ids: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        # contiguous layout keeps downstream linear algebra bit-reproducible
        # regardless of how the caller sliced the input
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if values.ndim != 2:
            raise DataValidationError(f"matrix must be 2-D, got shape {values.shape}")
        if values.shape[0] != len(self.sample_ids):
            raise DataValidationError(
                f"{values.shape[0]} rows but {len(self.sample_ids)} sample ids"
            )
        if values.shape[1] != len(self.feature_names):
            raise DataValidationError(
                f"{values.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise DataValidationError(
                f"non-finite value at sample {self.sample_ids[i]!r}, "
                f"feature {self.feature_names[j]!r}"
            )
        _check_unique(self.sample_ids, "sample id")
        _check_unique(self.feature_names, "feature name")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Categorical class label per sample id (e.g. tumor subtype)."""

    labels: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        if not self.labels:
            raise DataValidationError("label vector is empty")

    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels.values())))

    def aligned_to(self, sample_ids: Sequence[str]) -> np.ndarray:
        """Integer class codes for ``sample_ids``; raises if any id is unlabeled."""
        missing = [s for s in sample_ids if s not in self.labels]
        if missing:
            raise DataValidationError(f"no label for sample(s): {missing[:5]}")
        code = {c: i for i, c in enumerate(self.classes())}
        return np.array([code[self.labels[s]] for s in sample_ids], dtype=np.int64)

    def covered(self, sample_ids: Sequence[str]) -> list[str]:
        """Subset of ``sample_ids`` that carry a label, in input order."""
        return [s for s in sample_ids if s in self.labels]


@dataclass(frozen=True)
class PreprocessConfig:
    variance_keep_fraction: float = 0.5
    subsample_fraction: float = 0.8
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.variance_keep_fraction <= 1.0:
            raise ConfigError("variance_keep_fraction must be in (0, 1]")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError("subsample_fraction must be in (0, 1]")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")


def _check_unique(names: Iterable[str], what: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise DataValidationError(f"duplicate {what}: {name!r}")
        seen.add(name)


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _parse_cell(raw: str, line_no: int, col_name: str) -> float:
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        raise DataValidationError(
            f"non-numeric cell {text!r} at line {line_no}, column {col_name!r}"
        ) from None
    if not math.isfinite(value):
        raise DataValidationError(
            f"non-finite cell {text!r} at line {line_no}, column {col_name!r}"
        )
    return value


def _parse_row(cells: list[str], line_no: int, col_names: Sequence[str]) -> np.ndarray:
    """Convert one row's value cells at once.

    A row that fails to convert, or that holds a non-finite value, is parsed
    again cell by cell, which names the bad cell in the error.
    """
    try:
        row = np.array(cells, dtype=np.float64)  # same values as float() on each cell
        if np.isfinite(row).all():
            return row
    except ValueError:
        pass
    return np.array(
        [_parse_cell(c, line_no, col_names[j]) for j, c in enumerate(cells)], dtype=np.float64
    )


def load_matrix(path: str | Path, orientation: str = "samples-as-rows") -> ExpressionMatrix:
    """Parse a delimited text matrix into a validated :class:`ExpressionMatrix`.

    ``orientation`` selects whether file rows are samples or features; in the
    latter case the result is transposed so samples are rows. The file is read
    one line at a time, with the line boundaries of ``str.splitlines``; blank
    lines are skipped but counted, so errors name the physical line.
    """
    if orientation not in ORIENTATIONS:
        raise ConfigError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"matrix file not found: {path}")

    row_ids: list[str] = []
    rows: list[np.ndarray] = []
    with path.open(encoding="utf-8") as f:
        numbered = enumerate((ln for chunk in f for ln in chunk.splitlines()), start=1)
        lines = ((no, ln) for no, ln in numbered if ln.strip())
        _, header_line = next(lines, (0, ""))
        delim = _detect_delimiter(header_line)
        header = [c.strip() for c in header_line.split(delim)]
        col_names = header[1:]
        if not col_names and next(lines, None) is not None:
            raise DataValidationError(f"header declares no columns: {path}")
        for line_no, line in lines:
            cells = line.split(delim)
            if len(cells) != len(header):
                raise DataValidationError(
                    f"ragged row at line {line_no}: expected {len(header)} cells, got {len(cells)}"
                )
            row_ids.append(cells[0].strip())
            rows.append(_parse_row(cells[1:], line_no, col_names))
    if not rows:
        raise DataValidationError(f"matrix file has no data rows: {path}")

    values = np.array(rows, dtype=np.float64)
    del rows  # free the row copies before validation, or the transpose, copies again
    if orientation == "features-as-rows":
        return ExpressionMatrix(values.T, sample_ids=col_names, feature_names=row_ids)
    return ExpressionMatrix(values, sample_ids=row_ids, feature_names=col_names)


def save_matrix(X: ExpressionMatrix, path: str | Path, delimiter: str = "\t") -> None:
    """Write a matrix in the on-disk format, one row at a time; floats use shortest exact repr."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(delimiter.join(["sample_id", *X.feature_names]) + "\n")
        for sid, row in zip(X.sample_ids, X.values):
            f.write(delimiter.join([sid, *map(repr, row.tolist())]) + "\n")


def load_labels(path: str | Path) -> LabelVector:
    """Parse a two-column (sample_id, label) file; header row optional.

    Blank lines are skipped but counted, so errors name the physical line.
    """
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"labels file not found: {path}")
    text = path.read_text(encoding="utf-8")
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DataValidationError(f"labels file is empty: {path}")
    delim = _detect_delimiter(lines[0][1])

    first = [c.strip() for c in lines[0][1].split(delim)]
    start = 1 if len(first) >= 2 and first[1] == "label" else 0
    labels: dict[str, str] = {}
    for line_no, line in lines[start:]:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) < 2:
            raise DataValidationError(f"labels line {line_no} has fewer than two columns")
        sid, label = cells[0], cells[1]
        if sid in labels:
            raise DataValidationError(f"duplicate sample id {sid!r} at line {line_no}")
        labels[sid] = label
    if not labels:
        raise DataValidationError(f"labels file has no data rows: {path}")
    return LabelVector(labels)


def save_labels(labels: LabelVector, path: str | Path, delimiter: str = "\t") -> None:
    path = Path(path)
    out = [delimiter.join(["sample_id", "label"])]
    out.extend(delimiter.join([sid, lab]) for sid, lab in labels.labels.items())
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def minmax_scale(X: ExpressionMatrix) -> ExpressionMatrix:
    """Rescale every column to [0, 1]; constant columns map to all zeros."""
    lo = X.values.min(axis=0)
    hi = X.values.max(axis=0)
    span = hi - lo
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = (X.values - lo) / safe_span
    scaled[:, constant] = 0.0
    return ExpressionMatrix(scaled, X.sample_ids, X.feature_names)


def variance_filter(X: ExpressionMatrix, keep_fraction: float) -> ExpressionMatrix:
    """Keep the ``floor(keep_fraction * d)`` highest-variance columns.

    Ties break by ascending original column index; the surviving columns keep
    their original order. Variance is the unbiased sample variance.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError("keep_fraction must be in (0, 1]")
    keep = int(math.floor(keep_fraction * X.d))
    if keep < 1:
        raise DataValidationError(
            f"variance filter would keep 0 of {X.d} columns (keep_fraction={keep_fraction})"
        )
    if keep == X.d:
        return X
    variances = X.values.var(axis=0, ddof=1)
    ranked = np.argsort(-variances, kind="stable")  # ties -> lowest original index
    chosen = np.sort(ranked[:keep])
    return ExpressionMatrix(
        X.values[:, chosen],
        X.sample_ids,
        tuple(X.feature_names[j] for j in chosen),
    )


def subsample(X: ExpressionMatrix, fraction: float, seed: int) -> ExpressionMatrix:
    """Draw ``floor(fraction * n)`` rows uniformly without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must be in (0, 1]")
    m = int(math.floor(fraction * X.n))
    if m < 2:
        raise DataValidationError(f"subsample of {X.n} rows at fraction {fraction} keeps < 2 rows")
    rng = np.random.default_rng(seed)
    rows = rng.choice(X.n, size=m, replace=False)
    return ExpressionMatrix(
        X.values[rows],
        tuple(X.sample_ids[i] for i in rows),
        X.feature_names,
    )


def generate_synthetic(
    n: int, d: int, informative: int, separation: float, seed: int
) -> tuple[ExpressionMatrix, LabelVector]:
    """Two balanced Gaussian classes whose means differ by ``separation`` on the
    first ``informative`` features and coincide elsewhere; unit noise variance.
    """
    if informative > d or informative < 0:
        raise ConfigError("informative must be in [0, d]")
    if n % 2 != 0 or n < 2:
        raise ConfigError("n must be even and >= 2")
    if separation <= 0:
        raise ConfigError("separation must be > 0")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d))
    half = n // 2
    values[:half, :informative] -= separation / 2.0
    values[half:, :informative] += separation / 2.0
    sample_ids = tuple(f"s{i:04d}" for i in range(n))
    feature_names = tuple(f"f{j:04d}" for j in range(d))
    labels = LabelVector(
        {sid: ("class0" if i < half else "class1") for i, sid in enumerate(sample_ids)}
    )
    return ExpressionMatrix(values, sample_ids, feature_names), labels
