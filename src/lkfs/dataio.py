"""Loading, validation, preprocessing and resampling of sample-by-feature matrices.

The on-disk matrix format is UTF-8 delimited text (tab or comma, auto-detected
from the header line). The first row is a header whose first cell is ignored;
the first column holds sample identifiers. With ``orientation="cols"`` (file
rows are features) each file row fills a column, so that samples are always
rows in memory.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataValidationError

ORIENTATIONS = ("rows", "cols")  # file rows are samples, or features


def derive_seed(master: int, *tags: int) -> int:
    """Stable child seed from a master seed and integer path tags."""
    seq = np.random.SeedSequence([int(master), *[int(t) for t in tags]])
    return int(seq.generate_state(1, np.uint64)[0])


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
        # min and max propagate NaN and reach any infinity, without an n×d mask
        if values.size and not np.isfinite([values.min(), values.max()]).all():
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


@dataclass(frozen=True)
class PreprocessConfig:
    variance_keep_fraction: float = 0.5
    subsample_fraction: float = 0.8
    repetitions: int = 10

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


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(physical line number, line) for each non-blank line of a text file,
    read one line at a time with the line boundaries of ``str.splitlines``.
    Text that is not UTF-8 is a ``DataValidationError`` that names the file."""
    with path.open(encoding="utf-8") as f:
        numbered = enumerate((ln for chunk in f for ln in chunk.splitlines()), start=1)
        try:
            yield from ((no, ln) for no, ln in numbered if ln.strip())
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{path} is not UTF-8 text: {exc}") from None


def load_matrix(path: str | Path, orientation: str = "rows") -> ExpressionMatrix:
    """Parse a delimited text matrix into a validated :class:`ExpressionMatrix`.

    ``orientation`` says whether file rows are samples ("rows") or features
    ("cols"); in the latter case each file row fills a column, so samples are
    rows. The file is read twice, one line at a time, with the line
    boundaries of ``str.splitlines``: once to count the data rows, then to
    parse each into its slot of the one values array. Blank lines are skipped
    but counted, so errors name the physical line. An empty or
    whitespace-only feature name or sample id is rejected.
    """
    if orientation not in ORIENTATIONS:
        raise ConfigError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"matrix file not found: {path}")

    n_rows = sum(1 for _ in _data_lines(path)) - 1  # the header is not a data row
    row_ids: list[str] = []
    with closing(_data_lines(path)) as lines:
        header_no, header_line = next(lines, (0, ""))
        delim = _detect_delimiter(header_line)
        header = [c.strip() for c in header_line.split(delim)]
        col_names = header[1:]
        if not col_names and next(lines, None) is not None:
            raise DataValidationError(f"header declares no columns: {path}")
        col_kind, row_kind = "feature name", "sample id"
        if orientation == "cols":
            col_kind, row_kind = row_kind, col_kind
        if not all(col_names):
            raise DataValidationError(
                f"empty {col_kind} in the header at line {header_no}, "
                f"column {col_names.index('') + 2}"
            )
        if n_rows < 1:
            raise DataValidationError(f"matrix file has no data rows: {path}")
        # samples are rows: file row i fills row i, or with "cols" column i
        shape = (n_rows, len(col_names))
        values = np.empty(shape if orientation == "rows" else shape[::-1])
        slots = values if orientation == "rows" else values.T
        changed = f"matrix file changed while it was read: {path}"
        for line_no, line in lines:
            if len(row_ids) == n_rows:
                raise DataValidationError(changed)
            cells = line.split(delim)
            if len(cells) != len(header):
                raise DataValidationError(
                    f"ragged row at line {line_no}: expected {len(header)} cells, got {len(cells)}"
                )
            row_ids.append(cells[0].strip())
            if not row_ids[-1]:
                raise DataValidationError(f"empty {row_kind} at line {line_no}")
            slots[len(row_ids) - 1] = _parse_row(cells[1:], line_no, col_names)
        if len(row_ids) < n_rows:
            raise DataValidationError(changed)

    if orientation == "cols":
        return ExpressionMatrix(values, sample_ids=col_names, feature_names=row_ids)
    return ExpressionMatrix(values, sample_ids=row_ids, feature_names=col_names)


def save_matrix(X: ExpressionMatrix, path: str | Path) -> None:
    """Write a tab-separated matrix, one row at a time; floats use shortest exact repr."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.write("\t".join(["sample_id", *X.feature_names]) + "\n")
        for sid, row in zip(X.sample_ids, X.values):
            f.write("\t".join([sid, *map(repr, row.tolist())]) + "\n")


def load_labels(path: str | Path) -> LabelVector:
    """Parse a two-column (sample_id, label) file; header row optional.

    Blank lines are skipped but counted, so errors name the physical line.
    An empty or whitespace-only sample id or label is rejected.
    """
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"labels file not found: {path}")
    lines = list(_data_lines(path))
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
        if not sid:
            raise DataValidationError(f"labels line {line_no} has an empty sample id")
        if not label:
            raise DataValidationError(f"labels line {line_no} has an empty label")
        if sid in labels:
            raise DataValidationError(f"duplicate sample id {sid!r} at line {line_no}")
        labels[sid] = label
    if not labels:
        raise DataValidationError(f"labels file has no data rows: {path}")
    return LabelVector(labels)


def save_labels(labels: LabelVector, path: str | Path) -> None:
    out = ["sample_id\tlabel", *(f"{sid}\t{lab}" for sid, lab in labels.labels.items())]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def minmax_scale(X: ExpressionMatrix) -> ExpressionMatrix:
    """Rescale every column to [0, 1]; constant columns map to all zeros."""
    lo = X.values.min(axis=0)
    hi = X.values.max(axis=0)
    span = hi - lo
    constant = span == 0.0
    scaled = X.values - lo
    scaled /= np.where(constant, 1.0, span)  # in place: one n×d array, not two
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
        np.take(X.values, chosen, axis=1),  # C-ordered, so not copied again
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
