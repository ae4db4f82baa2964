"""Gaussian Gram matrices, stacked feature kernels, Frobenius inner products and
kernel alignment."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .dataio import ExpressionMatrix
from .errors import ConfigError, DataValidationError, NumericalError

BANDWIDTH_MODES = ("per-feature", "global")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD similarity matrix with unit diagonal.

    ``source`` records provenance: "latent", "feature:<index>", "combined" or
    "data". Kernels built from a constant column are flagged ``degenerate`` and
    are excluded from selection.
    """

    entries: np.ndarray
    bandwidth: float
    source: str = "data"
    degenerate: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DataValidationError(f"kernel must be square, got shape {entries.shape}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def pairwise_sqdist(points: np.ndarray) -> np.ndarray:
    """Exact n x n squared Euclidean distances (row-by-row differences).

    Each unordered pair is computed once and mirrored: ``(a - b)**2`` and
    ``(b - a)**2`` are the same float, so the result is exactly symmetric.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        diff = pts[i:] - pts[i]
        row = (diff * diff).sum(axis=1)
        out[i, i:] = row
        out[i:, i] = row
    return out


def median_bandwidth(points: np.ndarray) -> float:
    """Median of the n(n-1)/2 pairwise Euclidean distances.

    Raises ``DataValidationError`` when more than half of the point pairs
    coincide, so that the median, and with it the bandwidth, is zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise DataValidationError("median_bandwidth needs at least 2 points")
    dists = np.sqrt(pairwise_sqdist(pts)[np.triu_indices(pts.shape[0], 1)])
    if dists.max() == 0.0:
        raise NumericalError("all pairwise distances are zero; kernel would be degenerate")
    sigma = float(np.median(dists))
    if sigma == 0.0:
        raise DataValidationError(
            "median pairwise distance is 0 (more than half of the point pairs coincide)"
        )
    return sigma


def gaussian_kernel(points: np.ndarray, sigma: float, source: str = "data") -> KernelMatrix:
    """K[i][j] = exp(-||x_i - x_j||^2 / (2 sigma^2)); symmetric, unit diagonal."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise DataValidationError("gaussian_kernel input contains non-finite values")
    entries = np.exp(-pairwise_sqdist(pts) / (2.0 * sigma * sigma))
    np.fill_diagonal(entries, 1.0)
    return KernelMatrix(entries, bandwidth=float(sigma), source=source)


@lru_cache(maxsize=8)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``, shared by every kernel of size n."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def upper_triangle(K: KernelMatrix) -> np.ndarray:
    """Strict upper triangle of a symmetric unit-diagonal kernel, in
    ``np.triu_indices(n, 1)`` order."""
    entries = K.entries
    if not (np.array_equal(entries, entries.T) and (np.diagonal(entries) == 1.0).all()):
        raise DataValidationError(f"kernel {K.source!r} is not symmetric with unit diagonal")
    return entries[_triu_indices(K.n)]


@dataclass(frozen=True, eq=False)
class StackedKernels:
    """d symmetric unit-diagonal n x n kernels, one strict upper triangle per row.

    Row j of ``upper`` holds K_j[i, l] for i < l in ``np.triu_indices(n, 1)``
    order. With unit diagonals <K_a, K_b> = n + 2 upper[a] . upper[b], so the
    stack takes 4 d n (n - 1) bytes instead of 8 d n^2. Indexing and iteration
    give back dense ``KernelMatrix`` objects.
    """

    upper: np.ndarray
    n: int
    bandwidths: np.ndarray
    degenerate: np.ndarray
    sources: tuple[str, ...]

    @classmethod
    def from_kernels(cls, kernels: Sequence[KernelMatrix]) -> StackedKernels:
        if not kernels:
            raise DataValidationError("no kernels to stack")
        n = kernels[0].n
        if any(K.n != n for K in kernels):
            raise DataValidationError("stacked kernels must share dimensions")
        return cls(
            upper=np.array([upper_triangle(K) for K in kernels]),
            n=n,
            bandwidths=np.array([K.bandwidth for K in kernels], dtype=np.float64),
            degenerate=np.array([K.degenerate for K in kernels], dtype=bool),
            sources=tuple(K.source for K in kernels),
        )

    def __len__(self) -> int:
        return self.upper.shape[0]

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        entries = np.ones((self.n, self.n))
        iu, ju = _triu_indices(self.n)
        entries[iu, ju] = entries[ju, iu] = self.upper[j]
        return KernelMatrix(
            entries,
            bandwidth=float(self.bandwidths[j]),
            source=self.sources[j],
            degenerate=bool(self.degenerate[j]),
        )

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    @property
    def nbytes(self) -> int:
        return self.upper.nbytes

    @cached_property
    def first_copies(self) -> np.ndarray:
        """For every row, the index of the first row equal to it bit for bit."""
        probe = np.ascontiguousarray(self.upper[:, :: max(1, self.upper.shape[1] // 64)])
        first = np.arange(len(self))
        buckets: dict[bytes, list[int]] = {}
        for j in range(len(self)):
            bucket = buckets.setdefault(probe[j].tobytes(), [])
            first[j] = next((i for i in bucket if np.array_equal(self.upper[i], self.upper[j])), j)
            if first[j] == j:
                bucket.append(j)
        return first

    def inner(self, upper: np.ndarray) -> np.ndarray:
        """<K_j, K> for every row j, K given by its strict upper triangle.

        A BLAS matrix-vector product may round equal rows differently
        depending on where they sit, so equal rows copy the value of their
        first copy: identical kernels keep exactly tied inner products.
        """
        return (self.n + 2.0 * (self.upper @ upper))[self.first_copies]

    def squared_norms(self) -> np.ndarray:
        """<K_j, K_j> for every row j."""
        return (self.n + 2.0 * np.einsum("ij,ij->i", self.upper, self.upper))[self.first_copies]


def _median_distance(sq: np.ndarray) -> float:
    """Median of ``np.sqrt(sq)`` for a non-negative 1-D ``sq``, bit for bit as
    ``np.median``, from one single-kth partition of a copy of ``sq``: the square
    root is monotonic, and the lower middle value is the largest entry left of
    the kth."""
    half = sq.size // 2
    part = np.partition(sq, half)
    upper = np.sqrt(part[half])
    if sq.size % 2:
        return upper
    return (np.sqrt(part[:half].max()) + upper) / 2.0


def feature_kernels(X: ExpressionMatrix, bandwidth_mode: str = "per-feature") -> StackedKernels:
    """One Gaussian kernel per feature column, stacked.

    Row j is bit for bit the upper triangle of
    ``gaussian_kernel(col_j, median_bandwidth(col_j))`` with the default
    ``bandwidth_mode="per-feature"``; "global" applies a single bandwidth
    computed on the full matrix. Constant columns yield flagged degenerate
    all-ones kernels. Each kernel is built in place in its row of the stack,
    so the build needs only a few rows of pairs on top of the stack.
    """
    if bandwidth_mode not in BANDWIDTH_MODES:
        raise ConfigError(f"bandwidth_mode must be one of {BANDWIDTH_MODES}")
    if X.n < 2:
        raise DataValidationError("feature kernels need at least 2 samples")
    global_sigma = median_bandwidth(X.values) if bandwidth_mode == "global" else None
    degenerate = X.values.max(axis=0) == X.values.min(axis=0)
    iu, ju = _triu_indices(X.n)
    upper = np.empty((X.d, iu.size))
    bandwidths = np.full(X.d, np.nan)
    for j, row in enumerate(upper):
        if degenerate[j]:
            row.fill(1.0)  # exp(-0) at any bandwidth
            continue
        col = X.values[:, j]
        np.subtract(col[ju], col[iu], out=row)
        row *= row
        sigma = _median_distance(row) if global_sigma is None else global_sigma
        if sigma <= 0:
            if not row.any():  # distances underflow to zero
                raise NumericalError(
                    f"feature {j}: all pairwise distances are zero; kernel would be degenerate"
                )
            raise DataValidationError(
                f"feature {X.feature_names[j]!r}: median pairwise distance is 0 "
                "(more than half of the sample pairs hold equal values)"
            )
        bandwidths[j] = sigma
        np.negative(row, out=row)
        row /= 2.0 * sigma * sigma
        np.exp(row, out=row)
    return StackedKernels(
        upper=upper,
        n=X.n,
        bandwidths=bandwidths,
        degenerate=degenerate,
        sources=tuple(f"feature:{j}" for j in range(X.d)),
    )


def frobenius_inner(K1: KernelMatrix | np.ndarray, K2: KernelMatrix | np.ndarray) -> float:
    """Entrywise inner product sum_ij K1[i][j] * K2[i][j]."""
    a = K1.entries if isinstance(K1, KernelMatrix) else np.asarray(K1, dtype=np.float64)
    b = K2.entries if isinstance(K2, KernelMatrix) else np.asarray(K2, dtype=np.float64)
    if a.shape != b.shape:
        raise DataValidationError(f"kernel dimension mismatch: {a.shape} vs {b.shape}")
    return float((a * b).sum())


def alignment(K1: KernelMatrix | np.ndarray, K2: KernelMatrix | np.ndarray) -> float:
    """Normalized Frobenius inner product <K1,K2> / sqrt(<K1,K1><K2,K2>)."""
    num = frobenius_inner(K1, K2)
    den = frobenius_inner(K1, K1) * frobenius_inner(K2, K2)
    if den <= 0.0:
        raise NumericalError("alignment undefined: a kernel has zero Frobenius norm")
    return num / float(np.sqrt(den))
