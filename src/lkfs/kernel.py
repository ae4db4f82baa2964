"""Gaussian Gram matrices, stacked feature kernels and their Gram matrix,
Frobenius inner products and kernel alignment."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .dataio import ExpressionMatrix
from .errors import ConfigError, DataValidationError, NumericalError


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD similarity matrix with unit diagonal.

    ``source`` records provenance: "latent", "feature:<index>", "combined" or
    "data". Kernels built from a constant column, or from a column whose median
    pairwise distance is 0, are flagged ``degenerate`` and are excluded from
    selection.
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
    sq = pairwise_sqdist(pts)[_triu_indices(pts.shape[0])]
    if sq.max() == 0.0:
        raise NumericalError("all pairwise distances are zero; kernel would be degenerate")
    sigma = float(_median_distance(sq))
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


_BLOCK_ENTRIES = 1 << 18  # entries of one block of sample pairs (2 MB of float64)


@dataclass(frozen=True, eq=False)
class StackedKernels:
    """d symmetric unit-diagonal n x n kernels, read through their strict upper
    triangles in ``np.triu_indices(n, 1)`` order.

    Kernel j is the Gaussian kernel of column j of ``points`` (n, d) at
    ``bandwidths[j]`` (all ones where ``degenerate[j]``). A triangle is computed
    when it is read (``row``), so the ``(d, n(n-1)/2)`` stack of triangles is
    held only when asked for (``triangles``). Indexing, and iteration through
    it, give back dense ``KernelMatrix`` objects named ``feature:j``. The
    greedy selection reads its inner products from ``gram`` (at most 20 d^2
    bytes) or from ``triangles`` (4 d n(n-1) bytes); ``mkl._takes_gram`` picks
    one from time and bytes.
    """

    n: int
    bandwidths: np.ndarray
    degenerate: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return self.bandwidths.size

    def __getitem__(self, j: int) -> KernelMatrix:
        j = range(len(self))[operator.index(j)]
        entries = np.ones((self.n, self.n))
        iu, ju = _triu_indices(self.n)
        entries[iu, ju] = entries[ju, iu] = self.row(j)
        return KernelMatrix(
            entries,
            bandwidth=float(self.bandwidths[j]),
            source=f"feature:{j}",
            degenerate=bool(self.degenerate[j]),
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the array the kernels are read from."""
        return self.points.nbytes

    @cached_property
    def _scales(self) -> np.ndarray:
        """-2 sigma^2 per column of ``points``; -inf for a degenerate column,
        whose finite squared differences all divide to -0, and exp(-0) = 1,
        the all-ones kernel of ``row``."""
        return np.where(self.degenerate, -np.inf, -(2.0 * self.bandwidths * self.bandwidths))

    def _gaussian(self, sq: np.ndarray, scales: np.ndarray | float) -> np.ndarray:
        """exp(sq / scales) in place for the negative ``scales``. IEEE division
        is symmetric in sign, so this gives the bits of ``gaussian_kernel``'s
        exp(-sq / (2 sigma^2)) without a pass to negate."""
        sq /= scales
        return np.exp(sq, out=sq)

    def row(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """The strict upper triangle of kernel j, written into ``out`` if given."""
        if out is None:
            out = np.empty(self.n * (self.n - 1) // 2)
        if self.degenerate[j]:
            out.fill(1.0)
            return out
        iu, ju = _triu_indices(self.n)
        col = self.points[:, j]
        np.take(col, ju, out=out)
        out -= col[iu]
        out *= out
        return self._gaussian(out, self._scales[j])

    def triangles(self) -> np.ndarray:
        """The (d, n(n-1)/2) stack of strict upper triangles, one kernel per
        row, each built in place."""
        stack = np.empty((len(self), self.n * (self.n - 1) // 2))
        for j, row in enumerate(stack):
            self.row(j, out=row)
        return stack

    def _pair_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Consecutive runs of sample pairs, as (pairs, block): row r of the
        C-ordered (len(pairs), d) ``block`` holds entry ``pairs.start + r`` of
        every triangle.

        A block covers whole sample rows i, that is the pairs (i, i+1..n-1),
        formed as ``points[i+1:] - points[i]`` in one reused buffer of about
        ``_BLOCK_ENTRIES`` entries, or of d/2 pairs when d is larger, so that
        each block's d x d product outweighs adding it up."""
        n, d = self.n, len(self)
        rows = max(_BLOCK_ENTRIES // d, d // 2, n - 1)
        buf = np.empty((min(rows, n * (n - 1) // 2), d))
        i = lo = 0
        while i < n - 1:
            fill = 0
            while i < n - 1 and fill + n - 1 - i <= buf.shape[0]:
                np.subtract(self.points[i + 1 :], self.points[i], out=buf[fill : fill + n - 1 - i])
                fill += n - 1 - i
                i += 1
            block = buf[:fill]
            block *= block
            self._gaussian(block, self._scales)
            yield slice(lo, lo + fill), block
            lo += fill

    def gram(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G, c) with G[a, b] = <K_a, K_b> and c[a] = <K_a, K> for the kernel K
        given by its strict upper triangle ``target``.

        With unit diagonals <K_a, K_b> = n + 2 sum over pairs of K_a K_b. The
        sums accumulate ``block.T @ block``, a symmetric BLAS product, so G is
        exactly symmetric, and ``block.T @ target[pairs]``, over the blocks
        of ``_pair_blocks``: memory is two d x d matrices and one block. Equal
        kernels take the row, column and entry of c of their first copy, so
        identical kernels keep exactly tied inner products.
        """
        d = len(self)
        gram, product = np.zeros((d, d)), np.empty((d, d))
        cross = np.zeros(d)
        for pairs, block in self._pair_blocks():
            gram += np.matmul(block.T, block, out=product)
            cross += block.T @ target[pairs]
        del product
        for sums in (gram, cross):
            sums *= 2.0
            sums += self.n
        first = self.first_copies
        twins = np.flatnonzero(first != np.arange(d))
        if twins.size:
            gram[twins] = gram[first[twins]]
            gram[:, twins] = gram[:, first[twins]]
            cross[twins] = cross[first[twins]]
        return gram, cross

    @cached_property
    def first_copies(self) -> np.ndarray:
        """For every kernel, the index of the first kernel equal to it bit for bit.

        Kernels are bucketed by their entries at a few pairs, computed as
        ``row`` computes them, so equal kernels share a bucket."""
        total = self.n * (self.n - 1) // 2
        pairs = np.arange(0, total, max(1, total // 64))
        iu, ju = _triu_indices(self.n)
        sq = self.points[ju[pairs]] - self.points[iu[pairs]]
        sq *= sq
        probe = self._gaussian(sq, self._scales).T
        first = np.arange(len(self))
        buckets: dict[bytes, list[int]] = {}
        for j in range(len(self)):
            bucket = buckets.setdefault(probe[j].tobytes(), [])
            if bucket:
                row = self.row(j)
                first[j] = next((i for i in bucket if np.array_equal(self.row(i), row)), j)
            if first[j] == j:
                bucket.append(j)
        return first


def _median_distance(sq: np.ndarray) -> float:
    """Median of ``np.sqrt(sq)`` for a non-negative 1-D ``sq``, bit for bit as
    ``numpy.median``, from one single-kth partition of a copy of ``sq``: the
    square root is monotonic, and the lower middle value is the largest entry
    left of the kth."""
    half = sq.size // 2
    part = np.partition(sq, half)
    upper = np.sqrt(part[half])
    if sq.size % 2:
        return upper
    return (np.sqrt(part[:half].max()) + upper) / 2.0


def feature_kernels(X: ExpressionMatrix) -> StackedKernels:
    """One Gaussian kernel per feature column, stacked.

    Kernel j is bit for bit ``gaussian_kernel(col_j, median_bandwidth(col_j))``.
    Constant columns, and columns whose median pairwise distance is 0 (one
    value in about 71% or more of the samples), have no bandwidth and yield
    flagged degenerate all-ones kernels. Only the bandwidths are computed
    here, column by column in one row of pairs; the kernels are read from the
    columns of ``X`` on demand (see ``StackedKernels``).
    """
    if X.n < 2:
        raise DataValidationError("feature kernels need at least 2 samples")
    degenerate = X.values.max(axis=0) == X.values.min(axis=0)
    bandwidths = np.full(X.d, np.nan)
    iu, ju = _triu_indices(X.n)
    row = np.empty(iu.size)
    for j in np.flatnonzero(~degenerate):
        col = X.values[:, j]
        np.take(col, ju, out=row)
        row -= col[iu]
        row *= row
        sigma = _median_distance(row)
        if sigma > 0:
            bandwidths[j] = sigma
        elif row.any():  # more than half of the sample pairs hold equal values
            degenerate[j] = True
        else:  # distances underflow to zero
            raise NumericalError(
                f"feature {j}: all pairwise distances are zero; kernel would be degenerate"
            )
    return StackedKernels(
        n=X.n,
        bandwidths=bandwidths,
        degenerate=degenerate,
        points=X.values,
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
