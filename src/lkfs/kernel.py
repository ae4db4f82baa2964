"""Gaussian Gram matrices, stacked feature kernels and their Gram matrix,
Frobenius inner products and kernel alignment."""

from __future__ import annotations

import operator
from dataclasses import KW_ONLY, dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

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
    _: KW_ONLY
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


def median_bandwidth(points: np.ndarray) -> float:
    """Median of the n(n-1)/2 pairwise Euclidean distances.

    Raises ``DataValidationError`` when more than half of the point pairs
    coincide, so that the median, and with it the bandwidth, is zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < 2:
        raise DataValidationError("median_bandwidth needs at least 2 points")
    sq = _sq_triangle(pts)
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
    triangle = _gaussian(_sq_triangle(pts), -(2.0 * sigma * sigma))
    return KernelMatrix(_dense(triangle, pts.shape[0]), source=source)


@lru_cache(maxsize=8)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``, shared by every kernel of size n."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _sq_triangle(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances of the n(n-1)/2 pairs of rows of ``points``,
    in ``np.triu_indices(n, 1)`` order, written into ``out`` if given.

    A 1-D column is differenced in one pass. A 2-D ``points`` goes row by
    row, as ``points[i:] - points[i]`` squared and summed over the columns,
    with the zero distance of row i to itself dropped: numpy's summation order
    follows the shape and layout of what it sums, and this form has the bits
    of the full row-by-row distances on every layout (``points[i + 1:]``
    changes them on some). Each row's squares are written into one scratch
    laid out as ``points``, as that difference's temporary would be.
    """
    n = points.shape[0]
    if out is None:
        out = np.empty(n * (n - 1) // 2)
    if points.ndim == 1:
        iu, ju = _triu_indices(n)
        np.take(points, ju, out=out)
        out -= points[iu]
        return np.multiply(out, out, out=out)
    work = np.empty_like(points)
    lo = 0
    for i in range(n - 1):
        diff = np.subtract(points[i:], points[i], out=work[i:])
        out[lo : lo + n - 1 - i] = np.add.reduce(np.multiply(diff, diff, out=diff), axis=1)[1:]
        lo += n - 1 - i
    return out


def _gaussian(sq: np.ndarray, scales: np.ndarray | float) -> np.ndarray:
    """exp(sq / scales) in place, for the negative ``scales`` -2 sigma^2. IEEE
    division is symmetric in sign, so this gives the bits of
    exp(-sq / (2 sigma^2)) without a pass to negate."""
    sq /= scales
    return np.exp(sq, out=sq)


def _dense(triangle: np.ndarray, n: int) -> np.ndarray:
    """The symmetric unit-diagonal n x n matrix of a strict upper triangle."""
    entries = np.ones((n, n))
    iu, ju = _triu_indices(n)
    entries[iu, ju] = entries[ju, iu] = triangle
    return entries


def upper_triangle(K: KernelMatrix) -> np.ndarray:
    """Strict upper triangle of a symmetric unit-diagonal kernel, in
    ``np.triu_indices(n, 1)`` order."""
    entries = K.entries
    if not (np.array_equal(entries, entries.T) and (np.diagonal(entries) == 1.0).all()):
        raise DataValidationError(f"kernel {K.source!r} is not symmetric with unit diagonal")
    return entries[_triu_indices(K.n)]


_BLOCK_ENTRIES = 1 << 18  # entries of one block of sample pairs (2 MB of float64)
# rows of one band of the Gram matrix's upper triangle: band b holds rows
# [32 b, 32 b + 32) from the diagonal on, so the bands take d (d + 32) / 2
# entries in place of d^2
_GRAM_BAND_ROWS = 32
# Features per greedy step up to which the Gram matrix selects no slower than
# the stack, and up to which it selects about 15% slower. Measured with
# feature_kernels + greedy_select on random matrices, one BLAS thread
# (scripts/selection_sources.py): break-even at d/p of 30-40 at n = 160 and
# 40-60 at n = 400; at d/p = 50 a median 13% slower (13 runs at n = 160, 320
# and 400), at d/p of 59-60 a median 24% slower (6 runs at n = 160 and 320).
_GRAM_NO_SLOWER_PER_STEP = 30
_GRAM_SLOWER_PER_STEP = 50
# the Gram may be slower only where the stack takes this many times its bytes
_GRAM_SHRINK = 4


def selection_source(n: int, d: int, steps: int) -> tuple[str, int]:
    """("gram" or "stack", its bytes): the source a greedy of ``steps`` steps
    over d kernels of size n reads its inner products from.

    The stack of triangles holds 8 d n(n-1)/2 bytes. The Gram holds its
    banded upper triangle and one d x d product, about 12 d^2 bytes, and one
    block of pairs, at most 2 MB or 4 d^2 bytes, whichever is more. It is
    counted as 20 d^2, a whole d x d sum in place of the triangle, as when
    the rule was measured, so that every shape keeps the source it had; from
    d = 520 on that bounds what it holds. The Gram is taken where it is no
    slower and no larger, and also where it is at most about 15% slower and
    at least ``_GRAM_SHRINK`` times smaller."""
    gram_bytes, stack_bytes = 20 * d * d, 4 * d * n * (n - 1)
    if d <= _GRAM_NO_SLOWER_PER_STEP * steps:
        gram = gram_bytes <= stack_bytes
    else:
        gram = d <= _GRAM_SLOWER_PER_STEP * steps and _GRAM_SHRINK * gram_bytes <= stack_bytes
    return ("gram", gram_bytes) if gram else ("stack", stack_bytes)


@dataclass(frozen=True, eq=False)
class StackedKernels:
    """d symmetric unit-diagonal n x n kernels, read through their strict upper
    triangles in ``np.triu_indices(n, 1)`` order.

    Kernel j is the Gaussian kernel of column j of ``points`` (n, d) at
    ``bandwidths[j]`` (all ones where ``degenerate[j]``). A triangle is computed
    when it is read (``row``), so the ``(d, n(n-1)/2)`` stack of triangles is
    held only when asked for (``triangles``). Indexing, and iteration through
    it, give back dense ``KernelMatrix`` objects named ``feature:j``. The
    greedy selection reads its inner products from ``inner_products``.
    """

    bandwidths: np.ndarray
    degenerate: np.ndarray
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.bandwidths.size

    def __getitem__(self, j: int) -> KernelMatrix:
        j = range(len(self))[operator.index(j)]
        return KernelMatrix(
            _dense(self.row(j), self.n), source=f"feature:{j}", degenerate=bool(self.degenerate[j])
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

    def row(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """The strict upper triangle of kernel j, written into ``out`` if given."""
        if out is None:
            out = np.empty(self.n * (self.n - 1) // 2)
        return _gaussian(_sq_triangle(self.points[:, j], out), self._scales[j])

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
            _gaussian(block, self._scales)
            yield slice(lo, lo + fill), block
            lo += fill

    def inner_products(
        self, Kz: KernelMatrix, steps: int
    ) -> tuple[np.ndarray, np.ndarray, float, Callable[[int], np.ndarray]]:
        """(cz, ss, zz, column) with cz[a] = <K_a, Kz>, ss[a] = <K_a, K_a>,
        zz = <Kz, Kz> and ``column(j)[a]`` = <K_a, K_j>, for a greedy that reads
        ``steps`` columns against the symmetric unit-diagonal target ``Kz``.

        With unit diagonals <K_a, K_b> = n + 2 (sum over pairs of K_a K_b).
        The sums come from one of two sources, and neither wins on every
        shape; ``selection_source`` weighs them from (n, d, steps) alone:

        - the Gram matrix of sums, ``block.T @ block`` (a symmetric BLAS
          product, so exactly symmetric) and ``block.T @ target`` over the
          blocks of ``_pair_blocks``: one d^2 n(n-1)/2 product. Its upper
          triangle is held in bands of ``_GRAM_BAND_ROWS`` rows, each of
          which adds every block's product in block order, so every sum has
          the bits of a whole d x d sum; with the one d x d product that is
          about 12 d^2 bytes, and one block;
        - the stack of ``triangles``: one matrix-vector pass per column read,
          and 4 d n(n-1) bytes.

        Every kernel then takes the products of its first copy
        (``first_copies``), so twins stay exactly tied either way.
        """
        n, d, tz = self.n, len(self), upper_triangle(Kz)
        if selection_source(n, d, steps)[0] == "gram":
            h = _GRAM_BAND_ROWS
            bands = [(a, np.zeros((min(h, d - a), d - a))) for a in range(0, d, h)]
            product, cross = np.empty((d, d)), np.zeros(d)
            for pairs, block in self._pair_blocks():
                np.matmul(block.T, block, out=product)
                for a, band in bands:
                    band += product[a : a + band.shape[0], a:]
                cross += block.T @ tz[pairs]
            del product
            ss = np.concatenate([band.diagonal() for _, band in bands])

            def column(j: int) -> np.ndarray:
                # sums above j's band are column j of the bands there, the
                # rest row j of its own band: the product is exactly symmetric
                above = bands[: j // h]
                a, band = bands[j // h]
                return np.concatenate([*(b[:, j - top] for top, b in above), band[j - a]])

        else:
            stack = self.triangles()
            cross, ss = stack @ tz, np.einsum("ij,ij->i", stack, stack)

            def column(j: int) -> np.ndarray:
                return stack @ stack[j]

        first = self.first_copies

        def scaled(sums: np.ndarray) -> np.ndarray:
            return (n + 2.0 * sums)[first]

        zz = n + 2.0 * float(tz @ tz)
        return scaled(cross), scaled(ss), zz, lambda j: scaled(column(first[j]))

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
        probe = _gaussian(sq, self._scales).T
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
    row = np.empty(X.n * (X.n - 1) // 2)
    for j in np.flatnonzero(~degenerate):
        sigma = _median_distance(_sq_triangle(X.values[:, j], row))
        if sigma > 0:
            bandwidths[j] = sigma
        elif row.any():  # more than half of the sample pairs hold equal values
            degenerate[j] = True
        else:  # distances underflow to zero
            raise NumericalError(
                f"feature {j}: all pairwise distances are zero; kernel would be degenerate"
            )
    return StackedKernels(bandwidths=bandwidths, degenerate=degenerate, points=X.values)


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
