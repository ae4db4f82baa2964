"""Seeded k-means++ clustering and pair-counting agreement indices."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataValidationError, NumericalError

_MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    k: int
    inertia: float
    iterations_run: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size == 0:
            raise DataValidationError("empty cluster assignment")
        if labels.min() < 0 or labels.max() >= self.k:
            raise DataValidationError("cluster ids must lie in [0, k)")
        if not np.isfinite(self.inertia):
            raise NumericalError("non-finite inertia")


def _sqdist_to_centers(
    X: np.ndarray, centers: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) squared distances and the (n, k, d) scratch they were computed in.

    Pass the scratch back to reuse it. A new one takes the memory layout numpy
    gives ``X[:, None, :] - centers[None, :, :]``, so that the sums over its
    last axis round as they do on that temporary: an F-ordered X, such as a
    fancy-indexed column subset, puts the sample axis innermost.
    """
    work = np.subtract(X[:, None, :], centers[None, :, :], out=work)
    np.multiply(work, work, out=work)
    return work.sum(axis=2), work


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(p.size, p=p))`` for probabilities ``p``, without its
    validation: the same steps give the same index and advance ``rng`` alike."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ centres and the (n, k) squared distances of the points to them,
    for Lloyd's first assignment. Each column is computed once, in a scratch
    laid out as ``X``, so it has the bits of ``_sqdist_to_centers``."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.empty((k, n))
    diff = np.empty_like(X)
    for j in range(k):
        np.subtract(X, X[chosen[j]], out=diff)
        np.add.reduce(np.multiply(diff, diff, out=diff), axis=1, out=d2[j])
        if j < k - 1:
            nearest = np.minimum(nearest, d2[j]) if j else d2[0]
            total = nearest.sum()
            if total <= 0.0:
                # all remaining mass at distance zero: take the lowest unchosen index
                chosen.append(next(i for i in range(n) if i not in chosen))
            else:
                chosen.append(_draw(nearest / total, rng))
    return X[chosen], d2.T


def _update_centers(X: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int) -> list[int]:
    """Move each nonempty cluster's centre to its members' mean, as
    ``X[labels == c].mean(axis=0)`` computes it, and return the cluster sizes."""
    counts = np.bincount(labels, minlength=k).tolist()
    for c, count in enumerate(counts):
        if count:
            centers[c] = np.add.reduce(X[labels == c], axis=0) / count
    return counts


def _lloyd(
    X: np.ndarray, centers: np.ndarray, d2: np.ndarray, k: int
) -> tuple[np.ndarray, float, int]:
    """Labels, inertia and iteration count of Lloyd's iterations from ``centers``
    (updated in place), whose squared distances ``d2`` the first assignment
    takes; after ``_MAX_LLOYD_ITERATIONS`` it returns the next assignment.

    The centres an iteration ends with, repaired or not, depend only on its
    assignment. So from the first empty-cluster repair on, each assignment is
    kept before its repair, and once one repeats, the run is periodic: it
    returns the kept assignment and inertia that the cap's last iteration
    would have, with the cap as its count. An assignment that repeats the one
    just before it undid that one's repair, and returns with its own count.
    """
    n = X.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    prev_inertia = np.inf
    work = None
    seen: dict[bytes, int] = {}  # each kept assignment -> its iteration
    kept: dict[int, tuple[np.ndarray, float]] = {}  # iteration -> (assignment, inertia)
    for iteration in itertools.count(1):
        if iteration > 1:
            d2, work = _sqdist_to_centers(X, centers, work)
        new_labels = d2.argmin(axis=1)
        inertia = float(d2.min(axis=1).sum())
        if inertia > prev_inertia * (1 + 1e-9) + 1e-12:
            raise NumericalError("Lloyd iteration increased inertia")
        prev_inertia = inertia
        if iteration > _MAX_LLOYD_ITERATIONS or (new_labels == labels).all():
            return new_labels, inertia, min(iteration, _MAX_LLOYD_ITERATIONS)
        if kept and (s := seen.get(new_labels.tobytes())) is not None:
            if s == iteration - 1:
                # the assignment undoes the last repair (without one it would have
                # converged); the repair depends only on it, so every later
                # iteration would repeat both, ending where this one is
                return new_labels, inertia, iteration
            # inertia j comes from assignment j - 1: the pairs repeat from s + 1 on
            kept[iteration] = new_labels, inertia
            phase = s + 1 + (_MAX_LLOYD_ITERATIONS - s) % (iteration - s)
            return (*kept[phase], _MAX_LLOYD_ITERATIONS)
        labels = new_labels
        counts = _update_centers(X, labels, centers, k)
        empty = [c for c, count in enumerate(counts) if not count]
        if empty or kept:
            seen[labels.tobytes()] = iteration
            kept[iteration] = labels.copy(), inertia  # the repair below writes into labels
        # empty-cluster repair: move the point farthest from its centre that is
        # not alone in its cluster (k <= n, so one always has company)
        for c in empty:
            d2, work = _sqdist_to_centers(X, centers, work)
            dist_own = d2[np.arange(n), labels]
            dist_own[np.take(counts, labels) == 1] = -np.inf
            labels[int(dist_own.argmax())] = c
            counts = _update_centers(X, labels, centers, k)


def kmeans(X: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> ClusterAssignment:
    """Best-inertia clustering over ``restarts`` seeded k-means++ runs.

    Deterministic given ``seed``: restart r uses generator seeded (seed, r) and
    ties between restarts keep the earliest.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataValidationError(f"kmeans needs an (n, d) array, got shape {X.shape}")
    n = X.shape[0]
    if k > n:
        raise ConfigError(f"k={k} exceeds number of samples n={n}")
    if k < 2:
        raise ConfigError("k must be >= 2")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        result = _lloyd(X, *_kmeanspp_init(X, k, rng), k)
        if best is None or result[1] < best[1]:
            best = result
    labels, inertia, iterations = best
    return ClusterAssignment(labels=labels, k=k, inertia=inertia, iterations_run=iterations)


def _as_codes(values: np.ndarray) -> np.ndarray:
    _, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64)


def _pair_counts(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """(A, B, C, D) sample-pair counts: same/same, diff/diff, same-cluster/diff-class,
    diff-cluster/same-class, exact integers from the contingency table."""
    n = pred.size
    contingency = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(contingency, (pred, truth), 1)

    def comb2(x: np.ndarray) -> int:
        return sum(int(v) * (int(v) - 1) // 2 for v in x.reshape(-1))

    total = n * (n - 1) // 2
    a = comb2(contingency)
    same_cluster = comb2(contingency.sum(axis=1))
    same_class = comb2(contingency.sum(axis=0))
    c = same_cluster - a
    d = same_class - a
    b = total - a - c - d
    return a, b, c, d


def _validated_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape[0] != truth.shape[0]:
        raise DataValidationError(
            f"label coverage mismatch: {pred.shape[0]} predictions vs "
            f"{truth.shape[0]} ground-truth labels"
        )
    if pred.shape[0] < 2:
        raise DataValidationError("pair-counting indices need at least 2 samples")
    return _as_codes(pred), _as_codes(truth)


def rand_index(pred, truth) -> float:
    """(A + B) / (A + B + C + D) over all sample pairs, for the cluster ids
    ``pred`` and the class names (or any sortable labels) ``truth`` of the
    same samples. The pair counts depend only on the two partitions, so each
    side is coded once, by ``np.unique``, whatever its labels are."""
    p, t = _validated_pair(pred, truth)
    a, b, c, d = _pair_counts(p, t)
    return (a + b) / (a + b + c + d)


def adjusted_rand_index(pred, truth) -> float:
    """Chance-corrected Rand index from the pair-count contingency table."""
    a, b, c, d = _pair_counts(*_validated_pair(pred, truth))
    same_cluster = a + c
    same_class = a + d
    expected = same_cluster * same_class / (a + b + c + d)
    maximum = (same_cluster + same_class) / 2.0
    if maximum == expected:
        return 1.0
    return (a - expected) / (maximum - expected)
