"""Seeded k-means++ clustering and pair-counting agreement indices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at distance zero: take the lowest unchosen index
            unchosen = [i for i in range(n) if i not in set(chosen)]
            nxt = unchosen[0]
        else:
            nxt = _draw(d2 / total, rng)
        chosen.append(nxt)
        d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    return X[chosen]


def _lloyd(X: np.ndarray, centers: np.ndarray, k: int) -> tuple[np.ndarray, float, int]:
    n = X.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    prev_inertia = np.inf
    work = None
    repaired = None  # the assignment the last iteration's empty-cluster repair changed
    for iteration in range(1, _MAX_LLOYD_ITERATIONS + 1):
        d2, work = _sqdist_to_centers(X, centers, work)
        new_labels = d2.argmin(axis=1)
        inertia = float(d2.min(axis=1).sum())
        if inertia > prev_inertia * (1 + 1e-9) + 1e-12:
            raise NumericalError("Lloyd iteration increased inertia")
        prev_inertia = inertia
        if (new_labels == labels).all():
            return labels, inertia, iteration
        if repaired is not None and (new_labels == repaired).all():
            # the assignment undoes the repair; the repair depends only on it,
            # so every later iteration would repeat both, ending where this one is
            return new_labels, inertia, iteration
        labels = new_labels
        counts = np.bincount(labels, minlength=k).tolist()
        for c, count in enumerate(counts):
            if count:
                # what X[labels == c].mean(axis=0) computes
                centers[c] = np.add.reduce(X[labels == c], axis=0) / count
        repaired = None if min(counts) else labels.copy()
        if repaired is None:
            continue
        # empty-cluster repair: move the point farthest from its centroid
        for c in range(k):
            if (labels == c).any():
                continue
            dist_own = _sqdist_to_centers(X, centers, work)[0][np.arange(n), labels]
            counts = np.bincount(labels, minlength=k)
            movable = counts[labels] > 1
            if not movable.any():
                continue
            dist_own[~movable] = -np.inf
            far = int(dist_own.argmax())
            labels[far] = c
            centers[c] = X[far]
            for cc in np.unique(labels):
                centers[cc] = X[labels == cc].mean(axis=0)
    d2, _ = _sqdist_to_centers(X, centers, work)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia, _MAX_LLOYD_ITERATIONS


def kmeans(X: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> ClusterAssignment:
    """Best-inertia clustering over ``restarts`` seeded k-means++ runs.

    Deterministic given ``seed``: restart r uses generator seeded (seed, r) and
    ties between restarts keep the earliest.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if k > n:
        raise ConfigError(f"k={k} exceeds number of samples n={n}")
    if k < 2:
        raise ConfigError("k must be >= 2")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    best: tuple[float, int, np.ndarray, int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _kmeanspp_init(X, k, rng)
        labels, inertia, iterations = _lloyd(X, centers, k)
        if best is None or inertia < best[0]:
            best = (inertia, r, labels, iterations)
    inertia, _, labels, iterations = best
    return ClusterAssignment(labels=labels, k=k, inertia=inertia, iterations_run=iterations)


def _as_codes(values: Sequence | np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    _, codes = np.unique(arr, return_inverse=True)
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
    pred_labels = pred.labels if isinstance(pred, ClusterAssignment) else np.asarray(pred)
    truth_arr = np.asarray(truth)
    if pred_labels.shape[0] != truth_arr.shape[0]:
        raise DataValidationError(
            f"label coverage mismatch: {pred_labels.shape[0]} predictions vs "
            f"{truth_arr.shape[0]} ground-truth labels"
        )
    if pred_labels.shape[0] < 2:
        raise DataValidationError("pair-counting indices need at least 2 samples")
    return _as_codes(pred_labels), _as_codes(truth_arr)


def rand_index(pred, truth) -> float:
    """(A + B) / (A + B + C + D) over all sample pairs."""
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
