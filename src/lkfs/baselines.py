"""Benchmark unsupervised selectors: sparse k-means and spectral feature scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .dataio import derive_seed
from .errors import ConfigError
from .kernel import gaussian_kernel, median_bandwidth

_L1_BIND_TOL = 1e-6
_WEIGHT_CHANGE_TOL = 1e-4
_MAX_ROUNDS = 20


@dataclass(frozen=True)
class SkmResult:
    """Non-negative feature weights under an L1 budget, the objective after each
    round and the ranking (largest weight first, ties toward the lowest index)."""

    weights: np.ndarray
    objective_history: tuple[float, ...]
    ranking: tuple[int, ...]


@dataclass(frozen=True)
class SpecResult:
    """Per-feature graph-consistency scores (lower = more consistent) and ranking."""

    scores: np.ndarray
    ranking: tuple[int, ...]


def _l1_bounded_weights(b: np.ndarray, s: float) -> np.ndarray:
    """Maximize w.b subject to ||w||_2 <= 1, ||w||_1 <= s, w >= 0, for the
    non-negative sums ``b`` of ``_between_cluster_ss``.

    Solution is (b - delta)+ renormalized to unit L2, with delta found by
    bisection so the L1 bound binds when the unthresholded weights violate
    it. When the top of ``b`` is tied across more entries than s^2 the
    bound cannot bind under L2 normalization; mass s/|T| on the tied set is the
    maximizer there (the L2 constraint goes slack).
    """
    top = b.max()
    if top == 0.0:
        return np.full(b.size, s / b.size)
    w = b / np.linalg.norm(b)
    if w.sum() <= s:
        return w
    tied = b == top
    if math.sqrt(tied.sum()) >= s - 1e-12:
        out = np.zeros(b.size)
        out[tied] = s / tied.sum()
        return out
    lo, hi = 0.0, top
    for _ in range(200):
        delta = (lo + hi) / 2.0
        thresholded = np.maximum(b - delta, 0.0)
        w = thresholded / np.linalg.norm(thresholded)
        l1 = w.sum()
        if abs(l1 - s) <= _L1_BIND_TOL:
            return w
        if l1 > s:
            lo = delta
        else:
            hi = delta
    return w


def _between_cluster_ss(values: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-feature between-cluster sum of squares, clamped at zero."""
    total = ((values - values.mean(axis=0)) ** 2).sum(axis=0)
    within = np.zeros(values.shape[1])
    for c in range(k):
        members = values[labels == c]
        if members.shape[0] == 0:
            continue
        within += ((members - members.mean(axis=0)) ** 2).sum(axis=0)
    return np.maximum(total - within, 0.0)


def sparse_kmeans(
    X: np.ndarray,
    k: int,
    s: float,
    seed: int,
    restarts: int = 10,
) -> SkmResult:
    """Alternate weighted k-means with the closed-form weight update.

    Clustering runs on features scaled by sqrt(w); weights maximize the
    weighted between-cluster sum of squares under the L1/L2 constraints.
    Stops when the relative L1 weight change drops below 1e-4 (max 20 rounds).
    """
    values = np.asarray(X, dtype=np.float64)
    d = values.shape[1]
    if not 1.0 < s <= math.sqrt(d) + 1e-12:
        raise ConfigError(f"s must satisfy 1 < s <= sqrt(d)={math.sqrt(d):.4f}, got {s}")
    w = np.full(d, 1.0 / math.sqrt(d))
    prev_b = None
    history: list[float] = []
    for round_no in range(_MAX_ROUNDS):
        scaled = values * np.sqrt(w)
        candidate = kmeans(scaled, k, restarts=restarts, seed=derive_seed(seed, round_no))
        b = _between_cluster_ss(values, candidate.labels, k)
        # k-means restarts are heuristic; keep the previous partition if it
        # scored better under the current weights
        if prev_b is not None and float(w @ b) < float(w @ prev_b):
            b = prev_b
        else:
            prev_b = b
        w_new = _l1_bounded_weights(b, s)
        history.append(float(w_new @ b))
        change = np.abs(w_new - w).sum() / w.sum()
        w = w_new
        if change < _WEIGHT_CHANGE_TOL:
            break
    ranking = tuple(int(j) for j in np.argsort(-w, kind="stable"))
    return SkmResult(w, tuple(history), ranking)


def spec_scores(X: np.ndarray) -> SpecResult:
    """Rank features by smoothness on the dense Gaussian sample-similarity graph
    at the median-distance bandwidth.

    Each feature f is degree-normalized and scored by the normalized-Laplacian
    quadratic form; constant features, which separate nothing, score +inf and
    rank last (a constant's normalized vector is the Laplacian's null vector).
    """
    values = np.asarray(X, dtype=np.float64)
    similarity = gaussian_kernel(values, median_bandwidth(values)).entries
    scores = graph_consistency_scores(values, similarity)
    ranking = tuple(int(j) for j in np.argsort(scores, kind="stable"))
    return SpecResult(scores=scores, ranking=ranking)


def graph_consistency_scores(values: np.ndarray, similarity: np.ndarray) -> np.ndarray:
    """Normalized-Laplacian quadratic form of each degree-normalized feature.

    The feature normalization makes each score invariant to positive rescaling
    of that feature for a fixed similarity graph.
    """
    n, d = values.shape
    degree = similarity.sum(axis=1)
    dsqrt = np.sqrt(degree)
    laplacian = np.eye(n) - similarity / np.outer(dsqrt, dsqrt)
    constant = values.max(axis=0) == values.min(axis=0)
    scores = np.empty(d)
    for j in range(d):
        g = dsqrt * values[:, j]
        norm = np.linalg.norm(g)
        if norm == 0.0 or constant[j]:
            scores[j] = np.inf
            continue
        fhat = g / norm
        scores[j] = max(float(fhat @ laplacian @ fhat), 0.0)
    return scores

