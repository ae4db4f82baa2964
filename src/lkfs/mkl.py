"""Greedy multiple-kernel selection by alignment with a target kernel.

At each iteration the current combination is paired with every remaining
candidate kernel; the two-kernel weights maximizing alignment with the target
have a closed form (a 2x2 linear solve, falling back to the better boundary
point when a weight would go negative). The candidate with the best achieved
alignment is accepted while the gain exceeds the improvement tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataValidationError, NumericalError
from .kernel import KernelMatrix, StackedKernels, frobenius_inner

_DET_FLOOR = 1e-14  # relative determinant threshold for the 2x2 solve
# a feature after the first is accepted only if it raises the alignment by more
_IMPROVEMENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class MklConfig:
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("p must be >= 1")


@dataclass(frozen=True)
class MklSolution:
    """Sparse non-negative kernel weights plus the selection trace.

    ``mu`` is a length-d vector summing to one, nonzero exactly on ``selected``
    (given in acceptance order); ``alignment_trajectory`` holds the alignment
    after each accepted kernel.
    """

    mu: np.ndarray
    selected: tuple[int, ...]
    alignment_trajectory: tuple[float, ...]
    target_alignment: float
    stop_reason: str


def solve_pair_weights(
    Ka: KernelMatrix, Kb: KernelMatrix, Kz: KernelMatrix
) -> tuple[float, float, float]:
    """Optimal non-negative pair (mu_a, mu_b), normalized to sum 1, and the
    alignment it achieves against ``Kz``; ``frobenius_inner`` rejects kernels
    of different sizes."""
    wa, wb, achieved = _pair_weights_batch(
        frobenius_inner(Ka, Ka),
        np.array([frobenius_inner(Kb, Kb)]),
        np.array([frobenius_inner(Ka, Kb)]),
        frobenius_inner(Ka, Kz),
        np.array([frobenius_inner(Kb, Kz)]),
        frobenius_inner(Kz, Kz),
    )
    return float(wa[0]), float(wb[0]), float(achieved[0])


def _pair_weights_batch(
    aa: float, bb: np.ndarray, ab: np.ndarray, az: float, bz: np.ndarray, zz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-kernel closed form of one kernel a against many kernels b: per
    candidate, the weights (mu_a, mu_b) >= 0, summing to one, that maximize
    the alignment of mu_a*Ka + mu_b*Kb with Kz, and that alignment, from
    aa = <Ka, Ka>, az = <Ka, Kz>, zz = <Kz, Kz> and per candidate bb, ab, bz.

    The stationary point of the 2x2 solve is taken where its determinant
    clears ``_DET_FLOOR`` and both weights are positive, else the better of
    the two kernels alone (a on a tie)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        det = aa * bb - ab * ab
        wa = (bb * az - ab * bz) / det
        wb = (aa * bz - ab * az) / det
        interior = (det > _DET_FLOOR * np.maximum(aa * bb, 1.0)) & (wa > 0.0) & (wb > 0.0)
        total = wa + wb
        wa, wb = wa / total, wb / total
        quad = wa * wa * aa + 2.0 * wa * wb * ab + wb * wb * bb
        achieved = (wa * az + wb * bz) / np.sqrt(quad * zz)
        align_b = bz / np.sqrt(bb * zz)
    # stationary point infeasible (or kernels proportional): best boundary wins
    has_b = bb > 0
    if aa > 0:
        align_a = az / math.sqrt(aa * zz)
        take_a = ~has_b | (align_a >= align_b)
    elif has_b[~interior].all():
        align_a, take_a = math.nan, np.zeros(bb.shape, dtype=bool)
    else:
        raise NumericalError("pair weights undefined: both kernels have zero norm")
    wa = np.where(interior, wa, np.where(take_a, 1.0, 0.0))
    wb = np.where(interior, wb, np.where(take_a, 0.0, 1.0))
    achieved = np.where(interior, achieved, np.where(take_a, align_a, align_b))
    return wa, wb, achieved


def greedy_select(candidates: StackedKernels, Kz: KernelMatrix, config: MklConfig) -> MklSolution:
    """Iteratively build the aligned combination, one candidate kernel at a time.

    Each step re-weights the running combination K_mu against every remaining
    candidate with the two-kernel closed form, accumulated weights rescaling
    by the kept share. The combination starts empty, so the first step takes
    the single best-aligned candidate. Ties break toward the lowest feature
    index. Stops at ``config.p`` features, or when the best gain of a later
    feature falls to ``_IMPROVEMENT_TOLERANCE`` or below.

    The state is m_j = <K_mu, K_j> for every candidate j; accepting feature j
    updates it to ``w1 * m + w2 * G[j]`` with G[a, b] = <K_a, K_b>, and
    <K_mu, Kz> and <K_mu, K_mu> follow as scalar recurrences (see
    ``StackedKernels.inner_products`` for where G comes from). ``candidates``
    is the column-backed stack of ``feature_kernels``; the target ``Kz`` must
    be symmetric with unit diagonal.
    """
    if Kz.n != candidates.n:
        raise DataValidationError("target and candidate kernels must share dimensions")
    open_ = ~candidates.degenerate
    if not open_.any():
        raise DataValidationError("no non-degenerate candidate kernels")
    cz, ss, zz, column = candidates.inner_products(Kz, config.p)

    mu, m = np.zeros(len(candidates)), np.zeros(len(candidates))
    mz = mm = 0.0
    selected, trajectory = [], []
    stop_reason = "reached_p"
    while len(selected) < config.p:
        pool = np.flatnonzero(open_)
        if not pool.size:
            stop_reason = "no_candidates"
            break
        # with mm = 0 every candidate is taken alone, at cz / sqrt(ss * zz)
        w1s, w2s, achieved = _pair_weights_batch(mm, ss[pool], m[pool], mz, cz[pool], zz)
        best = int(np.argmax(achieved))  # the first maximum: lowest feature index
        j, w1, w2 = int(pool[best]), float(w1s[best]), float(w2s[best])
        if trajectory and float(achieved[best]) - trajectory[-1] <= _IMPROVEMENT_TOLERANCE:
            stop_reason = "no_improvement"
            break
        mu *= w1
        mu[j] = w2
        selected.append(j)
        open_[j] = False
        mz = w1 * mz + w2 * float(cz[j])
        mm = w1 * w1 * mm + 2.0 * w1 * w2 * float(m[j]) + w2 * w2 * float(ss[j])
        m = w1 * m + w2 * column(j)
        trajectory.append(mz / math.sqrt(mm * zz))

    mu = mu / mu.sum()
    return MklSolution(
        mu=mu,
        selected=tuple(selected),
        alignment_trajectory=tuple(trajectory),
        target_alignment=trajectory[-1],
        stop_reason=stop_reason,
    )


def combined_kernel(
    solution: MklSolution, candidates: StackedKernels | Sequence[KernelMatrix]
) -> KernelMatrix:
    """K_mu = sum of mu_i * K_i over the selected features."""
    if any(j >= len(candidates) or j < 0 for j in solution.selected):
        raise DataValidationError("selected index out of candidate range")
    n = candidates[solution.selected[0]].n
    entries = np.zeros((n, n))
    for j in solution.selected:
        entries += solution.mu[j] * candidates[j].entries
    return KernelMatrix(entries, source="combined")

