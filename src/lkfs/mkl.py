"""Greedy multiple-kernel selection by alignment with a target kernel.

At each iteration the current combination is paired with every remaining
candidate kernel; the two-kernel weights maximizing alignment with the target
have a closed form (a 2x2 linear solve, falling back to the better boundary
point when a weight would go negative). The candidate with the best achieved
alignment is accepted while the gain exceeds the improvement tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataValidationError, NumericalError
from .kernel import KernelMatrix, StackedKernels, frobenius_inner, upper_triangle

_DET_FLOOR = 1e-14  # relative determinant threshold for the 2x2 solve
# features per greedy step up to which the Gram matrix is no slower than the
# stack (measured break-even 30-60 at n = 160 and 400, one BLAS thread)
_GRAM_FEATURES_PER_STEP = 30


@dataclass(frozen=True)
class MklConfig:
    p: int
    improvement_tolerance: float = 1e-6
    candidate_subsample: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("p must be >= 1")
        if self.improvement_tolerance < 0:
            raise ConfigError("improvement_tolerance must be >= 0")
        if self.candidate_subsample is not None and self.candidate_subsample < 1:
            raise ConfigError("candidate_subsample must be >= 1 when set")


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


def _pair_weights_from_scalars(
    aa: float, bb: float, ab: float, az: float, bz: float, zz: float
) -> tuple[float, float, float]:
    """Maximize A(mu_a*Ka + mu_b*Kb, Kz) over mu >= 0 given all inner products."""
    det = aa * bb - ab * ab
    if det > _DET_FLOOR * max(aa * bb, 1.0):
        wa = (bb * az - ab * bz) / det
        wb = (aa * bz - ab * az) / det
        if wa > 0.0 and wb > 0.0:
            total = wa + wb
            wa, wb = wa / total, wb / total
            quad = wa * wa * aa + 2.0 * wa * wb * ab + wb * wb * bb
            achieved = (wa * az + wb * bz) / math.sqrt(quad * zz)
            return wa, wb, achieved
    # stationary point infeasible (or kernels proportional): best boundary wins
    align_a = az / math.sqrt(aa * zz) if aa > 0 else None
    align_b = bz / math.sqrt(bb * zz) if bb > 0 else None
    if align_a is None and align_b is None:
        raise NumericalError("pair weights undefined: both kernels have zero norm")
    if align_b is None or (align_a is not None and align_a >= align_b):
        return 1.0, 0.0, align_a
    return 0.0, 1.0, align_b


def solve_pair_weights(
    Ka: KernelMatrix, Kb: KernelMatrix, Kz: KernelMatrix
) -> tuple[float, float, float]:
    """Optimal non-negative pair (mu_a, mu_b), normalized to sum 1, and the
    alignment it achieves against ``Kz``."""
    if Ka.n != Kb.n or Ka.n != Kz.n:
        raise DataValidationError("pair-weight kernels must share dimensions")
    return _pair_weights_from_scalars(
        aa=frobenius_inner(Ka, Ka),
        bb=frobenius_inner(Kb, Kb),
        ab=frobenius_inner(Ka, Kb),
        az=frobenius_inner(Ka, Kz),
        bz=frobenius_inner(Kb, Kz),
        zz=frobenius_inner(Kz, Kz),
    )


def _pair_weights_batch(
    aa: float, bb: np.ndarray, ab: np.ndarray, az: float, bz: np.ndarray, zz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_pair_weights_from_scalars`` of one kernel a against many kernels b,
    with the same branches and the same float operations per candidate."""
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


def _inner_products(
    stack: StackedKernels, tz: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, Callable[[int], np.ndarray]]:
    """(c, s, column) with c[a] = <K_a, Kz>, s[a] = <K_a, K_a> and
    ``column(j)[a]`` = <K_a, K_j> for a greedy that reads ``steps`` columns.

    Two ways, and neither wins on every shape. The Gram matrix G
    (``StackedKernels.gram``) costs one d^2 n(n-1)/2 product and up to
    20 d^2 bytes: G, a product buffer and a block of d/2 pairs. The stack of
    triangles costs one matrix-vector pass per column read and 4 d n(n-1)
    bytes. G is taken only where it is no slower, with d at most
    ``_GRAM_FEATURES_PER_STEP`` times ``steps``, and no larger, with d at most
    n(n-1)/5. With unit diagonals <K_a, K_b> = n + 2 upper[a] . upper[b];
    equal kernels take the products of their first copy, so twins stay
    exactly tied either way.
    """
    d, pairs = len(stack), stack.n * (stack.n - 1) // 2
    if d <= _GRAM_FEATURES_PER_STEP * steps and 5 * d <= 2 * pairs:
        gram, cz = stack.gram(tz)
        return cz, gram.diagonal(), gram.__getitem__
    upper, first = stack.triangles(), stack.first_copies

    def inner(t: np.ndarray) -> np.ndarray:
        return (stack.n + 2.0 * (upper @ t))[first]

    ss = (stack.n + 2.0 * np.einsum("ij,ij->i", upper, upper))[first]
    return inner(tz), ss, lambda j: inner(upper[j])


def greedy_select(
    candidates: StackedKernels | Sequence[KernelMatrix], Kz: KernelMatrix, config: MklConfig
) -> MklSolution:
    """Iteratively build the aligned combination, one candidate kernel at a time.

    Iteration 0 takes the single best-aligned candidate; afterwards the running
    combination K_mu is re-weighted against each remaining candidate with the
    two-kernel closed form, accumulated weights rescaling by the kept share.
    Ties break toward the lowest feature index. Stops at ``config.p`` features
    or when the best gain falls to ``config.improvement_tolerance`` or below.

    The state is m_j = <K_mu, K_j> for every candidate j; accepting feature j
    updates it to ``w1 * m + w2 * G[j]`` with G[a, b] = <K_a, K_b>, and
    <K_mu, Kz> and <K_mu, K_mu> follow as scalar recurrences (see
    ``_inner_products`` for where G comes from). Every kernel must be
    symmetric with unit diagonal.
    """
    stack = (
        candidates
        if isinstance(candidates, StackedKernels)
        else StackedKernels.from_kernels(candidates)
    )
    if Kz.n != stack.n:
        raise DataValidationError("target and candidate kernels must share dimensions")
    open_ = ~stack.degenerate
    if not open_.any():
        raise DataValidationError("no non-degenerate candidate kernels")
    tz = upper_triangle(Kz)
    zz = stack.n + 2.0 * float(tz @ tz)
    cz, ss, column = _inner_products(stack, tz, config.p)

    active = np.flatnonzero(open_)
    first = int(active[np.argmax(cz[active] / np.sqrt(ss[active] * zz))])
    mu = np.zeros(len(stack))
    mu[first] = 1.0
    selected = [first]
    open_[first] = False
    m = column(first)
    mz, mm = float(cz[first]), float(ss[first])
    trajectory = [mz / math.sqrt(mm * zz)]
    subsample_rng = (
        np.random.default_rng([config.seed, 7]) if config.candidate_subsample else None
    )

    stop_reason = "reached_p"
    while len(selected) < config.p:
        pool = np.flatnonzero(open_)
        if not pool.size:
            stop_reason = "no_candidates"
            break
        if subsample_rng is not None and config.candidate_subsample < pool.size:
            pool_idx = subsample_rng.choice(
                pool.size, size=config.candidate_subsample, replace=False
            )
            pool = pool[np.sort(pool_idx)]
        w1s, w2s, achieved = _pair_weights_batch(mm, ss[pool], m[pool], mz, cz[pool], zz)
        best = int(np.argmax(achieved))  # the first maximum: lowest feature index
        j, w1, w2 = int(pool[best]), float(w1s[best]), float(w2s[best])
        if float(achieved[best]) - trajectory[-1] <= config.improvement_tolerance:
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
    return KernelMatrix(entries, bandwidth=float("nan"), source="combined")


def solution_to_dict(
    solution: MklSolution, feature_names: Sequence[str], method: str = "lkfs"
) -> dict:
    return {
        "method": method,
        "selected": [feature_names[j] for j in solution.selected],
        "mu": {feature_names[j]: float(solution.mu[j]) for j in solution.selected},
        "trajectory": [float(a) for a in solution.alignment_trajectory],
        "target_alignment": float(solution.target_alignment),
        "stop_reason": solution.stop_reason,
    }


def save_solution(
    solution: MklSolution, feature_names: Sequence[str], path: str | Path, method: str = "lkfs"
) -> None:
    Path(path).write_text(
        json.dumps(solution_to_dict(solution, feature_names, method), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
