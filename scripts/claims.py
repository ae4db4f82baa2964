#!/usr/bin/env python3
"""The paper's claims against the baselines, on fixtures whose truth is known.

For each separation, ``generate_synthetic`` plants its first ``informative``
features, and ``run_experiment`` runs every method with the shipped
``RunConfig`` (k = 2, for the fixture's two classes). For each method and p
this prints the mean over repetitions of the planted features selected
(hits), RED, Rand index and ARI. Beside them it prints the noise floor: the
mean and 5-95% RED of 200 seeded random sets of p non-planted features on
each repetition's resample. A RED inside that band is the RED of noise.

    python3 scripts/claims.py --reps 3
"""

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lkfs.dataio import ExpressionMatrix, PreprocessConfig, generate_synthetic, subsample
from lkfs.evaluation import red_score
from lkfs.pipeline import RunConfig, preprocess_matrix, run_experiment

DRAWS = 200  # random sets per resample


def planted_names(informative: int) -> set[str]:
    """The names ``generate_synthetic`` gives its planted features."""
    return {f"f{j:04d}" for j in range(informative)}


def planted_hits(selected: Sequence[str], informative: int) -> int:
    """How many of the selected feature names are planted."""
    return len(planted_names(informative).intersection(selected))


def noise_floor(
    resamples: Sequence[ExpressionMatrix], size: int, informative: int
) -> tuple[float, float, float]:
    """Mean, 5th and 95th percentile RED of ``DRAWS`` seeded random sets of
    ``size`` non-planted features on each preprocessed resample, pooled."""
    rng = np.random.default_rng(0)
    planted = planted_names(informative)
    reds = []
    for X in resamples:
        noise = [j for j, name in enumerate(X.feature_names) if name not in planted]
        reds += [red_score(X, rng.choice(noise, size, replace=False)) for _ in range(DRAWS)]
    low, high = np.percentile(reds, [5, 95])
    return float(np.mean(reds)), float(low), float(high)


def resample(X: ExpressionMatrix, config: RunConfig, seed: int) -> ExpressionMatrix:
    """The preprocessed resample that ``run_experiment`` scored under the
    repetition seed ``seed`` (a record's ``seed``)."""
    fraction = config.preprocess.subsample_fraction
    return preprocess_matrix(subsample(X, fraction, seed), config.preprocess)


def run(separation: float, n: int, d: int, informative: int, reps: int, p_grid: Sequence[int]):
    """The fixture, the config and ``run_experiment``'s result at one separation."""
    X, labels = generate_synthetic(n, d, informative, separation, seed=0)
    config = RunConfig(
        preprocess=PreprocessConfig(repetitions=reps), p_grid=tuple(p_grid), k_grid=(2,),
        dataset_id=f"planted-{separation}",
    )
    return X, config, run_experiment(config, X=X, labels=labels)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--d", type=int, default=100)
    ap.add_argument("--informative", type=int, default=10)
    ap.add_argument("--separations", default="4.0,3.0,2.5,2.0", help="comma list")
    ap.add_argument("--reps", type=int, default=PreprocessConfig().repetitions)
    args = ap.parse_args()
    # a random set of p non-planted features must exist on every resample
    room = int(PreprocessConfig().variance_keep_fraction * args.d) - args.informative
    p_grid = [p for p in RunConfig().p_grid if p <= room]
    if not p_grid:
        ap.error(f"no p of {RunConfig().p_grid} fits {room} non-planted features")

    print("separation  method    p   hits     RED    Rand     ARI  noise RED (5-95%)")
    for separation in (float(s) for s in args.separations.split(",")):
        X, config, result = run(separation, args.n, args.d, args.informative, args.reps, p_grid)
        records = next(iter(result.reports.values())).records
        resamples = [resample(X, config, rec.seed) for rec in records if rec.p == p_grid[0]]
        floors = {p: noise_floor(resamples, p, args.informative) for p in p_grid}
        for method, report in result.reports.items():
            for cell in report.aggregates:
                hits = [planted_hits(rec.selected_features, args.informative)
                        for rec in report.records if rec.p == cell.p]
                mean, low, high = floors[cell.p]
                print(
                    f"{separation:10.1f}  {method:>6} {cell.p:4d} {np.mean(hits):6.1f}"
                    f"  {cell.red_mean:6.3f}  {cell.rand_index_mean:6.3f}"
                    f"  {cell.adjusted_rand_index_mean:6.3f}  {mean:.3f} ({low:.3f}-{high:.3f})",
                    flush=True,
                )


if __name__ == "__main__":
    main()
