"""One-line mutations of ``src/lkfs`` and the tier-1 tests that must fail
under each, or the reason no result can change.

pytest does not collect this file. Run it from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only those

The runner copies ``src/`` to a temporary directory and first runs every
named test against the unmutated copy, which must pass. Then, per mutant,
it replaces the old text (which must occur exactly once in its file) in a
fresh copy and runs only that mutant's tests against it. It exits 1 if a
mutant not marked equivalent survives, or if an old text is not found once.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/lkfs
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest ids, from the repository root
    equivalent: str = ""  # why no result can change; such a mutant is not run


_TOY = "tests/test_pins.py::test_toy_run_matches_its_pins"
_CONTESTED = "tests/test_pins.py::test_contested_run_matches_its_pins"
_KMEANS = "tests/test_clustering.py::TestKmeans"
_KMEANS_BITS = "tests/test_clustering.py::TestKmeansBitIdentity"
_CYCLING = f"{_KMEANS_BITS}::test_a_cycling_run_returns_the_last_assignment_of_the_cap"

MUTANTS = (
    Mutant(
        "skm-weight-change-tol", "baselines.py",
        "_WEIGHT_CHANGE_TOL = 1e-4", "_WEIGHT_CHANGE_TOL = 1e-2",
        ("tests/test_baselines.py::TestSparseKmeans"
         "::test_stops_once_the_weights_move_less_than_1e_4",),
    ),
    Mutant(
        "skm-between-unclamped", "baselines.py",
        "return np.maximum(total - within, 0.0)", "return total - within",
        ("tests/test_baselines.py::TestBetweenClusterSums"
         "::test_clamped_where_rounding_goes_below_zero",),
    ),
    Mutant(
        "skm-threshold-unclamped", "baselines.py",
        "thresholded = np.maximum(b - delta, 0.0)", "thresholded = b - delta",
        ("tests/test_baselines.py::TestBoundedWeights::test_bisection_binds_l1",),
    ),
    Mutant(
        "skm-max-rounds", "baselines.py", "_MAX_ROUNDS = 20", "_MAX_ROUNDS = 2",
        (f"{_CONTESTED}[skm]",),
    ),
    Mutant(
        "skm-guard-ties", "baselines.py",
        "float(w @ b) < float(w @ prev_b)", "float(w @ b) <= float(w @ prev_b)",
        equivalent="differs only where a new partition's weighted sum exactly ties the kept "
        "one's; the same partition gives the same sums, so either branch keeps them",
    ),
    Mutant(
        "skm-guard-removed", "baselines.py",
        "if prev_b is not None and float(w @ b) < float(w @ prev_b):", "if False:",
        (f"{_CONTESTED}[skm]",),
    ),
    Mutant(
        "skm-seed", "pipeline.py", "_SEED_SKM = 3", "_SEED_SKM = 4",
        (f"{_CONTESTED}[skm]",),
    ),
    Mutant(
        "mkl-det-floor", "mkl.py", "_DET_FLOOR = 1e-14", "_DET_FLOOR = 1e-6",
        ("tests/test_mkl.py::TestSolvePairWeights::test_near_twins_keep_the_interior_solve",),
    ),
    Mutant(
        "mkl-improvement-tolerance", "mkl.py",
        "_IMPROVEMENT_TOLERANCE = 1e-6", "_IMPROVEMENT_TOLERANCE = 1e-5",
        (f"{_CONTESTED}[lkfs]",),
    ),
    Mutant(
        "sq-triangle-c-ordered-scratch", "kernel.py",
        "work = np.empty_like(points)", "work = np.empty(points.shape)",
        ("tests/test_kernel.py::TestPairwiseSqdist",),
    ),
    Mutant(
        "kernel-degenerate-scale", "kernel.py",
        "np.where(self.degenerate, -np.inf,", "np.where(self.degenerate, -1.0,",
        ("tests/test_kernel.py::TestFeatureKernels::test_zero_median_column_flagged",),
    ),
    Mutant(
        "variance-ddof", "dataio.py", "var(axis=0, ddof=1)", "var(axis=0, ddof=0)",
        equivalent="divides every variance by the same n / (n - 1); correctly rounded "
        "division keeps their order, so the kept set moves only at near-ties of one ulp",
    ),
    Mutant(
        "variance-unstable-argsort", "dataio.py",
        'np.argsort(-variances, kind="stable")', "np.argsort(-variances)",
        ("tests/test_dataio.py::TestVarianceFilter"
         "::test_tied_variances_across_the_cut_keep_the_lower_indices",),
    ),
    Mutant(
        "ae-bn-momentum", "autoencoder.py", "_BN_MOMENTUM = 0.9", "_BN_MOMENTUM = 0.8",
        (f"{_TOY}[lkfs]",),
    ),
    Mutant("ae-seed", "pipeline.py", "_SEED_AE = 1", "_SEED_AE = 6", (f"{_TOY}[lkfs]",)),
    Mutant(
        "kmeans-restart-ties", "clustering.py",
        "result[1] < best[1]", "result[1] <= best[1]",
        (f"{_KMEANS_BITS}::test_stops_when_an_assignment_undoes_a_repair", f"{_TOY}[lkfs]"),
    ),
    Mutant(
        "lloyd-max-iterations", "clustering.py",
        "_MAX_LLOYD_ITERATIONS = 300", "_MAX_LLOYD_ITERATIONS = 3",
        (f"{_KMEANS_BITS}::test_a_repair_moves_no_point_that_is_alone_in_its_cluster",
         f"{_TOY}[spec]"),
    ),
    Mutant(
        "lloyd-last-assignment", "clustering.py",
        "iteration > _MAX_LLOYD_ITERATIONS", "iteration >= _MAX_LLOYD_ITERATIONS",
        (f"{_KMEANS_BITS}::test_matches_reference_when_the_iterations_run_out",),
    ),
    Mutant(
        "lloyd-undone-repair-goes-on", "clustering.py", "if s == iteration - 1:", "if False:",
        (f"{_KMEANS_BITS}::test_stops_when_an_assignment_undoes_a_repair",),
    ),
    Mutant(
        "lloyd-cycle-phase", "clustering.py",
        "phase = s + 1 + (", "phase = s + (",
        (_CYCLING,),
    ),
    Mutant(
        "lloyd-kept-assignment-not-copied", "clustering.py",
        "kept[iteration] = labels.copy(), inertia", "kept[iteration] = labels, inertia",
        (_CYCLING,),
    ),
    Mutant(
        "lloyd-first-assignment-recomputed", "clustering.py",
        "if iteration > 1:", "if iteration > 0:",
        (f"{_KMEANS}::test_an_inertia_increase_raises",),
    ),
    Mutant(
        "kmeanspp-column-from-previous-centre", "clustering.py",
        "np.subtract(X, X[chosen[j]], out=diff)", "np.subtract(X, X[chosen[j - 1]], out=diff)",
        ("tests/test_clustering.py::TestKmeansppDistances",),
    ),
    Mutant(
        "lloyd-inertia-check-removed", "clustering.py",
        'raise NumericalError("Lloyd iteration increased inertia")', "pass",
        (f"{_KMEANS}::test_an_inertia_increase_raises",),
    ),
    Mutant(
        "lloyd-repair-moves-singletons", "clustering.py",
        "np.take(counts, labels) == 1", "np.take(counts, labels) == 0",
        (f"{_KMEANS_BITS}::test_a_repair_moves_no_point_that_is_alone_in_its_cluster",),
    ),
    Mutant(
        "kmeanspp-draw-side", "clustering.py", 'side="right"', 'side="left"',
        equivalent="differs only where rng.random() equals a value of the CDF exactly",
    ),
    Mutant(
        "json-keys-unsorted", "pipeline.py",
        "json.dumps(doc, indent=2, sort_keys=True)", "json.dumps(doc, indent=2, sort_keys=False)",
        ("tests/test_pins.py::test_every_json_document_has_the_one_layout",),
    ),
    Mutant(
        "spec-constant-scored", "baselines.py",
        "if norm == 0.0 or constant[j]:", "if norm == 0.0:",
        ("tests/test_baselines.py::TestSpecScores::test_constant_features_score_inf_and_rank_last",
         "tests/test_cli.py::TestSelectClusterEvaluate::test_spec_never_selects_a_constant_column"),
    ),
)


def _pytest(src: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests]
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL).returncode


def _copy_src(work: Path, name: str) -> Path:
    src = work / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    failures, start = 0, time.perf_counter()
    for m in chosen:
        count = (ROOT / "src" / "lkfs" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: old text found {count} times in {m.file}")
            failures += 1
    if failures:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tests = sorted({t for m in chosen for t in m.tests})
        if tests and _pytest(_copy_src(work, "unmutated"), tests) != 0:
            print("the named tests fail on the unmutated source")
            return 1
        for m in chosen:
            if m.equivalent:
                print(f"{m.name}: equivalent ({m.equivalent})")
                continue
            src = _copy_src(work, m.name)
            path = src / "lkfs" / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new), "utf-8")
            began = time.perf_counter()
            code = _pytest(src, list(m.tests))
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit code {code}")
            print(f"{m.name}: {verdict} ({time.perf_counter() - began:.1f} s)")
            failures += code != 1
    print(f"{len(chosen)} mutants, {failures} not killed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
