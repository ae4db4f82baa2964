"""The benchmark's workloads: fixture shapes and `lkfs run` configurations.

Every workload is a two-class `generate_synthetic` fixture (separation 4.0)
written to disk as matrix + labels + JSON config, then run through
`lkfs run` with `threads=1`. The fixture seed and the run seed both come from
the benchmark's `--seed`.

Rationale (traced shares from a 2-vCPU Xeon VM, Python 3.11, numpy 2.4,
OpenBLAS on one thread; n=160 rows after the 80% subsample):

- wide_select stresses `kernel` + `mkl` (~90% of the run): 600 post-filter
  feature kernels take 8*d*n^2 = 123 MB and set peak RSS (~166 MB); the greedy
  re-runs once per p (5 calls, useful-step ratio ~0.3) and is ~63% alone. The
  tiny autoencoder is ~4% and the SKM/SPEC baselines are bypassed. Stacked
  kernels and one greedy pass per repetition (ROADMAP item 2) show here. Raw d
  is 1200, not the 4000 first proposed: at 4000 one invocation takes ~15 s
  (456 MB peak) and at 2000 ~8-10 s, too few invocations per run for a
  steady median on a machine whose speed drifts.
- deep_latent stresses `autoencoder`: the default 200-100-50 network trained
  for 200 epochs is ~78% of the run; the greedy makes one short call (p=10,
  ~3%). ROADMAP item 3 shows here and item 2 should barely move it.
- baseline_grid stresses `clustering` + `baselines` (~64%) and the artifact
  writer: SKM + SPEC over the full 5x4 (p, k) grid, 3 repetitions. It never
  touches the autoencoder, the feature kernels or the greedy, so changes for
  items 2 and 3 must leave it unchanged; `spec_scores` builds one dense n x n
  kernel over 500-dimensional rows per call (~27% in `kernel`), so a kernel
  change tuned for 1-D columns that slows this path shows up here (item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

SEPARATION = 4.0
DEFAULT_P = (10, 20, 30, 40, 50)
DEFAULT_K = (2, 3, 4, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    informative: int
    config: dict = field(default_factory=dict)  # RunConfig fields besides input/labels/seed

    @property
    def reps(self) -> int:
        return self.config["preprocess"]["repetitions"]

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.config["methods"])

    @property
    def p_grid(self) -> tuple[int, ...]:
        return tuple(self.config["p_grid"])

    @property
    def k_grid(self) -> tuple[int, ...]:
        return tuple(self.config["k_grid"])

    def fingerprint(self) -> dict:
        """What a recorded reference depends on besides the seed."""
        return {"n": self.n, "d": self.d, "informative": self.informative, "config": self.config}


def _config(methods, p_grid, k_grid, reps, **extra) -> dict:
    return {
        "methods": list(methods),
        "p_grid": list(p_grid),
        "k_grid": list(k_grid),
        "preprocess": {"repetitions": reps},
        "threads": 1,
        **extra,
    }


WORKLOADS = {
    "wide_select": Workload(
        "wide_select",
        n=200,
        d=1200,
        informative=20,
        config=_config(
            ["lkfs"], DEFAULT_P, (2, 3), reps=1, ae_hidden=[8], ae_latent=2, ae={"epochs": 50}
        ),
    ),
    "deep_latent": Workload(
        "deep_latent",
        n=200,
        d=1000,
        informative=20,
        config=_config(["lkfs"], (10,), (2,), reps=1),
    ),
    "baseline_grid": Workload(
        "baseline_grid",
        n=200,
        d=1000,
        informative=20,
        config=_config(["skm", "spec"], DEFAULT_P, DEFAULT_K, reps=3),
    ),
}

# Same shapes at toy size, for the benchmark's self-test.
TOY_WORKLOADS = {
    "wide_select": Workload(
        "wide_select",
        n=40,
        d=80,
        informative=6,
        config=_config(
            ["lkfs"],
            (3, 6),
            (2, 3),
            reps=2,
            ae_hidden=[4],
            ae_latent=2,
            ae={"epochs": 5, "batch_size": 16},
        ),
    ),
    "deep_latent": Workload(
        "deep_latent",
        n=40,
        d=60,
        informative=6,
        config=_config(
            ["lkfs"], (4,), (2,), reps=1, ae_hidden=[16, 8], ae_latent=4,
            ae={"epochs": 10, "batch_size": 16},
        ),
    ),
    "baseline_grid": Workload(
        "baseline_grid",
        n=40,
        d=60,
        informative=6,
        config=_config(["skm", "spec"], (3, 6), (2, 3), reps=2),
    ),
}


def get(name: str, scale: str = "full") -> Workload:
    table = TOY_WORKLOADS if scale == "toy" else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]
