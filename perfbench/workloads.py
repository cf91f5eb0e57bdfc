"""The benchmark's four workloads: seeded instance sets plus the solver setup.

Each workload is a closed loop: one ``pipeline.run`` after another over a
fixed list of generated instances (one *pass*), each run solved to completion
or to its time limit. The solver sees only the generated instances.

How the benchmark seed makes the instances:

- ``micro`` draws a fresh set of 1000 instances per seed; that many keep the
  seed-to-seed spread of every metric near 1%.
- ``exact`` and ``budget`` solve a fixed library (contiguous, unfiltered
  generator seeds) whose ride order the seed shuffles. Ride order is a
  nuisance the answer must not depend on, in the manner of permutation
  seeds in MIP performance-variability studies. Fresh instances per seed
  would not do here: solve times of these sizes vary by 40-130% from one
  instance to the next, so a set that fits a run would move its totals by
  30-60% between seeds, more than any regression bound.
- ``large`` solves its library in generator order whatever the seed: ride
  order alone moves the local-search time of a 36-ride instance by up to
  16%, which would drown the changes this workload is meant to show.

The libraries are small enough for several passes per run; each instance's
time is its median over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from drsync.fixtures import micro_suite
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.harness import method_config
from drsync.instance import check_instance
from drsync.pipeline import DbmhConfig

MICRO_COUNT = 1000
MICRO_SEED_STRIDE = 100_000   # micro sets of different seeds never overlap

EXACT_LIMIT = 0.5             # seconds per instance
# (label, generator config, generator seeds)
EXACT_LIBRARY = (
    ("2x2x4", GeneratorConfig(2, 2, 4), range(20)),
    ("3x2x3", GeneratorConfig(3, 2, 3), range(10)),
    # the first seeds of the 2x2x4 range again under the other policies;
    # "none" takes the ride-level carrier branch of the B&B
    ("2x2x4-none", GeneratorConfig(2, 2, 4, exchange_policy="none"), range(5)),
    ("2x2x4-stops", GeneratorConfig(2, 2, 4, exchange_policy="regular_stops"), range(5)),
)

# the ROADMAP ladder up to 36 rides, seeds 7 and 8. Its 48-ride rung takes
# 5 s in one piece, longer than the machine-speed swings that the reference
# timings around each solve can follow (see run.py); local search on it is
# still timed inside the budget workload.
LARGE_LIBRARY = tuple(
    (f"{n}x{r}x{s}", GeneratorConfig(n, r, s), range(7, 9))
    for n, r, s in ((4, 4, 3), (6, 4, 4), (6, 6, 4))
)

BUDGET_LIMIT = 8.0
BUDGET_LIBRARY = tuple(
    (f"{n}x{r}x{s}", GeneratorConfig(n, r, s), range(7, 8))
    for n, r, s in ((3, 3, 3), (6, 4, 4), (8, 6, 4))
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: DbmhConfig
    library: tuple | None   # None: fresh micro instances per seed
    oracle: bool            # check every objective against oracle.brute_force
    clock_bound: bool       # outcomes can depend on where a time limit cuts
    shuffle: bool = True    # the seed shuffles the ride order of the library

    def instances(self, seed: int) -> list[tuple[str, object]]:
        if self.library is None:
            return micro_suite(MICRO_COUNT, master_seed=seed * MICRO_SEED_STRIDE)
        rng = random.Random(seed)
        out = []
        for label, cfg, seeds in self.library:
            for s in seeds:
                inst, _stats = generate_synthetic(cfg, s)
                if self.shuffle:
                    rides = list(inst.rides)
                    rng.shuffle(rides)
                    inst = check_instance(replace(inst, rides=tuple(rides)))
                out.append((f"{label}-{s}", inst))
        return out


WORKLOADS = {w.name: w for w in (
    Workload("micro", DbmhConfig(), None, oracle=True, clock_bound=False),
    Workload(
        "exact",
        DbmhConfig(global_limit=EXACT_LIMIT, eta_lb=EXACT_LIMIT,
                   eta_mip=EXACT_LIMIT, eta_ls=EXACT_LIMIT),
        EXACT_LIBRARY, oracle=False, clock_bound=True),
    Workload("large", method_config("ch_ls", DbmhConfig()), LARGE_LIBRARY,
             oracle=False, clock_bound=False, shuffle=False),
    Workload(
        "budget",
        # eta_lb and eta_mip well below the limit, so DBI, the cold and the
        # warm solve all get time on every rung
        DbmhConfig(global_limit=BUDGET_LIMIT, eta_lb=1.0, eta_mip=2.0, eta_ls=0.5),
        BUDGET_LIBRARY, oracle=False, clock_bound=True),
)}
