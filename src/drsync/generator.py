"""Synthetic instance generation (stand-in for the proprietary operator data).

Lines are synthetic stop sequences; rides of a line run the same stops out
and back on alternating trips. The overlap profile controls whether rides
of different lines run simultaneously (forcing parallel drivers) or chain
head-to-tail (creating reuse and handover potential).

Generating an instance builds no time graph: ``synthetic_instance`` returns
the checked instance alone. A caller that wants its size (node and arc
counts, size class) computes ``graph_stats(build_graph(inst))`` itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .instance import (
    Instance,
    LegalParams,
    POLICIES,
    POLICY_FULL,
    Ride,
    StationAccess,
    Stop,
    check_instance,
)
from .timegraph import GraphStats, build_graph, graph_stats

OVERLAP_PARALLEL = "parallel"
OVERLAP_SEQUENTIAL = "sequential"
OVERLAP_MIXED = "mixed"


class GeneratorConfigError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    n_lines: int = 2
    rides_per_line: int = 2
    segments_per_ride: int = 2
    stations_per_segment: int = 1
    drive_min: int = 30
    drive_max: int = 120
    overlap: str = OVERLAP_MIXED
    theta_tw: int = 10
    zeta: int = 10
    ell: int = 10
    exchange_policy: str = POLICY_FULL
    legal: LegalParams = field(default_factory=LegalParams)
    day_start: int = 360
    ride_gap_min: int = 45      # gap between chained rides of a line
    ride_gap_max: int = 120

    def validate(self) -> None:
        bad = []
        for name in ("n_lines", "rides_per_line", "segments_per_ride"):
            if getattr(self, name) < 1:
                bad.append(f"{name} must be >= 1")
        if self.stations_per_segment < 0:
            bad.append("stations_per_segment must be >= 0")
        if not (5 <= self.drive_min <= self.drive_max <= self.legal.t_cs):
            bad.append(
                f"drive range [{self.drive_min}, {self.drive_max}] must lie in "
                f"[5, {self.legal.t_cs}]")
        if self.overlap not in (OVERLAP_PARALLEL, OVERLAP_SEQUENTIAL, OVERLAP_MIXED):
            bad.append(f"unknown overlap profile {self.overlap!r}")
        if self.exchange_policy not in POLICIES:
            bad.append(f"unknown exchange policy {self.exchange_policy!r}")
        if self.ride_gap_min < 0 or self.ride_gap_max < self.ride_gap_min:
            bad.append("ride gap range invalid")
        if bad:
            raise GeneratorConfigError("; ".join(bad))


def synthetic_instance(config: GeneratorConfig, seed: int) -> Instance:
    """Deterministic checked instance for (config, seed); builds no graph."""
    config.validate()
    rng = random.Random(seed)
    half = config.theta_tw // 2
    stops: list[Stop] = []
    rides: list[Ride] = []

    for li in range(config.n_lines):
        names = [f"L{li}S{p}" for p in range(config.segments_per_ride + 1)]
        for n in names:
            stops.append(Stop(n, "customer"))
        drives = [rng.randint(config.drive_min, config.drive_max)
                  for _ in range(config.segments_per_ride)]
        seg_stations: list[tuple[StationAccess, ...]] = []
        for k in range(config.segments_per_ride):
            accs = []
            for m in range(config.stations_per_segment):
                if config.zeta < 1:
                    continue
                detour = rng.randint(1, config.zeta)
                total = drives[k] + detour
                lo = max(1, total - config.legal.t_cs)
                hi = min(config.legal.t_cs, total - 1)
                if lo > hi:
                    continue
                m_in = rng.randint(lo, hi)
                sid = f"L{li}G{k}K{m}"
                stops.append(Stop(sid, "station"))
                accs.append(StationAccess(sid, m_in, total - m_in))
            seg_stations.append(tuple(accs))

        if config.overlap == OVERLAP_PARALLEL:
            chained = False
        elif config.overlap == OVERLAP_SEQUENTIAL:
            chained = True
        else:
            chained = rng.random() < 0.5
        start = config.day_start if chained else config.day_start + rng.choice((0, 10, 20))
        prev_end = None
        for ri in range(config.rides_per_line):
            forward = ri % 2 == 0
            seq = names if forward else list(reversed(names))
            dts = drives if forward else list(reversed(drives))
            sts = seg_stations if forward else list(reversed(seg_stations))
            if prev_end is not None:
                if chained:
                    gap = rng.randint(config.ride_gap_min, config.ride_gap_max)
                    start = prev_end + ((gap + config.ell - 1) // config.ell) * config.ell
                else:
                    start = config.day_start + rng.choice((0, 10, 20))
            start = max(start, half)
            deps = [start]
            for dt in dts:
                deps.append(deps[-1] + dt)
            prev_end = deps[-1]
            rides.append(Ride(
                id=f"L{li}R{ri}",
                line_id=f"L{li}",
                stops=tuple(seq),
                departures=tuple(deps),
                segment_minutes=tuple(dts),
                stations=tuple(tuple(s) for s in sts),
            ))

    return check_instance(Instance(
        rides=tuple(rides),
        stops=tuple(stops),
        legal=config.legal,
        theta_tw=config.theta_tw,
        zeta=config.zeta,
        ell=config.ell,
        exchange_policy=config.exchange_policy,
    ))


# Kept only because the benchmark's workloads unpack (instance, stats); delete
# it once they call synthetic_instance.
def generate_synthetic(config: GeneratorConfig, seed: int) -> tuple[Instance, GraphStats]:
    """``synthetic_instance`` plus the size of its time graph."""
    inst = synthetic_instance(config, seed)
    return inst, graph_stats(build_graph(inst))
