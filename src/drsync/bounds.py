"""Constructive driver-count bounds.

Upper bound: every ride is cut greedily into maximal runs of consecutive
legs whose total driving stays within one continuous-steering allowance,
one fresh driver per run. Lower bounds: total direct steering divided by
the daily steering allowance, and the peak number of rides that are
mandatorily underway at the same minute. The combined lower bound is the
max of the two; neither dominates the other in general.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, POLICY_NONE
from .legality import chunk_count


@dataclass(frozen=True)
class BoundReport:
    ub: int
    lb1: int
    lb2: int
    lb: int
    per_ride_segments: dict[str, int]
    busiest_interval: int | None

    def to_dict(self) -> dict:
        return {
            "ub": self.ub,
            "lb1": self.lb1,
            "lb2": self.lb2,
            "lb": self.lb,
            "per_ride_segments": dict(sorted(self.per_ride_segments.items())),
            "busiest_interval": self.busiest_interval,
        }


def _effective_legs(ride) -> list[int]:
    # At the earliest schedule an arc spans the departure gap, never less
    # than the drive time; group sums must use that or the bound breaks
    # on instances with scheduled dwell.
    return [
        max(ride.segment_minutes[k], ride.departures[k + 1] - ride.departures[k])
        for k in range(ride.n_segments)
    ]


def upper_bound(instance: Instance) -> tuple[int, dict[str, int]]:
    """Driver count that always suffices; also the MIP's driver-pool size."""
    t_cs = instance.legal.t_cs
    per_ride: dict[str, int] = {}
    for ride in instance.rides:
        if instance.exchange_policy == POLICY_NONE:
            # without mid-route handovers each leg needs its own crew member
            per_ride[ride.id] = ride.n_segments
            continue
        groups = 0
        current = 0
        for leg in _effective_legs(ride):
            if leg > t_cs:
                if current > 0:
                    groups += 1
                    current = 0
                groups += chunk_count(leg, t_cs)
            elif current + leg <= t_cs:
                current += leg
            else:
                groups += 1
                current = leg
        if current > 0:
            groups += 1
        per_ride[ride.id] = groups
    return sum(per_ride.values()), per_ride


def lower_bound_steering(instance: Instance) -> int:
    """Total direct drive time over the daily steering allowance, rounded up."""
    total = sum(sum(r.segment_minutes) for r in instance.rides)
    if total == 0:
        return 0
    return chunk_count(total, instance.legal.t_ds)


def lower_bound_parallel(instance: Instance) -> tuple[int, int | None]:
    """Peak count of rides that must be underway simultaneously."""
    half = instance.theta_tw // 2
    events: list[tuple[int, int]] = []
    for ride in instance.rides:
        start = ride.departures[0] + half       # latest possible pickup departure
        end = ride.departures[-1] - half        # earliest possible completion
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
    if not events:
        return 0, None
    events.sort()
    best = 0
    best_at: int | None = None
    level = 0
    for t, delta in events:
        level += delta
        if level > best:
            best = level
            best_at = t
    return best, best_at


def combined_lower_bound(lb1: int, lb2: int) -> int:
    return max(lb1, lb2)


def compute_bounds(instance: Instance) -> BoundReport:
    ub, per_ride = upper_bound(instance)
    lb1 = lower_bound_steering(instance)
    lb2, busiest = lower_bound_parallel(instance)
    return BoundReport(
        ub=ub,
        lb1=lb1,
        lb2=lb2,
        lb=combined_lower_bound(lb1, lb2),
        per_ride_segments=per_ride,
        busiest_interval=busiest,
    )
