"""Constructive driver-count bounds.

Upper bound: every ride is cut greedily into maximal runs of consecutive
legs whose total driving stays within one continuous-steering allowance,
one fresh driver per run.

Lower bounds:

- lb1, total direct steering over the daily steering allowance;
- lb2, the peak number of rides that are mandatorily underway at the same
  minute;
- lb3, the time-window bound below, which is at least max(lb1, lb2).

The combined lower bound is the max of the three.

The time-window bound (lb3)
---------------------------

A plan fixes each ride's stop times inside their windows; a driver covers
a steering arc for its whole duration, terminal dwell included, and the
arcs of one ride follow each other without a gap (a station visit splits
a leg into an in-arc and an out-arc that meet at the station). Write
``h = theta_tw / 2`` and, for leg k of a ride, ``[s, e] = [dep_k - h,
dep_{k+1} + h]`` and ``d`` for its direct drive time.

1. *Mandatory minutes.* Leg k is steered for at least ``d`` minutes, all
   inside ``[s, e]``: its arcs start no earlier than the earliest departure
   from stop k and end no later than the latest departure from stop k+1,
   and their durations add up to at least ``d`` (a station detour only
   lengthens them, since ``in + out >= direct``). So at least
   ``max(0, d - (a - s)+ - (e - b)+)`` of those minutes fall inside any
   window ``[a, b]``; summed over the legs this is ``m(a, b)``.
2. *One driver's share.* Group a driver's steering into periods separated
   by rests that renew continuous steering. A renewing rest is an unbroken
   wait or deadhead block of at least ``t_b`` minutes; a deadhead renews
   only by lasting that long, so it adds no steering time, it only takes
   up time. Each period holds at most ``t_cs`` minutes of steering. If m
   periods steer inside a window of w minutes, the m - 1 rests between
   them lie inside it too, so the driver steers there at most
   ``min(m t_cs, w - (m - 1) t_b)`` minutes. The best m gives
   ``cap(w) = min(t_ds, floor(w / P) t_cs + min(w mod P, t_cs))`` with
   ``P = t_cs + t_b``; ``t_ds`` is the daily allowance.
   Hence at least ``need(a, b) = ceil(m(a, b) / cap(b - a))`` distinct
   drivers steer inside ``[a, b]``.
3. *Instants.* A ride is mandatorily underway from ``dep_0 + h`` (its
   latest start) to ``dep_n - h`` (its earliest end). At a minute t in
   that span some arc of the ride covers ``[t, t + 1)``, and one driver
   steers at most one arc at a time, so the ``level(t)`` rides underway at
   t need that many distinct drivers steering at t: the window ``[t, t]``
   with need ``level(t)``. Its maximum over t is lb2.
4. *Disjoint drivers.* A driver's working span (first to last minute of
   the route) is at most ``t_dw`` and contains every minute it steers or
   rides. A driver who serves ``[a1, b1]`` and ``[a2, b2]`` with
   ``a2 - b1 > t_dw`` would have a longer span, so windows more than
   ``t_dw`` apart are served by disjoint sets of drivers, and their needs
   add up.
5. *Whole crews (policy ``none`` only).* Under ``none``,
   ``check_feasibility`` makes every driver who touches ride r, steering or
   riding along, cover all of its segments, so each is aboard from r's
   first departure to its last. That stretch lasts at most ``W_r``, the
   last stop's latest departure minus the first stop's earliest, so each
   crew member steers at most ``cap(W_r)`` of r's at least ``D_r``
   minutes (its total direct drive time). Ride r therefore has a crew of
   at least ``c_r = max(1, ceil(D_r / cap(W_r)))`` drivers, all aboard r
   at every minute it is mandatorily underway. One driver is aboard one
   bus at a time, so the crews of the rides underway at t are disjoint,
   and the instant ``[t, t]`` needs the sum of their ``c_r``. Step 4
   applies unchanged, since every crew member's span contains t. lb2
   stays the plain count.

lb3 is the largest sum of needs over a chain of windows whose gaps exceed
``t_dw``, found by a dynamic program over windows that start at a leg's
``s`` and end at a leg's ``e`` (every such window, whatever its length),
plus the instant windows at the first and the last minute of each span
over which the (crew-weighted) level stays constant. Every window is
valid on its own, so this choice sets only how tight lb3 is: a span's
other minutes have the same need, its first minute is the best one to
follow an earlier window and its last the best one to precede a later
window. The whole-horizon window alone gives at least lb1 and the best
instant alone gives lb2. Steps 1-4 hold under every exchange policy;
step 5 needs ``none``, and the other policies count each ride once.

The program runs over window starts in time order. For a start a it
sweeps the window ends with the running slope of ``m(a, .)``, which rises
by one at ``e - max(0, d - (a - s)+)`` and falls by one at ``e`` for each
leg; a window ``[a, b]`` extends the best chain whose last window ends
before ``a - t_dw``. It keeps one best chain per window end, so its state
grows with the number of legs, not of windows. At each leg start it
rebuilds and sorts the rises and the falls of the legs that still have
mandatory minutes after it.

A leg start a whose best earlier chain has the same value as that of the
leg start a' swept before it sweeps only the ends b with ``cap(b - a) <
t_ds``. At any later end the cap is saturated for both starts, and
``[a', b]`` contains ``[a, b]``, so it holds at least its mandatory
minutes: ``[a, b]`` extends the same chain value by no more than ``[a',
b]`` did, and the end's best chain, which only ever rises, is already at
least that. If a' skipped the end too, the same holds for the first
start with that chain value, which swept every end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .instance import Instance, LegalParams, POLICY_NONE

# (first minute, last minute, drivers) of one window of the lb3 chain
Window = tuple[int, int, int]


@dataclass(frozen=True)
class BoundReport:
    ub: int
    lb1: int
    lb2: int
    lb3: int
    lb: int
    per_ride_segments: dict[str, int]
    busiest_interval: tuple[Window, ...]   # the windows whose needs add up to lb3

    def to_dict(self) -> dict:
        return {
            "ub": self.ub,
            "lb1": self.lb1,
            "lb2": self.lb2,
            "lb3": self.lb3,
            "lb": self.lb,
            "per_ride_segments": dict(sorted(self.per_ride_segments.items())),
            "busiest_interval": [list(w) for w in self.busiest_interval],
        }


def chunk_count(duration: int, t_cs: int) -> int:
    """Minimum number of <= t_cs chunks a duration must be split into."""
    return -(-duration // t_cs)


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


def _underway_levels(instance: Instance,
                     weights: dict[str, int] | None = None) -> list[tuple[int, int]]:
    """(minute, rides mandatorily underway from it on) wherever that count changes.

    ``weights``, if given, counts each ride that many times (by ride id) instead of once.
    """
    half = instance.theta_tw // 2
    events: list[tuple[int, int]] = []
    for ride in instance.rides:
        start = ride.departures[0] + half       # latest possible pickup departure
        end = ride.departures[-1] - half        # earliest possible completion
        if end > start:
            w = 1 if weights is None else weights[ride.id]
            events.append((start, w))
            events.append((end, -w))
    events.sort()
    levels: list[tuple[int, int]] = []
    level = 0
    for t, delta in events:
        level += delta
        if levels and levels[-1][0] == t:
            levels[-1] = (t, level)
        else:
            levels.append((t, level))
    return levels


def _peak(levels: list[tuple[int, int]]) -> int:
    best = 0
    for _t, level in levels:
        if level > best:
            best = level
    return best


def lower_bound_parallel(instance: Instance) -> int:
    """Peak count of rides that must be underway simultaneously."""
    return _peak(_underway_levels(instance))


def _cap(legal: LegalParams, w: int) -> int:
    """Most minutes one driver can steer inside a window of w minutes."""
    period = legal.t_cs + legal.t_b
    return min(legal.t_ds, w // period * legal.t_cs + min(w % period, legal.t_cs))


@lru_cache(maxsize=8)
def _cap_table(legal: LegalParams) -> tuple[int, ...]:
    """``_cap`` for w = 0, 1, ... up to the first w where it reaches t_ds."""
    caps = [0]
    while caps[-1] < legal.t_ds:
        caps.append(_cap(legal, len(caps)))
    return tuple(caps)


def _min_crew(ride, half: int, legal: LegalParams) -> int:
    """Fewest drivers who can steer a ride that each of them rides end to end (step 5)."""
    longest = ride.departures[-1] - ride.departures[0] + 2 * half
    return max(1, chunk_count(sum(ride.segment_minutes), _cap(legal, longest)))


def lower_bound_windows(instance: Instance,
                        levels: list[tuple[int, int]] | None = None,
                        ) -> tuple[int, tuple[Window, ...]]:
    """lb3 and a chain of windows that attains it (see the module docstring).

    ``levels`` are the instance's unweighted ``_underway_levels``, if the
    caller has them; under policy ``none`` the crew-weighted ones are built.
    """
    legal = instance.legal
    half = instance.theta_tw // 2
    legs: list[tuple[int, int, int]] = []   # (s, mandatory minutes, e)
    total = 0
    for ride in instance.rides:
        deps = ride.departures
        for k, d in enumerate(ride.segment_minutes):
            s, e = deps[k] - half, deps[k + 1] + half
            # a leg longer than its interval makes the instance infeasible;
            # counting only e - s of it keeps the bound valid and the sweep simple
            legs.append((s, min(d, e - s), e))
            total += d
    if not legs:
        return 0, ()
    legs.sort()
    first = legs[0][0]
    last = max(e for _s, _d, e in legs)
    caps = _cap_table(legal)
    n_caps, t_ds, t_dw = len(caps), legal.t_ds, legal.t_dw

    if instance.exchange_policy == POLICY_NONE:
        levels = _underway_levels(
            instance, {ride.id: _min_crew(ride, half, legal) for ride in instance.rides})
    elif levels is None:
        levels = _underway_levels(instance)
    # instant windows at the first and the last minute of each level's span
    peaks = {}
    for (t, level), (t_next, _next) in zip(levels, levels[1:]):
        if level > 0:
            peaks[t] = peaks[t_next - 1] = level
    leg_starts = {s for s, _d, _e in legs}
    leg_ends = {e for _s, _d, e in legs}
    ends = sorted(leg_ends.union(peaks))
    end_pos = {t: j for j, t in enumerate(ends)}
    sweep = [(t, j) for j, t in enumerate(ends) if t in leg_ends]   # steering windows end here
    sweep_t = [t for t, _j in sweep]
    best = [0] * len(ends)               # best chain whose last window ends at ends[j]
    chain: list[tuple | None] = [None] * len(ends)   # its windows, latest first
    f, f_chain = 0, None                 # best chain over ends[:closed]
    closed = 0
    rise_at = [e - d for _s, d, e in legs]   # where m(a, .) starts to rise, for s >= a
    fall_at = [e for _s, _d, e in legs]
    begun: list[tuple[int, int, int]] = []   # legs with s < a and minutes left after a
    opened = 0                               # legs[:opened] have s < a
    swept_f = None                           # f when the last leg start was swept
    for a in sorted(leg_starts.union(peaks)):
        while closed < len(ends) and ends[closed] < a - t_dw:
            if best[closed] > f:
                f, f_chain = best[closed], chain[closed]
            closed += 1
        level = peaks.get(a)
        if level is not None:
            j = end_pos[a]
            if f + level > best[j]:
                best[j] = f + level
                chain[j] = ((a, a, level), f_chain)
        if a not in leg_starts:
            continue
        while opened < len(legs) and legs[opened][0] < a:
            begun.append(legs[opened])
            opened += 1
        begun = [leg for leg in begun if leg[0] + leg[1] > a]
        rises = sorted([e - d + a - s for s, d, e in begun] + rise_at[opened:])
        falls = sorted([e for _s, _d, e in begun] + fall_at[opened:])
        n_rises, n_falls = len(rises), len(falls)
        ir = i_f = 0
        sum_r = sum_f = 0
        # with the chain value unchanged, ends past the saturated cap are
        # dominated by the start before (module docstring)
        hi = len(sweep) if f != swept_f else bisect_right(sweep_t, a + n_caps - 2)
        swept_f = f
        for b, j in sweep[bisect_right(sweep_t, a):hi]:
            while ir < n_rises and rises[ir] <= b:
                sum_r += rises[ir]
                ir += 1
            while i_f < n_falls and falls[i_f] <= b:
                sum_f += falls[i_f]
                i_f += 1
            minutes = (ir - i_f) * b - sum_r + sum_f
            if minutes > 0:
                w = b - a
                v = f - (-minutes // (caps[w] if w < n_caps else t_ds))
                if v > best[j]:
                    best[j] = v
                    chain[j] = ((a, b, v - f), f_chain)
    for j in range(closed, len(ends)):
        if best[j] > f:
            f, f_chain = best[j], chain[j]
    windows: list[Window] = []
    while f_chain is not None:
        windows.append(f_chain[0])
        f_chain = f_chain[1]
    whole = chunk_count(total, _cap(legal, last - first))
    if whole > f:
        return whole, ((first, last, whole),)
    return f, tuple(reversed(windows))


def compute_bounds(instance: Instance) -> BoundReport:
    ub, per_ride = upper_bound(instance)
    lb1 = lower_bound_steering(instance)
    levels = _underway_levels(instance)
    lb2 = _peak(levels)
    lb3, windows = lower_bound_windows(instance, levels)
    return BoundReport(
        ub=ub,
        lb1=lb1,
        lb2=lb2,
        lb3=lb3,
        lb=max(lb1, lb2, lb3),
        per_ride_segments=per_ride,
        busiest_interval=windows,
    )
