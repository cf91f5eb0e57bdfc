"""Greedy construction and composite-neighborhood local search.

Construction fixes vehicle plans first (earliest departures, station-free
except where a segment has no direct leg), then assigns drivers greedily:
reuse whoever is available at the start of a piece, steer until the route
ends or the steering allowance runs out, then either wait for a
break-sized gap or stay aboard to the terminal. A piece is one of the
graph's steering arcs, the object itself: the greedy steers it by its id
and rides along on its ``twin``.

A vehicle plan is each ride's chain of steering arcs, and the time graph
alone decides which chains are legal: construction and the station
insertions take the earliest chain (``_leg_end``), a shift looks each arc
up a grid step away (``_shifted``), and a station removal asks for the
direct arc. No operator reads a departure window.

The local search has one strategy, the paper's composite neighborhood:
every iteration calls all seven problem-specific operators on a frozen
solution (all but segment reassignment at the driver bound, below);
randomized choices are skewed by the perturbation exponent p.
Each operator call gets its own seed. Only the station insertions draw,
and each seeds its stream once it has a segment to draw from.
Operators check no candidate's feasibility, and the plan operators leave
out only moves known never to improve (below). The search ranks the
improving candidates by driver count, then remaining working time, and
accepts the first that passes the full feasibility check, so only the
accepted move is certified. Segment reassignment takes the plan's pieces
and itineraries from the plan's one ``ConnectionPlanner``, whose carriers
are in chronological order: it tests trial insertions on cached
piece-to-piece links (``link``) and asks for itineraries (``connect``) only
when it builds a candidate's routes. Both come from ``solution.itinerary``,
the relocation call the branch-and-bound shares.
The plan operators
(postpone, prepone, the station insertions and removal) change one ride,
then crew the changed plan by running the greedy driver assignment on it.
Each distinct neighbouring plan is crewed once: the solution's ``memo``
keeps the greedy's answers, and segment reassignment's moves keep the plan
and so share the memo. The search clears the memo when it moves to another
plan and when it returns. The search's end, ``SearchConfig.t_end``, is
checked between operators and inside the backtracking of segment
reassignment.

Two kinds of plan move are known not to improve without a greedy run, and
both are exact:

- Shifting the only ride of a solution the greedy built moves every time
  of the plan by the same step. The greedy reads only differences of
  times (the limits in ``_fits``, the rest in ``rested_u``, the relief's
  look-ahead, spans), so the driver count and the remaining working time
  stay as they are: never an improvement, so ``_shift`` offers none.
- A one-driver solution is beaten only by a one-driver candidate with more
  remaining working time, and one driver keeps at most ``t_dw`` minus the
  span of the plan (last arrival minus first departure). So a move whose
  plan spans ``t_dw - theta`` of the solution or more (``_ceiling``) never
  improves it: ``_shift`` offers no such shift, and since an insertion or
  a removal moves no time earlier, the station operators offer nothing
  once the solution's own plan spans that much.

The search also stops at the driver bound. ``lb``, the larger of lb1 and
lb2 of the instance searched (``bounds``), is at most the driver count of
every feasible solution. At ``f0 <= lb`` drivers, then:

- segment reassignment is not called: each of its candidates has
  ``f0 - 1`` drivers, and none can pass the feasibility check;
- a candidate can improve only on theta, which for f0 drivers is
  ``f0 * t_dw`` minus the sum of their spans. Each driver's span holds
  that driver's steering, one arc at a time, and a ride's arcs tile its
  first departure to its last arrival, so the spans add up to at least
  the plan's steering time (``_steering``). No plan move lowers it: a
  shift and a removal keep it, and an insertion only pushes times later.
  So once ``f0 * t_dw`` minus the current plan's steering time is at most
  theta, no move improves, and the search returns at once. With one
  driver the span-based ``_ceiling`` above is tighter, and both stay.
"""

from __future__ import annotations

import random
import time as _time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .bounds import lower_bound_parallel, lower_bound_steering
from .instance import Instance, POLICY_FULL, POLICY_NONE
from .solution import (
    LINK_NONE,
    LINK_RENEW,
    ConnectionPlanner,
    Solution,
    assemble_route,
    check_feasibility,
    plan_pieces,
)
from .timegraph import FAMILY_STEERING, LEG_DIRECT, LEG_IN, LEG_OUT, TimedArc, TimeGraph


class ConstructionError(Exception):
    """No feasible vehicle plan or crew exists for some ride."""


class _Expired(Exception):
    """An operator ran past the search's deadline."""


@dataclass(frozen=True)
class SearchConfig:
    p: float = 3.0
    seed: int = 0
    # the search's end on the ``_time.monotonic()`` clock; None runs it to
    # a local optimum
    t_end: float | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")


def perturbed_select(n: int, p: float, rng: random.Random) -> int:
    """Index floor(y^p * n) with y uniform in [0, 1): skewed to the front."""
    if n < 1:
        raise ValueError("empty selection")
    y = rng.random()
    return min(int(y ** p * n), n - 1)


# ---------------------------------------------------------------------------
# Vehicle plan construction
# ---------------------------------------------------------------------------

def _leg_end(graph: TimeGraph, rid: str, k: int, station: str | None, node: int,
             not_before: int) -> tuple[TimedArc, ...] | None:
    """The earliest steering chain for segment `k` of ride `rid` from `node`
    that ends no earlier than `not_before`: the direct arc, or the in-arc
    and an out-arc via `station`; None if there is none. The arcs from one
    tail come by rising head time, so the first that fits is it."""
    arcs = graph.arcs
    chain: tuple[TimedArc, ...] = ()
    if station is None:
        outs = graph.seg_direct[(rid, k)]
    else:
        arc_in = next((arc for a in graph.seg_in.get((rid, k, station), ())
                       if (arc := arcs[a]).tail == node), None)
        if arc_in is None:
            return None
        node, chain = arc_in.head, (arc_in,)
        outs = graph.seg_out[(rid, k, station)]
    last = next((arc for a in outs
                 if (arc := arcs[a]).tail == node and arc.end >= not_before), None)
    return None if last is None else (*chain, last)


def earliest_plan(instance: Instance, graph: TimeGraph) -> dict[str, tuple[TimedArc, ...]]:
    """Earliest departures read off the steering arcs: from the first stop's
    earliest copy, each segment's earliest direct leg, else its earliest leg
    via the first station by (detour, id) that has one."""
    plan: dict[str, tuple[TimedArc, ...]] = {}
    for ride in instance.rides:
        t, node = graph.starts[ride.id][0]
        chain: tuple[TimedArc, ...] = ()
        for k, direct in enumerate(ride.segment_minutes):
            vias = sorted(ride.stations[k], key=lambda a: (a.detour(direct), a.station_id))
            for station in [None] + [a.station_id for a in vias]:
                legs = _leg_end(graph, ride.id, k, station, node, t)
                if legs is not None:
                    break
            else:
                raise ConstructionError(
                    f"ride {ride.id} segment {k}: no coverable departure exists")
            chain += legs
            node, t = legs[-1].head, legs[-1].end
        plan[ride.id] = chain
    return plan


# ---------------------------------------------------------------------------
# Driver assignment (the greedy core, reused after every plan change)
# ---------------------------------------------------------------------------

class _Sim:
    __slots__ = ("base", "time", "u", "daily", "start", "elements")

    def __init__(self, base, time):
        self.base = base
        self.time = time
        self.u = 0
        self.daily = 0
        self.start = time
        self.elements: list[tuple] = []

    def rested_u(self, at_time: int, t_b: int) -> int:
        return 0 if at_time - self.time >= t_b else self.u

    def wait(self, until: int, t_b: int) -> None:
        """Stand at the base until `until`; a break-sized wait renews steering."""
        if self.time < until:
            self.elements.append(("wait", self.base, self.time, until))
            self.u = self.rested_u(until, t_b)
            self.time = until


def _fits(sim: _Sim, u_eff: int, piece, legal) -> bool:
    d = piece.duration
    return (u_eff + d <= legal.t_cs and sim.daily + d <= legal.t_ds
            and piece.end - sim.start <= legal.t_dw)


def assign_drivers(instance: Instance, graph: TimeGraph,
                   plan: dict[str, tuple[TimedArc, ...]]) -> Solution:
    """Greedy driver assignment over a fixed vehicle plan; always feasible.

    The greedy walks the vehicle routes (each ride's steering arcs as the
    plan holds them) by ``(first departure, ride id)`` and hands each
    route's pieces to drivers. The solution keeps `plan` as given.
    """
    legal = instance.legal
    drivers: list[_Sim] = []
    at_base: dict[str, list[int]] = {}   # base -> drivers standing there, in creation order
    order = sorted(plan, key=lambda rid: (plan[rid][0].start, rid))
    if instance.exchange_policy == POLICY_NONE:
        for rid in order:
            _assign_none(drivers, at_base, plan[rid], legal)
    else:
        departures_from: dict[str, list[int]] = {}
        for p in plan_pieces(instance, plan):   # chronological, so each list comes out sorted
            departures_from.setdefault(p.from_base, []).append(p.start)
        for rid in order:
            _assign_exchange(drivers, at_base, plan[rid], legal, departures_from)
    sol = Solution(graph, [assemble_route(graph, sim.elements)
                           for sim in drivers if sim.elements], plan)
    sol.by_greedy = True
    return sol


def _take(sim: _Sim, vp, pos, legal) -> int:
    """Steer from piece `pos` of route `vp` while the limits allow; the next position."""
    sim.wait(vp[pos].start, legal.t_b)
    while pos < len(vp) and _fits(sim, sim.u, vp[pos], legal):
        p = vp[pos]
        sim.elements.append(("steer", p.id))
        sim.u += p.duration
        sim.daily += p.duration
        sim.base, sim.time = p.to_base, p.end
        pos += 1
    return pos


def _ride_along(sim: _Sim, vp, until: int, legal) -> None:
    """Ride aboard route `vp` from now until `until`, deadheading the pieces
    that start in between; a ride of at least a break renews steering."""
    for p in vp:
        if sim.time <= p.start < until:
            sim.elements.append(("deadhead", p.twin))
            sim.base = p.to_base
    if until - sim.time >= legal.t_b:
        sim.u = 0
    sim.time = until


def _refile(at_base, di: int, old: str, new: str) -> None:
    """Move driver `di` from `old` to `new` in the base index, keeping creation order."""
    if new != old:
        at_base[old].remove(di)
        insort(at_base.setdefault(new, []), di)


def _assign_exchange(drivers, at_base, vp, legal, departures_from) -> None:
    """Crew route `vp`: the first available driver steers on.

    ``at_base`` lists the drivers standing at each base, so the first fit
    in creation order is found among those at the piece's base only.
    """
    pos = 0
    while pos < len(vp):
        p = vp[pos]
        pick = None
        for si in at_base.get(p.from_base, ()):
            sim = drivers[si]
            if sim.time <= p.start and _fits(sim, sim.rested_u(p.start, legal.t_b), p, legal):
                pick = si
                break
        if pick is None:
            drivers.append(_Sim(p.from_base, p.start))
            pick = len(drivers) - 1
            at_base.setdefault(p.from_base, []).append(pick)
        sim = drivers[pick]
        pos = _take(sim, vp, pos, legal)
        if pos < len(vp):
            _relieve(sim, vp, departures_from, legal)
        _refile(at_base, pick, p.from_base, sim.base)


def _relieve(sim: _Sim, vp, departures_from, legal) -> None:
    """Relieved mid-route: wait here for a break-sized gap, else ride along."""
    now = sim.time
    times = departures_from.get(sim.base, ())
    i = bisect_right(times, now)
    nxt = times[i] if i < len(times) else None
    wait_ok = nxt is not None and legal.t_b <= nxt - now <= 4 * legal.t_b
    span_ok = vp[-1].end - sim.start <= legal.t_dw
    if wait_ok or not span_ok:
        return  # stay idle; a later takeover emits the waiting chain
    _ride_along(sim, vp, vp[-1].end, legal)


def _assign_none(drivers, at_base, vp, legal) -> None:
    """Crew route `vp` with drivers who all stay aboard to its terminal.

    Every crew member boards at the route's first base and start; whoever
    steers next rides along to the piece, then steers on. The crew leaves
    at the terminal, so ``at_base`` is brought up to date once, at the end;
    until then a crew member may still be listed at the first base, but is
    past the route's start and is skipped.
    """
    start_b, start_t = vp[0].from_base, vp[0].start
    term_t = vp[-1].end
    if term_t - start_t > legal.t_dw:
        raise ConstructionError(
            f"ride {vp[0].ride}: span {term_t - start_t} exceeds the daily "
            "working limit for an aboard crew")
    if any(p.duration > legal.t_cs for p in vp):
        raise ConstructionError(
            f"ride {vp[0].ride}: a leg exceeds continuous steering and "
            "stations are disabled under this exchange policy")
    crew: list[int] = []
    pos = 0
    while pos < len(vp):
        p = vp[pos]
        di = next((di for di in crew
                   if _fits(drivers[di], drivers[di].rested_u(p.start, legal.t_b), p, legal)),
                  None)
        if di is None:
            renewed = p.start - start_t >= legal.t_b   # by the ride from the start to `p`
            for si in at_base.get(start_b, ()):
                sim = drivers[si]
                if (sim.time <= start_t and term_t - sim.start <= legal.t_dw
                        and _fits(sim, 0 if renewed else sim.rested_u(start_t, legal.t_b),
                                  p, legal)):
                    di = si
                    break
            else:
                drivers.append(_Sim(start_b, start_t))
                di = len(drivers) - 1
                at_base.setdefault(start_b, []).append(di)
            drivers[di].wait(start_t, legal.t_b)
            crew.append(di)
        sim = drivers[di]
        _ride_along(sim, vp, p.start, legal)
        pos = _take(sim, vp, pos, legal)
    for di in crew:
        _ride_along(drivers[di], vp, term_t, legal)
        _refile(at_base, di, start_b, drivers[di].base)


def construct(instance: Instance, graph: TimeGraph) -> Solution:
    """Greedy start solution: earliest plan, then driver assignment."""
    return assign_drivers(instance, graph, earliest_plan(instance, graph))


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _chain_legal(legal, planner, chain) -> bool:
    """Whether one driver can steer the pieces at positions `chain`, in order."""
    pieces = planner.pieces
    first = pieces[chain[0]]
    u = daily = first.duration
    prev = chain[0]
    for b in chain[1:]:
        code = planner.link(prev, b)
        if code == LINK_NONE:
            return False
        p = pieces[b]
        u0 = 0 if code == LINK_RENEW else u
        if (u0 + p.duration > legal.t_cs or daily + p.duration > legal.t_ds
                or p.end - first.start > legal.t_dw):
            return False
        u = u0 + p.duration
        daily += p.duration
        prev = b
    return True


def _chain_elements(planner, chain) -> list[tuple]:
    """Timeline of a driver steering the pieces at a legal `chain`."""
    pieces = planner.pieces
    elements: list[tuple] = [("steer", pieces[chain[0]].id)]
    for a, b in zip(chain, chain[1:]):
        pa, pb = pieces[a], pieces[b]
        _reachable, _renewable, steps = planner.connect(
            pa.to_base, pa.end, pb.from_base, pb.start)
        elements += steps + [("steer", pb.id)]
    return elements


def _splits_a_ride(pieces, chain, n_segments) -> bool:
    """Whether the pieces at `chain` steer some ride without all its segments."""
    steered: dict[str, set[int]] = {}
    for i in chain:
        steered.setdefault(pieces[i].ride, set()).add(pieces[i].segment)
    return any(len(segs) != n_segments[rid] for rid, segs in steered.items())


def operator_reassign_segments(solution, instance, graph, config, seed) -> list[Solution]:
    """Remove one driver by absorbing their pieces into the other routes."""
    if len(solution.routes) < 2:
        return []
    legal, t_dw = instance.legal, instance.legal.t_dw
    # links and itineraries depend only on the plan, so the planner built for
    # one solution serves every candidate that only moves drivers between routes
    links = solution.links or ConnectionPlanner(instance, plan_pieces(instance, solution.plan))
    # pieces are in chronological order, so a sorted host is a sorted position list
    pieces = links.pieces
    pos = {p.id: i for i, p in enumerate(pieces)}
    per_driver = [[pos[a] for a in route if graph.arcs[a].family == FAMILY_STEERING]
                  for route in solution.routes]
    n_segments = ({r.id: r.n_segments for r in instance.rides}
                  if instance.exchange_policy == POLICY_NONE else None)
    rebuilt: dict[tuple[int, ...], tuple[int, ...] | None] = {}

    def route_of(chain):
        key = tuple(chain)
        if key not in rebuilt:
            rebuilt[key] = (assemble_route(graph, _chain_elements(links, chain))
                            if _chain_legal(legal, links, chain) else None)
        return rebuilt[key]

    t_end = config.t_end
    out = []
    for victim in range(len(per_driver)):
        hosts = [list(dp) for di, dp in enumerate(per_driver) if di != victim]

        def place(i) -> bool:
            if i == len(per_driver[victim]):
                return True
            if t_end is not None and _time.monotonic() >= t_end:
                raise _Expired
            piece = per_driver[victim][i]
            for h in hosts:
                # cheap rejections first, each one the chain walk would make
                # too: the span from the first piece to the last, then the
                # two new links (positions are chronological)
                if h:
                    first = h[0] if h[0] < piece else piece
                    last = h[-1] if h[-1] > piece else piece
                    if pieces[last].end - pieces[first].start > t_dw:
                        continue
                at = bisect_left(h, piece)
                if ((at and links.link(h[at - 1], piece) == LINK_NONE)
                        or (at < len(h) and links.link(piece, h[at]) == LINK_NONE)):
                    continue
                h.insert(at, piece)
                if _chain_legal(legal, links, h) and place(i + 1):
                    return True
                del h[at]
            return False

        try:
            if not place(0):
                continue
        except _Expired:
            break   # past the deadline: hand back the moves found so far
        if n_segments is not None and any(_splits_a_ride(pieces, h, n_segments)
                                          for h in hosts):
            continue   # under no exchange a driver steers whole rides
        routes = [route_of(h) for h in hosts]
        if None not in routes:
            out.append(Solution(graph, routes, solution.plan))
            out[-1].links = links
            out[-1].memo = solution.memo
    return out


def _replan(solution, instance, graph, ride, chain: tuple[TimedArc, ...]) -> Solution | None:
    """The greedy's solution once `ride` steers `chain`; None if it has none.

    The solution's memo answers a change asked for before on its plan. The
    one copy of the plan made here is the candidate's.
    """
    key = (ride.id, tuple(p.id for p in chain))
    memo = solution.memo
    if key in memo:
        return memo[key]
    plan = dict(solution.plan)
    plan[ride.id] = chain
    try:
        cand = assign_drivers(instance, graph, plan)
    except ConstructionError:
        cand = None   # the changed ride's crew breaks a limit
    memo[key] = cand
    return cand


def _ceiling(solution, instance) -> int | None:
    """The plan span from which no plan move improves `solution` (module
    docstring), or None where `solution` has more than one driver.

    It reads `solution`'s theta, not its plan's span: a route from
    elsewhere (an exact-search incumbent) may start before the plan's
    first departure, and then a plan as long as this one can improve it.
    """
    if solution.objective != 1:
        return None
    return instance.legal.t_dw - solution.theta()


def _span(plan) -> int:
    """Last arrival minus first departure of `plan`."""
    return (max(pieces[-1].end for pieces in plan.values())
            - min(pieces[0].start for pieces in plan.values()))


def _steering(plan) -> int:
    """The plan's steering time: each ride's last arrival minus its first departure."""
    return sum(pieces[-1].end - pieces[0].start for pieces in plan.values())


def _at_ceiling(solution, instance) -> bool:
    """Whether `solution`'s own plan spans its ceiling, so that no plan move
    that moves no time earlier improves it."""
    ceiling = _ceiling(solution, instance)
    return ceiling is not None and _span(solution.plan) >= ceiling


def _shifted(graph, pieces, delta) -> tuple[TimedArc, ...] | None:
    """`pieces` moved by `delta` minutes: for each arc, the arc of the same
    ride, segment, leg and station `delta` later; None where the graph has
    none, which is where a moved departure leaves its window."""
    idx, arcs = graph.steer_idx, graph.arcs
    out = []
    for p in pieces:
        aid = idx.get((p.ride, p.segment, p.leg, p.station, p.start + delta, p.end + delta))
        if aid is None:
            return None
        out.append(arcs[aid])
    return tuple(out)


def _shift(solution, instance, graph, delta) -> list[Solution]:
    """Each ride's departures moved by `delta`, where the graph has the
    moved arcs (``_shifted``).

    The only ride of a solution the greedy built is not shifted: that moves
    every time of the plan by `delta`, and the greedy reads only differences
    of times, so the driver count and the remaining working time would stay
    as they are. Such a candidate is never strictly better, and so never
    accepted. A solution from elsewhere may be worse than the greedy's on
    its plan, and then the shift is a way to the greedy's. Nor is a ride
    shifted where the shifted plan spans the ceiling of a one-driver
    solution (``_ceiling``).
    """
    if len(instance.rides) < 2 and solution.by_greedy:
        return []
    ceiling = _ceiling(solution, instance)
    out = []
    for ride in sorted(instance.rides, key=lambda r: r.id):
        shifted = _shifted(graph, solution.plan[ride.id], delta)
        if shifted is None:
            continue
        if ceiling is not None and _span({**solution.plan, ride.id: shifted}) >= ceiling:
            continue
        cand = _replan(solution, instance, graph, ride, shifted)
        if cand is not None:
            out.append(cand)
    return out


def operator_postpone(solution, instance, graph, config, seed) -> list[Solution]:
    """Delay one ride's departures by one discretization step."""
    return _shift(solution, instance, graph, instance.ell)


def operator_prepone(solution, instance, graph, config, seed) -> list[Solution]:
    """Advance one ride's departures by one discretization step."""
    return _shift(solution, instance, graph, -instance.ell)


def _insertable_segments(solution, instance):
    """Station-free segments with a station the graph has arcs via, longest first.

    The scan depends on the plan alone, so it is kept on the solution.
    """
    if solution.insertable is not None:
        return solution.insertable
    rides = {r.id: r for r in instance.rides}
    seg_in = solution.graph.seg_in
    segs = []
    for rid, pieces in solution.plan.items():
        ride = rides[rid]
        for p in pieces:
            if p.leg != LEG_DIRECT:
                continue
            k = p.segment
            accs = [a for a in ride.stations[k] if (rid, k, a.station_id) in seg_in]
            if accs:
                segs.append((p.duration, rid, k, ride, accs))
    segs.sort(key=lambda s: (-s[0], s[1], s[2]))
    solution.insertable = segs
    return segs


def _retime(graph, ride, node, ends, stations) -> tuple[TimedArc, ...] | None:
    """`ride`'s steering chain from `node`, each segment `k` along the
    earliest chain via `stations[k]` that leaves where the one before ends
    and ends no earlier than `ends[k]`; None where a segment has no such
    chain."""
    chain: tuple[TimedArc, ...] = ()
    for k, (station, not_before) in enumerate(zip(stations, ends)):
        legs = _leg_end(graph, ride.id, k, station, node, not_before)
        if legs is None:
            return None
        chain += legs
        node = legs[-1].head
    return chain


def _insert_station(solution, instance, graph, config, seed, order_fn) -> list[Solution]:
    # an insertion moves no time earlier, so its plan spans at least this one
    if instance.exchange_policy != POLICY_FULL or _at_ceiling(solution, instance):
        return []
    segs = _insertable_segments(solution, instance)
    if not segs:
        return []
    # seeded only here: most calls return above, and seeding costs more than they do
    rng = random.Random(seed)
    _dur, rid, k, ride, accs = segs[perturbed_select(len(segs), config.p, rng)]
    accs = order_fn(list(accs), ride, k, rng)
    acc = accs[perturbed_select(len(accs), config.p, rng)]
    pieces = solution.plan[rid]
    # each segment's station (None on a direct arc) and end
    stations = [p.station for p in pieces if p.leg != LEG_OUT]
    stations[k] = acc.station_id
    chain = _retime(graph, ride, pieces[0].tail, [p.end for p in pieces if p.leg != LEG_IN],
                    stations)
    if chain is None:
        return []
    cand = _replan(solution, instance, graph, ride, chain)
    return [] if cand is None else [cand]


def operator_insert_stop_random(solution, instance, graph, config, seed) -> list[Solution]:
    """Split a long leg at a station chosen uniformly."""
    def order(accs, ride, k, rng):
        rng.shuffle(accs)
        return accs
    return _insert_station(solution, instance, graph, config, seed, order)


def operator_insert_stop_shortest_detour(solution, instance, graph, config, seed) -> list[Solution]:
    """Split a long leg, favoring the station with the smallest detour."""
    def order(accs, ride, k, _rng):
        return sorted(accs, key=lambda a: (a.detour(ride.segment_minutes[k]), a.station_id))
    return _insert_station(solution, instance, graph, config, seed, order)


def operator_insert_stop_highest_sync(solution, instance, graph, config, seed) -> list[Solution]:
    """Split a long leg, favoring stations other routes already pass."""
    def order(accs, ride, k, _rng):
        # counted only once some segment is insertable
        arcs = solution.graph.arcs
        visits: dict[str, int] = {}
        for route in solution.routes:
            # each end of a route once more, where its depot arc meets it
            bases = [arcs[route[0]].from_base, arcs[route[-1]].to_base]
            for aid in route:
                bases += (arcs[aid].from_base, arcs[aid].to_base)
            for b in bases:
                visits[b] = visits.get(b, 0) + 1
        return sorted(accs, key=lambda a: (-visits.get(a.station_id, 0), a.station_id))
    return _insert_station(solution, instance, graph, config, seed, order)


def operator_remove_stop(solution, instance, graph, config, seed) -> list[Solution]:
    """Drop a station visit wherever the direct leg is available."""
    if _at_ceiling(solution, instance):
        return []   # a removal keeps every time, and so the plan's span
    rides = {r.id: r for r in instance.rides}
    out = []
    for rid in sorted(solution.plan):
        pieces = solution.plan[rid]
        for i, p in enumerate(pieces):
            if p.leg != LEG_IN:
                continue
            # the in-leg and its out-leg give way to the direct arc between their ends
            aid = graph.steer_idx.get((rid, p.segment, LEG_DIRECT, None, p.start,
                                       pieces[i + 1].end))
            if aid is None:
                continue
            chain = pieces[:i] + (graph.arcs[aid],) + pieces[i + 2:]
            cand = _replan(solution, instance, graph, rides[rid], chain)
            if cand is not None:
                out.append(cand)
    return out


OPERATORS = (
    operator_reassign_segments,
    operator_postpone,
    operator_prepone,
    operator_insert_stop_random,
    operator_insert_stop_shortest_detour,
    operator_insert_stop_highest_sync,
    operator_remove_stop,
)
# segment reassignment's place in OPERATORS; found by position, since a
# wrapper may stand in for the function
_REASSIGN = 0


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def _op_seed(config: SearchConfig, iteration: int, op_index: int) -> int:
    return config.seed * 1000003 + iteration * 101 + op_index


def _routes_key(arcs: list, routes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The routes in the order they had between the paper's depot arcs: a
    source arc's id rises with its head node, and a sink arc's exceeds
    every real arc's."""
    return [(arcs[r[0]].tail, *r, len(arcs)) for r in routes]


def local_search(solution: Solution, instance: Instance, graph: TimeGraph,
                 config: SearchConfig | None = None,
                 trace: list[tuple[int, int]] | None = None, lb: int | None = None) -> Solution:
    """Lexicographic descent on (driver count, -remaining working time).

    It stops at the first iteration that improves nothing, or before an
    iteration that the driver bound shows cannot improve (module
    docstring); at the bound it does not call segment reassignment.
    ``lb`` is that bound, max(lb1, lb2) of `instance`, if the caller has it.
    The memo of the current plan lives only while the search stays on that
    plan; none outlives the search.
    """
    config = config or SearchConfig()
    t_end = config.t_end
    t_dw = instance.legal.t_dw
    if lb is None:
        lb = max(lower_bound_steering(instance), lower_bound_parallel(instance))
    current = solution
    f0, th0 = current.objective, current.theta()
    if trace is not None:
        trace.append((f0, th0))
    iteration = 0
    try:
        while t_end is None or _time.monotonic() < t_end:
            at_bound = f0 <= lb
            if at_bound and f0 * t_dw - _steering(current.plan) <= th0:
                return current   # no move can raise theta, nor drop a driver
            pool: list[Solution] = []
            for oi, op in enumerate(OPERATORS):
                if oi and t_end is not None and _time.monotonic() >= t_end:
                    return current   # the end passed inside this iteration
                if at_bound and oi == _REASSIGN:
                    continue   # its candidates have fewer drivers than the bound
                pool.extend(op(current, instance, graph, config,
                               _op_seed(config, iteration, oi)))
            better = sorted(
                (c for c in pool if c.objective < f0 or (c.objective == f0 and c.theta() > th0)),
                key=lambda c: (c.objective, -c.theta(), _routes_key(graph.arcs, c.routes)))
            # the best improving move that passes the full check is the one taken
            accepted = next((c for c in better if not check_feasibility(c, instance, graph)),
                            None)
            if accepted is None:
                break
            iteration += 1
            if accepted.memo is not current.memo:
                current.memo.clear()   # another plan: its neighbours are asked no more
            current = accepted
            f0, th0 = current.objective, current.theta()
            if trace is not None:
                trace.append((f0, th0))
        return current
    finally:
        current.memo.clear()
