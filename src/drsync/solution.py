"""Solution representation, feasibility checking, and route plumbing.

A solution is a set of driver routes over the time graph, each the arcs
from the driver's first located time to its last (the depot arcs to and
from them are implicit, see ``timegraph``). The vehicle side is captured
by a plan: per ride, the chosen departure minute of every stop and the
station (if any) inserted into each segment. A plan's pieces are the graph's own steering arcs
(``TimedArc``, with their located ends); every piece must be steered by
exactly one driver.

A driver gets from one located time to another by waiting and
deadheading through one call, ``itinerary``. Local search asks it through
``ConnectionPlanner``, and the branch-and-bound (``mip``) asks it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import NamedTuple

from .instance import Instance, POLICY_NONE
from .timegraph import (
    DEPOT,
    FAMILY_DEADHEAD,
    FAMILY_DEPOT,
    FAMILY_STEERING,
    FAMILY_WAITING,
    LEG_DIRECT,
    LEG_IN,
    LEG_OUT,
    TimedArc,
    TimeGraph,
)


class SolutionStructureError(Exception):
    """A route is not a well-formed path over existing arcs."""


class PlanError(Exception):
    """A plan references timings or stations the graph does not admit: only
    a plan made by hand, since the solvers read theirs off the arcs."""


@dataclass(frozen=True)
class Violation:
    kind: str      # uncovered_segment | continuous_steering | daily_steering |
                   # daily_working | break_too_short | desync | detour
    subject: str   # driver or ride identifier
    detail: int    # minutes over limit, or a count for structural kinds


class RidePlan(NamedTuple):
    """A ride's departure minute at every stop and the station, if any, in
    each segment. A tuple, so that hashing it as a dict key stays in C."""

    times: tuple[int, ...]
    stations: tuple[str | None, ...]


_LEG_RANK = {LEG_IN: 0, LEG_DIRECT: 1, LEG_OUT: 2}


def _expand_ride(graph: TimeGraph, ride, rp: RidePlan, pieces: list[TimedArc]) -> None:
    """Append the steering arcs of one ride's plan to `pieces`."""
    idx, arcs = graph.steer_idx, graph.arcs
    rid = ride.id
    for k in range(ride.n_segments):
        t0, t1 = rp.times[k], rp.times[k + 1]
        st = rp.stations[k]
        if st is None:
            arc = idx.get((rid, k, LEG_DIRECT, None, t0, t1))
            if arc is None:
                raise PlanError(f"ride {rid} segment {k}: no direct arc {t0}->{t1}")
            pieces.append(arcs[arc])
        else:
            acc = next((x for x in ride.stations[k] if x.station_id == st), None)
            if acc is None:
                raise PlanError(f"ride {rid} segment {k}: station {st} not admissible")
            ts = t0 + acc.minutes_in
            arc_in = idx.get((rid, k, LEG_IN, st, t0, ts))
            arc_out = idx.get((rid, k, LEG_OUT, st, ts, t1))
            if arc_in is None or arc_out is None:
                raise PlanError(f"ride {rid} segment {k}: no via-{st} arcs {t0}->{ts}->{t1}")
            pieces.append(arcs[arc_in])
            pieces.append(arcs[arc_out])


def _piece_key(ride_order: dict[str, int]):
    return lambda p: (p.start, p.end, ride_order[p.ride], p.segment, _LEG_RANK[p.leg])


def plan_pieces(instance: Instance, graph: TimeGraph,
                plan: dict[str, RidePlan]) -> list[TimedArc]:
    """Expand a plan into its chronologically ordered steering arcs."""
    rides = {r.id: r for r in instance.rides}
    pieces: list[TimedArc] = []
    for rid, rp in plan.items():
        _expand_ride(graph, rides[rid], rp, pieces)
    pieces.sort(key=_piece_key({r.id: i for i, r in enumerate(instance.rides)}))
    return pieces


def ride_pieces(graph: TimeGraph, ride, rp: RidePlan) -> list[TimedArc]:
    """The pieces of one ride's plan, in the order ``plan_pieces`` gives them.

    ``_expand_ride`` emits them with strictly rising starts (a leg starts
    where the one before it ends, and every arc lasts at least a minute), so
    that order needs no sort.
    """
    pieces: list[TimedArc] = []
    _expand_ride(graph, ride, rp, pieces)
    return pieces


# ---------------------------------------------------------------------------
# Driver routes
# ---------------------------------------------------------------------------

# timeline elements: ("steer", arc_id) | ("deadhead", arc_id) | ("wait", base, t0, t1)


def assemble_route(graph: TimeGraph, elements: list[tuple]) -> tuple[int, ...]:
    """Expand timeline elements into the route's arc sequence."""
    arcs: list[int] = []
    node = None
    for el in elements:
        if el[0] == "wait":
            _, base, t0, t1 = el
            cur = graph.node_at[(base, t0)]
            if node is not None and cur != node:
                raise SolutionStructureError(f"wait does not start where driver is ({base}@{t0})")
            while graph.nodes[cur].time < t1:
                aid = graph.wait_next.get(cur)
                if aid is None:
                    raise SolutionStructureError(f"no waiting chain from {base}@{graph.nodes[cur].time}")
                arcs.append(aid)
                cur = graph.arcs[aid].head
            if graph.nodes[cur].time != t1:
                raise SolutionStructureError(f"no copy of {base} at {t1}")
            node = cur
        else:
            _, aid = el
            arc = graph.arcs[aid]
            if node is not None and arc.tail != node:
                raise SolutionStructureError("disconnected timeline element")
            arcs.append(aid)
            node = arc.head
    if node is None:
        raise SolutionStructureError("empty driver timeline")
    return tuple(arcs)


class Solution:
    """Driver routes over the graph plus the vehicle plan they serve.

    The solution keeps `plan` as given, and solutions over one plan may
    share it: no code changes a plan dict once a solution holds it.
    """

    def __init__(self, graph: TimeGraph, routes: list[tuple[int, ...]],
                 plan: dict[str, RidePlan]):
        self.graph = graph
        self.routes = [tuple(r) for r in routes]
        self.plan = plan
        self._theta: int | None = None   # theta(), computed on first use
        # a ConnectionPlanner over the pieces of `plan` whose link() answers
        # may be reused, set by whoever built one for this plan
        self.links: ConnectionPlanner | None = None
        # the greedy driver assignment's run over `plan` (search.GreedyRecord),
        # from which a one-ride plan change replays; set like `links`
        self.greedy = None
        # the segments of `plan` a station could be inserted into, found by
        # the first station-insertion operator that looks (search)
        self.insertable: list[tuple] | None = None

    @property
    def objective(self) -> int:
        return len(self.routes)

    def theta(self) -> int:
        """Remaining working time: the daily limit minus each route's span, summed."""
        if self._theta is None:
            t_dw = self.graph.instance.legal.t_dw
            total = 0
            for route in self.routes:
                first, last = self.route_span(route)
                total += t_dw - (last - first)
            self._theta = total
        return self._theta

    def route_span(self, route: tuple[int, ...]) -> tuple[int, int]:
        """The route's start and return: the start of its first arc and the
        end of its last.

        `route` must be a connected path (``_validate_structure``). No arc
        runs back in time, so these are its earliest and latest times.
        """
        arcs = self.graph.arcs
        return arcs[route[0]].start, arcs[route[-1]].end

    def to_dict(self) -> dict:
        g = self.graph
        rides = []
        for rid in sorted(self.plan):
            rp = self.plan[rid]
            rides.append({
                "id": rid,
                "times": list(rp.times),
                "stations": list(rp.stations),
            })
        drivers = []
        for k, route in enumerate(self.routes):
            steps = [{"family": a.family, "from": {"base": a.from_base, "time": a.start},
                      "to": {"base": a.to_base, "time": a.end},
                      "ride": a.ride, "segment": a.segment, "station": a.station}
                     for a in (g.arcs[aid] for aid in route)]
            # and the implicit depot arcs, from the depot to the route and back
            depot = {"family": FAMILY_DEPOT, "ride": None, "segment": None, "station": None}
            away = {"base": DEPOT, "time": None}
            steps = [{**depot, "from": away, "to": dict(steps[0]["from"])}, *steps,
                     {**depot, "from": dict(steps[-1]["to"]), "to": dict(away)}]
            drivers.append({"id": k, "route": steps})
        return {
            "schema": "drsync-solution/1",
            "objective": self.objective,
            "theta": self.theta(),
            "rides": rides,
            "drivers": drivers,
        }


def plan_from_routes(instance: Instance, graph: TimeGraph,
                     routes: list[tuple[int, ...]]) -> dict[str, RidePlan]:
    """Recover the vehicle plan implied by the steering arcs of a route set."""
    rides = {r.id: r for r in instance.rides}
    times: dict[str, dict[int, int]] = {rid: {} for rid in rides}
    stations: dict[str, dict[int, str | None]] = {rid: {} for rid in rides}
    for route in routes:
        for aid in route:
            arc = graph.arcs[aid]
            if arc.family != FAMILY_STEERING:
                continue
            rid, k = arc.ride, arc.segment
            if arc.leg in (LEG_DIRECT, LEG_IN):
                times[rid][k] = arc.start
                stations[rid][k] = arc.station
            if arc.leg in (LEG_DIRECT, LEG_OUT):
                times[rid][k + 1] = arc.end
    plan = {}
    for rid, ride in rides.items():
        tvec = tuple(times[rid].get(i, -1) for i in range(len(ride.stops)))
        svec = tuple(stations[rid].get(k) for k in range(ride.n_segments))
        plan[rid] = RidePlan(tvec, svec)
    return plan


# ---------------------------------------------------------------------------
# Transfer planning (waits + deadhead hops between assignments)
# ---------------------------------------------------------------------------

# ConnectionPlanner.link codes
LINK_NONE = 0      # the later piece cannot be reached in time
LINK_REACH = 1     # reachable, but no rest renews continuous steering
LINK_RENEW = 2     # reachable with a renewing rest on the way
LINK_UNKNOWN = 255


def plan_relocation(units, t_b: int, from_base: str, from_time: int, run: int,
                    to_base: str, to_time: int):
    """Breadth-first search for a wait/deadhead itinerary between two bases.

    ``units[base]`` lists the carriers leaving ``base`` as ``(start, end,
    legs)``, ``legs`` being the steering pieces a passenger rides in order;
    a base nothing leaves may be missing. Ties between equally short
    itineraries break by list order. ``run`` is the deadhead run the mover
    has just ridden, which a hop at once extends.
    A state is ``(base, time, run capped at t_b, renewed)``. Returns
    ``(parents, goal_any, goal_renew)``: the search tree, the first state at
    ``to_base`` no later than ``to_time``, and the first one whose itinerary
    has a rest of at least ``t_b`` (the search stops there). Goals are None
    when not found. ``from_base`` must differ from ``to_base``: the start is
    never a goal. ``itinerary``, the one caller, takes the same-base case.
    """
    # most relocations fail at once: nothing leaves the start base in time
    for st, en, _legs in units.get(from_base, ()):
        if st >= from_time and en <= to_time:
            break
    else:
        return None, None, None
    start = (from_base, from_time, min(run, t_b), False)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    goal_any = goal_renew = None
    while queue and goal_renew is None:
        state = queue.popleft()
        base, time, run, renewed = state
        for st, en, legs in units.get(base, ()):
            if st < time or en > to_time:
                continue
            wait = st - time
            new_run = (run + en - st) if wait == 0 else (en - st)
            nxt_base = legs[-1].to_base
            nxt_renewed = renewed or wait >= t_b or new_run >= t_b
            nxt = (nxt_base, en, min(new_run, t_b), nxt_renewed)
            if nxt in parents:
                continue
            parents[nxt] = (state, legs, wait)
            queue.append(nxt)
            if nxt_base == to_base:
                if goal_any is None:
                    goal_any = nxt
                if nxt_renewed or to_time - en >= t_b:
                    goal_renew = nxt
                    break
    return parents, goal_any, goal_renew


def itinerary(units, t_b: int, from_base: str, from_time: int, run: int,
              to_base: str, to_time: int):
    """How a mover at ``(from_base, from_time)`` reaches ``(to_base, to_time)``
    by waiting and deadheading on ``units`` (as in ``plan_relocation``).

    ``run`` is the deadhead run the mover has just ridden. Returns None when
    ``to_base`` cannot be reached by ``to_time``; otherwise ``(renews,
    elements, run at arrival)``: whether a rest of at least ``t_b`` on the way
    renews continuous steering, the timeline elements, and the deadhead run
    the mover is still on at ``to_time`` (0 once it has waited). A renewing
    itinerary is taken before any other. At the same base the mover only
    waits, with no search: no itinerary inside a gap shorter than a break
    renews, and a break-sized wait does.
    """
    if from_time > to_time:
        return None
    if from_base == to_base:
        gap = to_time - from_time
        return (gap >= t_b, [("wait", from_base, from_time, to_time)] if gap else [],
                run if gap == 0 else 0)
    parents, goal_any, goal_renew = plan_relocation(
        units, t_b, from_base, from_time, run, to_base, to_time)
    goal = goal_renew if goal_renew is not None else goal_any
    if goal is None:
        return None
    steps: list[tuple] = []
    cur = goal
    while parents[cur] is not None:
        prev, legs, wait = parents[cur]
        chunk = [("deadhead", p.twin) for p in legs]
        if wait:
            chunk.insert(0, ("wait", legs[0].from_base, prev[1], legs[0].start))
        steps = chunk + steps
        cur = prev
    if goal[1] < to_time:
        steps.append(("wait", to_base, goal[1], to_time))
    return goal_renew is not None, steps, (goal[2] if goal[1] == to_time else 0)


class ConnectionPlanner:
    """Finds wait/deadhead itineraries between two located points in time.

    Carriers are the pieces of the current plan; under the no-exchange
    policy a deadheading driver must ride whole rides, so carriers become
    ride-level units there. Both queries ask ``itinerary`` with no run
    carried in; the embedded branch-and-bound (``mip``) asks it too. ``link``
    answers the reachability part of ``connect`` between two of those pieces
    and remembers the answer.
    """

    def __init__(self, instance: Instance, pieces: list[TimedArc]):
        self.t_b = instance.legal.t_b
        self.pieces = pieces
        # link codes by piece position, a * len(pieces) + b; LINK_UNKNOWN until asked
        self._links = bytearray([LINK_UNKNOWN]) * (len(pieces) * len(pieces))
        # from_base -> (start, end, legs) of each carrier, by (start, end)
        self.units: dict[str, list[tuple[int, int, tuple[TimedArc, ...]]]] = {}
        if instance.exchange_policy == POLICY_NONE:
            by_ride: dict[str, list[TimedArc]] = {}
            for p in pieces:
                by_ride.setdefault(p.ride, []).append(p)
            units = []
            for chunk in by_ride.values():
                chunk.sort(key=lambda p: p.start)
                units.append((chunk[0].from_base, chunk[0].start, chunk[-1].end, tuple(chunk)))
        else:
            units = [(p.from_base, p.start, p.end, (p,)) for p in pieces]
        for fb, st, en, legs in sorted(units, key=lambda u: (u[1], u[2])):
            self.units.setdefault(fb, []).append((st, en, legs))

    def link(self, a: int, b: int) -> int:
        """LINK_NONE, LINK_REACH or LINK_RENEW from the end of piece a to the start of b.

        ``a`` and ``b`` are positions in ``pieces``; the code is
        ``connect``'s (reachable, renewable) pair for that gap.
        """
        key = a * len(self.pieces) + b
        code = self._links[key]
        if code == LINK_UNKNOWN:
            pa, pb = self.pieces[a], self.pieces[b]
            way = itinerary(self.units, self.t_b, pa.to_base, pa.end, 0,
                            pb.from_base, pb.start)
            code = LINK_NONE if way is None else LINK_RENEW if way[0] else LINK_REACH
            self._links[key] = code
        return code

    def connect(
        self,
        from_base: str,
        from_time: int,
        to_base: str,
        to_time: int,
    ) -> tuple[bool, bool, list[tuple] | None]:
        """(reachable, renewable, the elements of ``itinerary``'s choice or None)."""
        way = itinerary(self.units, self.t_b, from_base, from_time, 0, to_base, to_time)
        if way is None:
            return False, False, None
        return True, way[0], way[1]


# ---------------------------------------------------------------------------
# Feasibility checking
# ---------------------------------------------------------------------------

def _validate_structure(graph: TimeGraph, route: tuple[int, ...], who: str) -> None:
    """A route is a non-empty connected path of real arcs, one of them steering."""
    if not route:
        raise SolutionStructureError(f"{who}: empty route")
    for aid in route:
        if not (0 <= aid < len(graph.arcs)):
            raise SolutionStructureError(f"{who}: arc {aid} does not exist")
    for a, b in zip(route, route[1:]):
        if graph.arcs[a].head != graph.arcs[b].tail:
            raise SolutionStructureError(f"{who}: dangling arcs {a}->{b}")
    if not any(graph.arcs[aid].mode == 1 for aid in route):
        raise SolutionStructureError(f"{who}: active driver without a steering arc")


def check_feasibility(solution: Solution, instance: Instance,
                      graph: TimeGraph | None = None) -> list[Violation]:
    """Every hours-of-service, coverage and synchronization rule; empty = feasible."""
    g = graph or solution.graph
    legal = instance.legal
    out: list[Violation] = []

    for k, route in enumerate(solution.routes):
        _validate_structure(g, route, f"driver {k}")

    steer_users: dict[int, set[int]] = {}
    for k, route in enumerate(solution.routes):
        for aid in route:
            if g.arcs[aid].family == FAMILY_STEERING:
                steer_users.setdefault(aid, set()).add(k)

    # per-driver legality
    for k, route in enumerate(solution.routes):
        who = f"driver {k}"
        u = 0
        daily = 0
        block: tuple | None = None  # ("wait", base, total) | ("deadhead", total)
        worst_short = 0
        flagged = False

        def close_block():
            nonlocal u, block, worst_short
            if block is not None:
                total = block[-1]
                if total >= legal.t_b:   # a break renews continuous steering
                    u = 0
                    worst_short = 0
                else:
                    worst_short = max(worst_short, total)
                block = None

        for aid in route:
            arc = g.arcs[aid]
            if arc.family == FAMILY_STEERING:
                close_block()
                u += arc.duration
                daily += arc.duration
                if u > legal.t_cs and not flagged:
                    flagged = True
                    if worst_short > 0:
                        out.append(Violation("break_too_short", who, legal.t_b - worst_short))
                    else:
                        out.append(Violation("continuous_steering", who, u - legal.t_cs))
            elif arc.family == FAMILY_WAITING:
                base = arc.from_base
                if block is not None and block[0] == "wait" and block[1] == base:
                    block = ("wait", base, block[2] + arc.duration)
                else:
                    close_block()
                    block = ("wait", base, arc.duration)
            else:  # deadhead
                if block is not None and block[0] == "deadhead":
                    block = ("deadhead", block[1] + arc.duration)
                else:
                    close_block()
                    block = ("deadhead", arc.duration)
                twin_ok = any(l != k for l in steer_users.get(arc.twin, ()))
                if not twin_ok:
                    out.append(Violation("desync", who, max(1, arc.duration)))
        if daily > legal.t_ds:
            out.append(Violation("daily_steering", who, daily - legal.t_ds))
        first, last = solution.route_span(route)
        if last - first > legal.t_dw:
            out.append(Violation("daily_working", who, last - first - legal.t_dw))

    # coverage, continuity, detours
    rides = {r.id: r for r in instance.rides}
    used: dict[tuple[str, int], list] = {}
    for route in solution.routes:
        for aid in route:
            arc = g.arcs[aid]
            if arc.family == FAMILY_STEERING:
                used.setdefault((arc.ride, arc.segment), []).append(arc)
    for rid, ride in rides.items():
        end_node = None
        for kseg in range(ride.n_segments):
            who = f"ride {rid} segment {kseg}"
            arcs = used.get((rid, kseg), [])
            direct = [a for a in arcs if a.leg == LEG_DIRECT]
            ins = [a for a in arcs if a.leg == LEG_IN]
            outs = [a for a in arcs if a.leg == LEG_OUT]
            start_node = None
            seg_end = None
            if not arcs:
                out.append(Violation("uncovered_segment", who, ride.segment_minutes[kseg]))
            elif len(direct) == 1 and not ins and not outs:
                start_node, seg_end = direct[0].tail, direct[0].head
            elif not direct and len(ins) == 1 and len(outs) == 1 and ins[0].head == outs[0].tail:
                start_node, seg_end = ins[0].tail, outs[0].head
                acc = next((x for x in ride.stations[kseg]
                            if x.station_id == ins[0].station), None)
                if acc is None:
                    out.append(Violation("desync", who, 1))
                elif acc.detour(ride.segment_minutes[kseg]) > instance.zeta:
                    out.append(Violation(
                        "detour", who,
                        acc.detour(ride.segment_minutes[kseg]) - instance.zeta))
            else:
                out.append(Violation("desync", who, len(arcs)))
            if start_node is not None and end_node is not None and start_node != end_node:
                out.append(Violation("desync", f"ride {rid} stop {kseg}", 1))
            if seg_end is not None:
                end_node = seg_end

    if instance.exchange_policy == POLICY_NONE:
        for k, route in enumerate(solution.routes):
            touched: dict[str, set[int]] = {}
            for aid in route:
                arc = g.arcs[aid]
                if arc.ride is not None and arc.family in (FAMILY_STEERING, FAMILY_DEADHEAD):
                    touched.setdefault(arc.ride, set()).add(arc.segment)
            for rid, segs in touched.items():
                if len(segs) != rides[rid].n_segments:
                    out.append(Violation("desync", f"driver {k} ride {rid}",
                                         rides[rid].n_segments - len(segs)))
    return out
