"""Time-expanded directed multigraph over which drivers are routed.

Every node is a located copy: a physical location at a departure minute.
The paper's depot, a source and a sink with an arc to and from every node,
is implicit: no solver routes over it, so a driver's route is its arcs
from its first node to its last, and only the size (``graph_stats``)
counts it. Three arc families are built:

* steering: a driver moves the bus; duration is the full gap between the
            endpoint times (terminal dwell included), capped by t_cs
* deadhead: mode-0 twin of every steering arc (riding along as passenger)
* waiting:  consecutive time copies of the same location

Copies of a customer stop sit on the departure-window grid. Copies of a
service station are spawned at predecessor-copy time plus the in-drive and
only if some onward customer copy remains reachable, so a station always
has fewer copies than the customer stops around it (Fig-2-style layout).

The graph is the one authority on leg timings: windows, the grid and the
continuous-steering cap on direct and station legs are decided in
``build_graph`` alone, over the station accesses ``filter_stations`` keeps
(full exchange only, detour within the limit, each drive within the cap).
Each ride's start grid, its first stop's copies by minute, is kept as
``starts``; the solvers start a ride there and read its later legal times
off its steering arcs.

Every arc carries its located ends, set once by the build. A steering arc
is also the one record of a plan's piece: the solvers hold the graph's own
arc objects (``solution.plan_pieces``), and read bases and times off them
rather than through the nodes.

A run builds the graph first, with only the cheap bounds lb1 and lb2
beside it; the lb3 sweep waits until CH+LS has run (see ``pipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, filter_stations

# the implicit depot, as ``Solution.to_dict`` writes it
DEPOT = "__depot__"

FAMILY_DEPOT = "depot"
FAMILY_STEERING = "steering"
FAMILY_DEADHEAD = "deadhead"
FAMILY_WAITING = "waiting"

LEG_DIRECT = "direct"
LEG_IN = "in"
LEG_OUT = "out"


# Nodes and arcs are slotted, not frozen: a frozen dataclass costs several
# times as much to build, and a graph build makes thousands of them
@dataclass(slots=True)
class TimedNode:
    id: int
    base: str            # stop/station id
    time: int


@dataclass(slots=True)
class TimedArc:
    """An arc and its located ends: from `from_base` at `start` to `to_base`
    at `end`, the bases and times of its tail and head. A steering arc is
    the piece of a plan that one driver steers; the solvers hold these
    objects as their pieces."""

    id: int
    tail: int
    head: int
    mode: int            # 1 = steering, 0 = everything else
    family: str
    duration: int
    from_base: str
    start: int
    to_base: str
    end: int
    ride: str | None = None
    segment: int | None = None
    leg: str | None = None       # direct / in / out for segment arcs
    station: str | None = None   # station id for in/out legs
    twin: int | None = None      # steering <-> deadhead pairing


class TimeGraph:
    """The graph of one instance; all orderings are pure functions of it.

    Immutable after build by contract, checked by
    ``tests/test_timegraph.py::test_solving_leaves_the_graph_as_built``.
    """

    __slots__ = ("instance", "nodes", "arcs", "node_at", "copies", "starts",
                 "seg_direct", "seg_in", "seg_out", "steer_idx", "wait_next")

    def __init__(self, instance: Instance):
        self.instance = instance
        self.nodes: list[TimedNode] = []
        self.arcs: list[TimedArc] = []
        self.node_at: dict[tuple[str, int], int] = {}
        self.copies: dict[str, list[int]] = {}
        # per ride id: its first stop's departure grid as (minute, node id)
        self.starts: dict[str, list[tuple[int, int]]] = {}
        # steering arc ids per (ride, segment), split by leg
        self.seg_direct: dict[tuple[str, int], list[int]] = {}
        self.seg_in: dict[tuple[str, int, str], list[int]] = {}
        self.seg_out: dict[tuple[str, int, str], list[int]] = {}
        # steering arc id by (ride, segment, leg, station, tail time, head time)
        self.steer_idx: dict[tuple, int] = {}
        # route assembly: node -> waiting arc to its next copy
        self.wait_next: dict[int, int] = {}


def build_graph(instance: Instance) -> TimeGraph:
    """Lay out every copy of the instance's usable stations
    (``filter_stations``) and stops, and wire the three arc families.

    Nodes come in this order: the customer copies (by ride, stop and grid),
    then the station copies (by ride, segment, station and predecessor
    grid). Arcs: for each ride and segment the direct pairs, then
    per station its in-pairs, each followed by its out-pairs; the waiting
    chains in the insertion order of ``copies``.
    So the arcs from one tail in ``seg_direct`` and ``seg_out`` come by
    rising head time, and ``seg_in`` has one arc per tail.
    Each stop's departure grid is computed once per ride and serves the
    copies, the arcs and ``starts`` alike, and each arc's located ends are
    the base and minute that the loop making it walks.
    """
    inst = filter_stations(instance)
    g = TimeGraph(inst)
    nodes, arcs, node_at, copies, steer_idx = g.nodes, g.arcs, g.node_at, g.copies, g.steer_idx
    t_cs, half, ell = inst.legal.t_cs, inst.theta_tw // 2, inst.ell

    # per ride and stop: its grid as (minute, node id)
    grids = []
    # customer copies first so their ids precede every station copy
    for ride in inst.rides:
        ride_grids = []
        for base, tau in zip(ride.stops, ride.departures):
            grid = []
            at_base = copies.setdefault(base, [])   # a first visit makes a copy
            for t in range(tau - half, tau + half + 1, ell):
                key = (base, t)
                nid = node_at.get(key)
                if nid is None:
                    nid = node_at[key] = len(nodes)
                    nodes.append(TimedNode(nid, base, t))
                    at_base.append(nid)
                grid.append((t, nid))
            ride_grids.append(grid)
        grids.append(ride_grids)
        g.starts[ride.id] = ride_grids[0]
    for ride, ride_grids in zip(inst.rides, grids):
        for k, accs in enumerate(ride.stations):
            succ_latest = ride.departures[k + 1] + half
            for acc in accs:
                station = acc.station_id
                for t, _tail in ride_grids[k]:
                    ts = t + acc.minutes_in
                    if ts + acc.minutes_out > succ_latest:
                        break  # no onward copy reachable, nor from any later t
                    if (station, ts) not in node_at:
                        nid = node_at[(station, ts)] = len(nodes)
                        nodes.append(TimedNode(nid, station, ts))
                        copies.setdefault(station, []).append(nid)
    for ids in copies.values():
        ids.sort(key=lambda nid: nodes[nid].time)

    def fan(tail, a, t, heads, b, drive, rid, k, leg, station, ids):
        """The steering arcs, each followed by its deadhead twin, from `tail`
        (base `a` at minute `t`) to every copy of `heads` (base `b`, by
        rising minute) that a drive of `drive` minutes reaches within
        continuous steering; their ids go to `ids`."""
        lo, hi = t + drive, t + t_cs
        for t2, head in heads:
            if t2 > hi:
                break
            if t2 < lo:
                continue
            dur = t2 - t
            sid = len(arcs)
            arcs.append(TimedArc(sid, tail, head, 1, FAMILY_STEERING, dur, a, t, b, t2,
                                 rid, k, leg, station, sid + 1))
            arcs.append(TimedArc(sid + 1, tail, head, 0, FAMILY_DEADHEAD, dur, a, t, b, t2,
                                 rid, k, leg, station, sid))
            steer_idx[(rid, k, leg, station, t, t2)] = sid
            ids.append(sid)

    for ride, ride_grids in zip(inst.rides, grids):
        rid = ride.id
        for k, direct in enumerate(ride.segment_minutes):
            a, b = ride.stops[k], ride.stops[k + 1]
            pred_grid, succ_grid = ride_grids[k], ride_grids[k + 1]
            ids = g.seg_direct[(rid, k)] = []
            for t, tail in pred_grid:
                fan(tail, a, t, succ_grid, b, direct, rid, k, LEG_DIRECT, None, ids)
            for acc in ride.stations[k]:
                station = acc.station_id
                ins: list[int] = []
                outs: list[int] = []
                for t, tail in pred_grid:
                    ts = t + acc.minutes_in
                    snode = node_at.get((station, ts))
                    if snode is None:
                        continue
                    # the in-drive is within t_cs (filter_stations)
                    fan(tail, a, t, ((ts, snode),), station, acc.minutes_in,
                        rid, k, LEG_IN, station, ins)
                    fan(snode, station, ts, succ_grid, b, acc.minutes_out,
                        rid, k, LEG_OUT, station, outs)
                if ins:
                    g.seg_in[(rid, k, station)] = ins
                    g.seg_out[(rid, k, station)] = outs

    for base, ids in copies.items():  # insertion order: deterministic
        for n, m in zip(ids, ids[1:]):
            t, t2 = nodes[n].time, nodes[m].time
            aid = g.wait_next[n] = len(arcs)
            arcs.append(TimedArc(aid, n, m, 0, FAMILY_WAITING, t2 - t, base, t, base, t2))
    return g


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

SIZE_SMALL = "small"
SIZE_MEDIUM = "medium"
SIZE_LARGE = "large"


def size_class(n_arcs: int) -> str:
    if n_arcs < 1000:
        return SIZE_SMALL
    if n_arcs < 5000:
        return SIZE_MEDIUM
    return SIZE_LARGE


@dataclass(frozen=True)
class GraphStats:
    n_nodes: int
    n_arcs: int
    size_class: str


def graph_stats(graph: TimeGraph) -> GraphStats:
    """The paper's graph size: its implicit depot, a source and a sink node
    and a source and a sink arc for every node, counted with the real ones."""
    n_arcs = len(graph.arcs) + 2 * len(graph.nodes)
    return GraphStats(len(graph.nodes) + 2, n_arcs, size_class(n_arcs))


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------

def _consumption(graph: TimeGraph, family: str, duration: int) -> int:
    """Steering minutes of an arc as the dump writes them: a steering arc's
    duration, -t_cs for a wait or deadhead of at least a break (it renews
    continuous steering), else 0."""
    legal = graph.instance.legal
    if family == FAMILY_STEERING:
        return duration
    return -legal.t_cs if duration >= legal.t_b else 0


def graph_to_dict(graph: TimeGraph) -> dict:
    """The graph's nodes and arcs; the implicit depot is not written."""
    arcs = [
        {
            "id": a.id, "tail": a.tail, "head": a.head, "mode": a.mode,
            "family": a.family, "duration": a.duration,
            "consumption": _consumption(graph, a.family, a.duration),
            "ride": a.ride, "segment": a.segment, "leg": a.leg,
            "station": a.station, "twin": a.twin,
        }
        for a in graph.arcs
    ]
    return {
        "nodes": [{"id": n.id, "base": n.base, "time": n.time} for n in graph.nodes],
        "arcs": arcs,
    }


_DOT_STYLE = {
    FAMILY_STEERING: "solid",
    FAMILY_DEADHEAD: "dashed",
    FAMILY_WAITING: "dotted",
}


def graph_to_dot(graph: TimeGraph) -> str:
    lines = ["digraph timegraph {", "  rankdir=LR;"]
    for n in graph.nodes:
        lines.append(f'  n{n.id} [label="{n.base}@{n.time}"];')
    for a in graph.arcs:
        style = _DOT_STYLE[a.family]
        lines.append(f'  n{a.tail} -> n{a.head} [style={style}, label="{a.duration}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
