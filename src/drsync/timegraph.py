"""Time-expanded directed multigraph over which drivers are routed.

Nodes are (physical location, departure minute) copies plus one timeless
source and sink for the depot. Four arc families:

* depot:    source -> every node, every node -> sink (duration 0)
* steering: a driver moves the bus; duration is the full gap between the
            endpoint times (terminal dwell included), capped by t_cs
* deadhead: mode-0 twin of every steering arc (riding along as passenger)
* waiting:  consecutive time copies of the same location

Copies of a customer stop sit on the departure-window grid. Copies of a
service station are spawned at predecessor-copy time plus the in-drive and
only if some onward customer copy remains reachable, so a station always
has fewer copies than the customer stops around it (Fig-2-style layout).
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, POLICY_FULL, filter_stations

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
    base: str            # stop/station id, or DEPOT for source/sink
    time: int | None     # None only for the depot endpoints


@dataclass(slots=True)
class TimedArc:
    id: int
    tail: int
    head: int
    mode: int            # 1 = steering, 0 = everything else
    family: str
    duration: int
    consumption: int     # steering minutes; negative = break renewal
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

    __slots__ = ("instance", "nodes", "arcs", "node_at", "copies", "source", "sink",
                 "seg_direct", "seg_in", "seg_out", "steer_idx",
                 "depot_out", "depot_in", "wait_next")

    def __init__(self, instance: Instance):
        self.instance = instance
        self.nodes: list[TimedNode] = []
        self.arcs: list[TimedArc] = []
        self.node_at: dict[tuple[str, int], int] = {}
        self.copies: dict[str, list[int]] = {}
        self.source: int = -1
        self.sink: int = -1
        # steering arc ids per (ride, segment), split by leg
        self.seg_direct: dict[tuple[str, int], list[int]] = {}
        self.seg_in: dict[tuple[str, int, str], list[int]] = {}
        self.seg_out: dict[tuple[str, int, str], list[int]] = {}
        # steering arc id by (ride, segment, leg, station, tail time, head time)
        self.steer_idx: dict[tuple, int] = {}
        # route-assembly indexes
        self.depot_out: dict[int, int] = {}   # node -> source arc id
        self.depot_in: dict[int, int] = {}    # node -> sink arc id
        self.wait_next: dict[int, int] = {}   # node -> waiting arc to next copy

    # -- node helpers ------------------------------------------------------

    def _add_node(self, base: str, time: int | None) -> int:
        nid = len(self.nodes)
        self.nodes.append(TimedNode(nid, base, time))
        if time is not None:
            self.node_at[(base, time)] = nid
            self.copies.setdefault(base, []).append(nid)
        return nid


def expand_nodes(instance: Instance) -> TimeGraph:
    """Create the source, all customer and station copies, and the sink."""
    g = TimeGraph(instance)
    g.source = g._add_node(DEPOT, None)

    use_stations = instance.exchange_policy == POLICY_FULL
    # customer copies first so their ids precede every station copy
    for ride in instance.rides:
        for pos, tau in enumerate(ride.departures):
            base = ride.stops[pos]
            for t in instance.window(tau).grid(instance.ell):
                if (base, t) not in g.node_at:
                    g._add_node(base, t)
    if use_stations:
        t_cs = instance.legal.t_cs
        for ride in instance.rides:
            for k in range(ride.n_segments):
                succ_tau = ride.departures[k + 1]
                succ_latest = instance.window(succ_tau).latest
                for acc in ride.stations[k]:
                    if acc.minutes_in > t_cs or acc.minutes_out > t_cs:
                        continue
                    pred_tau = ride.departures[k]
                    for t in instance.window(pred_tau).grid(instance.ell):
                        ts = t + acc.minutes_in
                        if ts + acc.minutes_out > succ_latest:
                            continue  # no onward copy reachable
                        if (acc.station_id, ts) not in g.node_at:
                            g._add_node(acc.station_id, ts)
    g.sink = g._add_node(DEPOT, None)
    for ids in g.copies.values():
        ids.sort(key=lambda nid: g.nodes[nid].time)
    return g


def build_arcs(graph: TimeGraph) -> None:
    """Emit steering/deadhead pairs, waiting chains, and depot arcs."""
    inst = graph.instance
    t_cs, t_b = inst.legal.t_cs, inst.legal.t_b
    use_stations = inst.exchange_policy == POLICY_FULL

    arcs, nodes, steer_idx = graph.arcs, graph.nodes, graph.steer_idx

    def add(tail, head, mode, family, duration, consumption) -> int:
        aid = len(arcs)
        arcs.append(TimedArc(aid, tail, head, mode, family, duration, consumption))
        return aid

    def steer_pair(tail, head, ride, seg, leg, station=None):
        """The steering arc and its deadhead twin, built once each."""
        tail_t, head_t = nodes[tail].time, nodes[head].time
        dur = head_t - tail_t
        sid = len(arcs)
        arcs.append(TimedArc(sid, tail, head, 1, FAMILY_STEERING, dur, dur,
                             ride, seg, leg, station, sid + 1))
        arcs.append(TimedArc(sid + 1, tail, head, 0, FAMILY_DEADHEAD, dur,
                             -t_cs if dur >= t_b else 0, ride, seg, leg, station, sid))
        steer_idx[(ride, seg, leg, station, tail_t, head_t)] = sid
        return sid

    for ride in inst.rides:
        for k in range(ride.n_segments):
            pred, succ = ride.stops[k], ride.stops[k + 1]
            direct = ride.segment_minutes[k]
            pred_grid = inst.window(ride.departures[k]).grid(inst.ell)
            succ_grid = inst.window(ride.departures[k + 1]).grid(inst.ell)
            key = (ride.id, k)
            graph.seg_direct[key] = []
            for t in pred_grid:
                tail = graph.node_at[(pred, t)]
                for t2 in succ_grid:
                    if t2 < t + direct or t2 - t > t_cs:
                        continue
                    head = graph.node_at[(succ, t2)]
                    graph.seg_direct[key].append(steer_pair(tail, head, ride.id, k, LEG_DIRECT))
            if not use_stations:
                continue
            for acc in ride.stations[k]:
                in_key = (ride.id, k, acc.station_id)
                ins: list[int] = []
                outs: list[int] = []
                for t in pred_grid:
                    ts = t + acc.minutes_in
                    snode = graph.node_at.get((acc.station_id, ts))
                    if snode is None:
                        continue
                    tail = graph.node_at[(pred, t)]
                    ins.append(steer_pair(tail, snode, ride.id, k, LEG_IN, acc.station_id))
                    for t2 in succ_grid:
                        if t2 < ts + acc.minutes_out or t2 - ts > t_cs:
                            continue
                        head = graph.node_at[(succ, t2)]
                        outs.append(steer_pair(snode, head, ride.id, k, LEG_OUT, acc.station_id))
                if ins:
                    graph.seg_in[in_key] = ins
                    graph.seg_out[in_key] = outs

    for base in graph.copies:  # insertion order: deterministic
        ids = graph.copies[base]
        for a, b in zip(ids, ids[1:]):
            gap = graph.nodes[b].time - graph.nodes[a].time
            graph.wait_next[a] = add(a, b, 0, FAMILY_WAITING, gap, -t_cs if gap >= t_b else 0)

    for node in graph.nodes:
        if node.base == DEPOT:
            continue
        graph.depot_out[node.id] = add(graph.source, node.id, 0, FAMILY_DEPOT, 0, 0)
        graph.depot_in[node.id] = add(node.id, graph.sink, 0, FAMILY_DEPOT, 0, 0)


def build_graph(instance: Instance) -> TimeGraph:
    """Filter stations by detour limit, expand nodes, and wire all arc families."""
    graph = expand_nodes(filter_stations(instance))
    build_arcs(graph)
    return graph


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
    return GraphStats(len(graph.nodes), len(graph.arcs), size_class(len(graph.arcs)))


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------

def graph_to_dict(graph: TimeGraph) -> dict:
    return {
        "nodes": [{"id": n.id, "base": n.base, "time": n.time} for n in graph.nodes],
        "arcs": [
            {
                "id": a.id, "tail": a.tail, "head": a.head, "mode": a.mode,
                "family": a.family, "duration": a.duration, "consumption": a.consumption,
                "ride": a.ride, "segment": a.segment, "leg": a.leg,
                "station": a.station, "twin": a.twin,
            }
            for a in graph.arcs
        ],
    }


_DOT_STYLE = {
    FAMILY_STEERING: "solid",
    FAMILY_DEADHEAD: "dashed",
    FAMILY_WAITING: "dotted",
    FAMILY_DEPOT: "invis",
}


def graph_to_dot(graph: TimeGraph, include_depot: bool = False) -> str:
    lines = ["digraph timegraph {", "  rankdir=LR;"]
    for n in graph.nodes:
        label = "depot" if n.base == DEPOT else f"{n.base}@{n.time}"
        lines.append(f'  n{n.id} [label="{label}"];')
    for a in graph.arcs:
        if a.family == FAMILY_DEPOT and not include_depot:
            continue
        style = _DOT_STYLE[a.family]
        lines.append(f'  n{a.tail} -> n{a.head} [style={style}, label="{a.duration}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
