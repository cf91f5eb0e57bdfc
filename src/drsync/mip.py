"""Compact integer model over the time graph plus an embedded exact backend.

The model object carries the variable index (x[driver, arc] binary,
r[driver, node] continuous) and the reconstructed constraint families; it
can be written out in LP interchange format for external solvers. The
embedded backend does not touch the algebraic rows: it is a depth-first
branch-and-bound that schedules ride segments in chronological order,
assigns each steering piece to an existing or a fresh driver, validates
relocations (waits and deadhead hops) eagerly against the pieces already
scheduled, with the relocation search that local search also uses
(``solution.plan_relocation``), and prunes with the incumbent, the
constructive lower bound and the optional driver cap. It is exact whenever
it finishes within the time limit. The search is iterative: every open node
is a generator kept on an explicit stack, which applies one child's change,
yields, and undoes the change when resumed, so the depth of the tree
(several pieces per ride) is not bounded by the interpreter's recursion
limit. The deadline is checked at every node.

Export caveat: renewals earned by multi-arc deadhead runs whose single
arcs are each shorter than the break length are not representable in the
exported rows (waiting chains are, via auxiliary chain binaries); the
embedded backend and the feasibility checker handle them exactly.
"""

from __future__ import annotations

import time as _time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable

from .bounds import BoundReport
from .instance import Instance, POLICY_NONE
from .solution import (
    Piece,
    RidePlan,
    Solution,
    assemble_route,
    check_feasibility,
    plan_from_routes,
    plan_relocation,
    unwind,
)
from .timegraph import (
    FAMILY_DEADHEAD,
    FAMILY_DEPOT,
    FAMILY_STEERING,
    FAMILY_WAITING,
    TimeGraph,
)


class AssignmentError(Exception):
    """An explicit variable assignment violates flow or coverage."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class SolverConfig:
    time_limit: float = 3600.0
    start_solution: Solution | None = None
    incumbent_callback: Callable[[Solution], Solution | None] | None = None


@dataclass
class SolveOutcome:
    status: str                      # optimal | infeasible | feasible | timeout_no_solution
    best_solution: Solution | None
    best_bound: int
    elapsed: float
    incumbent_log: list[tuple[float, int]] = field(default_factory=list)
    nodes: int = 0                   # branch-and-bound nodes visited


@dataclass(frozen=True)
class Model:
    graph: TimeGraph
    instance: Instance
    bounds: BoundReport
    driver_count: int
    cardinality_cap: int | None = None
    # proving a solution at or below this value ends the search (a valid
    # lower bound asserted by the caller; the constructive LB by default)
    objective_floor: int = 0

    @property
    def lower_bound(self) -> int:
        return self.bounds.lb

    def n_binary(self) -> int:
        return self.driver_count * len(self.graph.arcs)

    def n_continuous(self) -> int:
        return self.driver_count * len(self.graph.nodes)


def build_model(graph: TimeGraph, bounds: BoundReport) -> Model:
    return Model(graph=graph, instance=graph.instance, bounds=bounds,
                 driver_count=bounds.ub, objective_floor=bounds.lb)


def restrict(model: Model, cap: int) -> Model:
    """Copy of the model with the total-activation cap added (problem P(cap))."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return replace(model, cardinality_cap=cap)


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------

def _chain_pairs(graph: TimeGraph, t_b: int):
    """Same-base copy pairs at least a break apart, with the wait arcs between."""
    for base, ids in graph.copies.items():
        for i in range(len(ids)):
            arcs: list[int] = []
            for j in range(i + 1, len(ids)):
                arcs.append(graph.wait_next[ids[j - 1]])
                if graph.nodes[ids[j]].time - graph.nodes[ids[i]].time >= t_b:
                    yield base, ids[i], ids[j], list(arcs)


def export_model(model: Model, path: str) -> None:
    """Write the integer program in LP interchange text format, deterministically."""
    g = model.graph
    inst = model.instance
    legal = inst.legal
    K = model.driver_count
    horizon = max((n.time for n in g.nodes if n.time is not None), default=0) + legal.t_dw

    def x(k, a):
        return f"x_{k}_{a}"

    def r(k, n):
        return f"r_{k}_{n}"

    src_arcs = sorted(g.depot_out.values())
    sink_arcs = sorted(g.depot_in.values())

    rows: list[str] = []

    def row(name, terms, sense, rhs):
        body = " ".join(f"{'+' if c >= 0 else '-'} {abs(c)} {v}" for c, v in terms)
        rows.append(f" {name}: {body} {sense} {rhs}")

    for k in range(K):
        for node in g.nodes:
            if node.base == "__depot__":
                continue
            terms = [(1, x(k, a)) for a in g.into[node.id]]
            terms += [(-1, x(k, a)) for a in g.out_of[node.id]]
            row(f"flow_{k}_{node.id}", terms, "=", 0)
        row(f"act_out_{k}", [(1, x(k, a)) for a in src_arcs], "<=", 1)
        row(f"act_pair_{k}",
            [(1, x(k, a)) for a in src_arcs] + [(-1, x(k, a)) for a in sink_arcs], "=", 0)

    for (rid, seg), arcs in sorted(g.seg_direct.items()):
        entry = list(arcs)
        for (rid2, seg2, st), ins in sorted(g.seg_in.items()):
            if rid2 == rid and seg2 == seg:
                entry += ins
        terms = [(1, x(k, a)) for k in range(K) for a in sorted(entry)]
        if terms:
            row(f"cover_{rid}_{seg}", terms, "=", 1)
        elif K > 0 and g.arcs:
            # uncoverable segment: an explicitly contradictory row
            row(f"cover_{rid}_{seg}", [(0, x(0, 0))], "=", 1)

    for (rid, seg, st), ins in sorted(g.seg_in.items()):
        outs = g.seg_out.get((rid, seg, st), [])
        by_copy: dict[int, tuple[list[int], list[int]]] = {}
        for a in ins:
            by_copy.setdefault(g.arcs[a].head, ([], []))[0].append(a)
        for a in outs:
            by_copy.setdefault(g.arcs[a].tail, ([], []))[1].append(a)
        for copy_node, (iarcs, oarcs) in sorted(by_copy.items()):
            terms = [(1, x(k, a)) for k in range(K) for a in sorted(iarcs)]
            terms += [(-1, x(k, a)) for k in range(K) for a in sorted(oarcs)]
            row(f"statflow_{rid}_{seg}_{copy_node}", terms, "=", 0)

    # ride continuity: the copy reached by segment seg equals the copy left by seg+1
    rides = {rd.id: rd for rd in inst.rides}
    for rid, rd in sorted(rides.items()):
        for pos in range(1, len(rd.stops) - 1):
            into_arcs = [a for a in g.seg_direct.get((rid, pos - 1), [])]
            into_arcs += [a for (r2, s2, _), arcs in sorted(g.seg_out.items())
                          if r2 == rid and s2 == pos - 1 for a in arcs]
            out_arcs = [a for a in g.seg_direct.get((rid, pos), [])]
            out_arcs += [a for (r2, s2, _), arcs in sorted(g.seg_in.items())
                         if r2 == rid and s2 == pos for a in arcs]
            by_copy2: dict[int, tuple[list[int], list[int]]] = {}
            for a in into_arcs:
                by_copy2.setdefault(g.arcs[a].head, ([], []))[0].append(a)
            for a in out_arcs:
                by_copy2.setdefault(g.arcs[a].tail, ([], []))[1].append(a)
            for copy_node, (iarcs, oarcs) in sorted(by_copy2.items()):
                terms = [(1, x(k, a)) for k in range(K) for a in sorted(iarcs)]
                terms += [(-1, x(k, a)) for k in range(K) for a in sorted(oarcs)]
                row(f"cont_{rid}_{pos}_{copy_node}", terms, "=", 0)

    for arc in g.arcs:
        if arc.family == FAMILY_DEADHEAD:
            terms = [(1, x(k, arc.id)) for k in range(K)]
            terms += [(-(K - 1), x(k, arc.twin)) for k in range(K)]
            if K > 1:
                row(f"dh_{arc.id}", terms, "<=", 0)
            else:
                row(f"dh_{arc.id}", [(1, x(0, arc.id))], "<=", 0)

    # steering resource: r is the remaining continuous allowance at each node
    chain_z: list[tuple[str, int, int, list[int]]] = list(_chain_pairs(g, legal.t_b))
    for k in range(K):
        for arc in g.arcs:
            M = legal.t_cs + max(arc.duration, 0)
            if arc.family == FAMILY_STEERING:
                row(f"rprop_{k}_{arc.id}",
                    [(1, r(k, arc.head)), (-1, r(k, arc.tail)), (M, x(k, arc.id))],
                    "<=", M - arc.duration)
                row(f"rcap_{k}_{arc.id}",
                    [(1, r(k, arc.tail)), (-arc.duration, x(k, arc.id))], ">=", 0)
            elif arc.consumption == 0 and arc.family != FAMILY_DEPOT:
                relax = []
                if arc.family == FAMILY_WAITING:
                    relax = [(legal.t_cs, f"z_{k}_{b}_{i}_{j}")
                             for b, i, j, chain in chain_z if arc.head == j]
                row(f"rprop_{k}_{arc.id}",
                    [(1, r(k, arc.head)), (-1, r(k, arc.tail)), (M, x(k, arc.id))] + [
                        (-c, v) for c, v in relax],
                    "<=", M)
        for b, i, j, chain in chain_z:
            for a in chain:
                row(f"zlink_{k}_{b}_{i}_{j}_{a}",
                    [(1, f"z_{k}_{b}_{i}_{j}"), (-1, x(k, a))], "<=", 0)

    for k in range(K):
        terms = [(g.arcs[a].duration, x(k, a)) for a in range(len(g.arcs))
                 if g.arcs[a].family == FAMILY_STEERING]
        if terms:
            row(f"daily_steer_{k}", terms, "<=", legal.t_ds)
        span_terms = [(g.nodes[g.arcs[a].tail].time, x(k, a)) for a in sink_arcs]
        span_terms += [(-g.nodes[g.arcs[a].head].time, x(k, a)) for a in src_arcs]
        span_terms += [(horizon, x(k, a)) for a in src_arcs]
        if span_terms:
            row(f"span_{k}", span_terms, "<=", legal.t_dw + horizon)

    lb = model.bounds.lb
    if src_arcs and lb > 0:
        row("min_total_activation",
            [(1, x(k, a)) for k in range(K) for a in src_arcs], ">=", lb)
        for k in range(min(lb, K)):
            row(f"force_out_{k}", [(1, x(k, a)) for a in src_arcs], ">=", 1)
            row(f"force_in_{k}", [(1, x(k, a)) for a in sink_arcs], ">=", 1)
    for k in range(K - 1):
        row(f"sym_{k}",
            [(1, x(k, a)) for a in src_arcs] + [(-1, x(k + 1, a)) for a in src_arcs],
            ">=", 0)
        start_terms = [(g.nodes[g.arcs[a].head].time, x(k, a)) for a in src_arcs]
        start_terms += [(-g.nodes[g.arcs[a].head].time, x(k + 1, a)) for a in src_arcs]
        start_terms += [(-horizon, x(k + 1, a)) for a in src_arcs]
        if start_terms:
            row(f"sym_start_{k}", start_terms, ">=", -horizon)
    if model.cardinality_cap is not None and src_arcs:
        row("cap_total_activation",
            [(1, x(k, a)) for k in range(K) for a in src_arcs],
            "<=", model.cardinality_cap)

    obj_terms = [x(k, a) for k in range(K) for a in src_arcs]
    lines = ["\\ drsync driver routing model", f"\\ drivers={K} lb={lb}"]
    lines.append("Minimize")
    lines.append(" obj: " + (" + ".join(obj_terms) if obj_terms else "0 x_none"))
    lines.append("Subject To")
    lines.extend(rows)
    lines.append("Bounds")
    for k in range(K):
        for node in g.nodes:
            lines.append(f" 0 <= {r(k, node.id)} <= {legal.t_cs}")
    lines.append("Binaries")
    names = [x(k, a) for k in range(K) for a in range(len(g.arcs))]
    names += [f"z_{k}_{b}_{i}_{j}" for k in range(K) for b, i, j, _ in chain_z]
    if not obj_terms:
        names.append("x_none")
    for i in range(0, len(names), 8):
        lines.append(" " + " ".join(names[i:i + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def extract_solution(model: Model, assignment) -> Solution:
    """Build a Solution from active (driver, arc) pairs; errors name the defect."""
    g = model.graph
    if isinstance(assignment, dict):
        active = {ka for ka, v in assignment.items() if v}
    else:
        active = set(assignment)
    per_driver: dict[int, list[int]] = {}
    for k, a in active:
        per_driver.setdefault(k, []).append(a)
    routes = []
    for k in sorted(per_driver):
        arcs = per_driver[k]
        by_tail = {g.arcs[a].tail: a for a in arcs}
        if len(by_tail) != len(arcs):
            raise AssignmentError([f"driver {k}: branching flow (two arcs leave one node)"])
        if not any(g.arcs[a].tail == g.source for a in arcs):
            raise AssignmentError([f"driver {k}: no source arc"])
        route = []
        node = g.source
        seen = 0
        while node != g.sink:
            a = by_tail.get(node)
            if a is None:
                raise AssignmentError([f"driver {k}: flow stops at node {node}"])
            route.append(a)
            node = g.arcs[a].head
            seen += 1
            if seen > len(arcs):
                raise AssignmentError([f"driver {k}: flow does not reach the sink"])
        if seen != len(arcs):
            raise AssignmentError([f"driver {k}: disconnected arcs in assignment"])
        if any(g.arcs[a].mode == 1 for a in route):
            routes.append(tuple(route))
    plan = plan_from_routes(model.instance, g, routes)
    sol = Solution(g, routes, plan)
    violations = check_feasibility(sol, model.instance, g)
    hard = [v for v in violations if v.kind in ("uncovered_segment", "desync")]
    if hard:
        raise AssignmentError([f"{v.kind} at {v.subject}" for v in hard])
    return sol


# ---------------------------------------------------------------------------
# Embedded exact search
# ---------------------------------------------------------------------------

class _TimeUp(Exception):
    pass


class _Stop(Exception):
    pass


class _Driver:
    __slots__ = ("base", "time", "u", "daily", "start", "trail_run",
                 "elements", "engaged", "last_active")

    def __init__(self, base, time, u, daily, start):
        self.base = base
        self.time = time
        self.u = u
        self.daily = daily
        self.start = start
        self.trail_run = 0
        self.elements: list[tuple] = []
        self.engaged: int | None = None   # ride index while aboard (policy none)
        self.last_active = time

    def key(self):
        return (self.base, self.time, self.u, self.daily, self.start,
                self.trail_run, self.engaged)

    def snapshot(self):
        return (self.base, self.time, self.u, self.daily, self.start,
                self.trail_run, len(self.elements), self.engaged, self.last_active)

    def rollback(self, snap):
        (self.base, self.time, self.u, self.daily, self.start,
         self.trail_run, n_el, self.engaged, self.last_active) = snap
        del self.elements[n_el:]


class _Search:
    """Depth-first branch-and-bound over an explicit stack of search nodes.

    A node's children are produced by one generator: ``_start_children``, or
    ``_hand_out`` over the piece assignments that ``_exchange_children`` or
    ``_crew_children`` list when the node is entered (a node with none gets
    no generator). Each step applies one child's change to the shared search
    state and yields, and the next step undoes it before applying the next
    child. ``_search`` keeps the open generators on a list, so a deep tree
    costs list entries rather than interpreter frames. ``_TimeUp`` and
    ``_Stop`` end the search from any depth; the state they leave behind is
    not used again.
    """

    def __init__(self, model: Model, config: SolverConfig):
        self.g = model.graph
        self.inst = model.instance
        self.legal = legal = model.instance.legal
        self.t_b, self.t_ds, self.t_dw, self.t_cs = legal.t_b, legal.t_ds, legal.t_dw, legal.t_cs
        self.model = model
        self.config = config
        self.policy_none = self.inst.exchange_policy == POLICY_NONE
        self._children = self._crew_children if self.policy_none else self._exchange_children
        self.rides = list(self.inst.rides)
        self.nrides = len(self.rides)
        self.n_segments = [r.n_segments for r in self.rides]
        self.node_time = [n.time for n in self.g.nodes]
        # steering arc id -> piece, and -> the piece as a carrier unit, on first use
        self._piece_of: dict[int, Piece] = {}
        self._unit_of: dict[int, tuple[int, int, tuple[Piece]]] = {}
        self.deadline = _time.monotonic() + config.time_limit
        self.t0 = _time.monotonic()
        self.nodes_visited = 0

        # ride runtime state
        self.pos = [0] * self.nrides
        self.cur_node = [-1] * self.nrides          # graph node of current stop
        self.pending = [None] * self.nrides         # (station node, seg) awaiting out-leg
        self.minstart = [0] * self.nrides           # first usable index into start grid
        self.times: list[list[int]] = [[] for _ in range(self.nrides)]
        self.stations: list[list[str | None]] = [[] for _ in range(self.nrides)]
        self.start_grids = [
            self.inst.window(r.departures[0]).grid(self.inst.ell) for r in self.rides
        ]
        self.crew: list[dict[int, int]] = [dict() for _ in range(self.nrides)]
        # per ride: (segment, node) or a pending tuple -> candidate pieces, on first use
        self._segment_cache: list[dict[tuple, list]] = [dict() for _ in range(self.nrides)]

        self.drivers: list[_Driver] = []
        # base -> (start, end, (piece,)) of each scheduled piece leaving it
        self.carriers: defaultdict[str, list[tuple]] = defaultdict(list)
        self.ride_pieces: list[list[Piece]] = [[] for _ in range(self.nrides)]

        self.best_f: int | None = None
        self.best_solution: Solution | None = None
        if config.start_solution is not None:
            self.best_f = config.start_solution.objective
            self.best_solution = config.start_solution
        self.incumbent_log: list[tuple[float, int]] = []
        self._set_threshold()

    # -- plumbing ---------------------------------------------------------

    def _set_threshold(self):
        """Driver count at which a node is pruned; changes only with best_f."""
        thr = self.best_f if self.best_f is not None else (1 << 30)
        if self.model.cardinality_cap is not None:
            thr = min(thr, self.model.cardinality_cap + 1)
        self.threshold = thr

    def _piece(self, aid: int) -> Piece:
        piece = self._piece_of.get(aid)
        if piece is None:
            arc = self.g.arcs[aid]
            nodes = self.g.nodes
            piece = self._piece_of[aid] = Piece(
                arc.ride, arc.segment, arc.leg, arc.station,
                nodes[arc.tail].base, nodes[arc.tail].time,
                nodes[arc.head].base, nodes[arc.head].time, aid)
            self._unit_of[aid] = (piece.start, piece.end, (piece,))
        return piece

    # -- relocation -------------------------------------------------------

    def _connect(self, d: _Driver, to_base: str, to_time: int):
        """(ok, u_after, plan elements, trailing deadhead run) for moving d."""
        if d.time > to_time:
            return False, 0, None, 0
        if d.base == to_base:
            gap = to_time - d.time
            plan = [("wait", d.base, d.time, to_time)] if gap else []
            u = 0 if gap >= self.t_b else d.u
            return True, u, plan, (d.trail_run if gap == 0 else 0)
        parents, goal_any, goal_renew = plan_relocation(
            self._carrier_units, self.t_b, d.base, d.time, d.trail_run, to_base, to_time)
        goal = goal_renew if goal_renew is not None else goal_any
        if goal is None:
            return False, 0, None, 0
        steps = unwind(self.g, parents, goal, to_base, to_time)
        end_run = goal[2] if goal[1] == to_time else 0
        u = 0 if goal_renew is not None else d.u
        return True, u, steps, end_run

    def _carrier_units(self, base: str):
        """(start, end, legs) of each scheduled run a driver can ride from base."""
        if not self.policy_none:
            return self.carriers.get(base, ())
        units = []
        for ri in range(self.nrides):
            chunk = self.ride_pieces[ri]
            if not chunk or self.pos[ri] < self.n_segments[ri]:
                continue  # only completed rides can carry passengers
            if chunk[0].from_base != base:
                continue
            units.append((chunk[0].start, chunk[-1].end, tuple(chunk)))
        return units

    # -- main search ------------------------------------------------------

    def run(self) -> SolveOutcome:
        status = "optimal"
        try:
            if self.nrides == 0:
                self._record_leaf()
            else:
                self._search()
        except _TimeUp:
            status = "timeout"
        except _Stop:
            status = "optimal"
        elapsed = _time.monotonic() - self.t0
        nodes = self.nodes_visited
        if status == "timeout":
            if self.best_solution is not None:
                return SolveOutcome("feasible", self.best_solution, self.model.bounds.lb,
                                    elapsed, self.incumbent_log, nodes)
            return SolveOutcome("timeout_no_solution", None, self.model.bounds.lb,
                                elapsed, self.incumbent_log, nodes)
        if self.best_solution is None:
            cap = self.model.cardinality_cap
            bound = (cap + 1) if cap is not None else 0
            return SolveOutcome("infeasible", None, bound, elapsed, self.incumbent_log, nodes)
        return SolveOutcome("optimal", self.best_solution, self.best_f,
                            elapsed, self.incumbent_log, nodes)

    def _search(self):
        """Depth-first walk: visit a node, then resume the deepest open node's next child."""
        stack = []
        while True:
            self.nodes_visited += 1
            if _time.monotonic() > self.deadline:
                raise _TimeUp
            if len(self.drivers) < self.threshold:
                ev = self._next_event()
                if ev is None:
                    self._record_leaf()
                else:
                    kind, ri, t_active = ev
                    children = None     # dead: a ride was deferred past its window
                    if kind == "seg":
                        children = self._children(ri, self._segment_pieces(ri))
                    elif kind == "out":
                        children = self._children(ri, self._out_pieces(ri))
                    elif kind == "start":
                        children = self._start_children(ri, t_active)
                    if children is not None:
                        stack.append(children)
            while stack:
                if next(stack[-1], None) is not None:
                    break
                stack.pop()      # every child was visited and undone
            else:
                return

    def _next_event(self):
        node_time = self.node_time
        cur_node = self.cur_node
        pending = self.pending
        pos = self.pos
        n_segments = self.n_segments
        t_active = None
        choice = None
        unstarted = None
        for ri in range(self.nrides):
            pend = pending[ri]
            if pend is not None:
                t = node_time[pend[0]]
                if t_active is None or t < t_active:
                    t_active, choice = t, ("out", ri)
                continue
            node = cur_node[ri]
            if node < 0:
                if unstarted is None:
                    unstarted = [ri]
                else:
                    unstarted.append(ri)
            elif pos[ri] < n_segments[ri]:
                t = node_time[node]
                if t_active is None or t < t_active:
                    t_active, choice = t, ("seg", ri)
        if unstarted is not None:
            best_start = None
            for ri in unstarted:
                grid = self.start_grids[ri]
                if self.minstart[ri] >= len(grid):
                    return ("dead", ri, None)  # deferred past the window: infeasible branch
                e_min = grid[self.minstart[ri]]
                if (t_active is None or e_min <= t_active) and (
                        best_start is None or e_min < best_start[1]):
                    best_start = (ri, e_min)
            if best_start is not None:
                return ("start", best_start[0], t_active)
        if choice is None:
            return None
        return (choice[0], choice[1], t_active)

    def _start_children(self, ri: int, t_active):
        """Start ride ri at each grid time up to t_active, then defer it past t_active."""
        grid = self.start_grids[ri]
        base = self.rides[ri].stops[0]
        times = self.times[ri]
        lo = self.minstart[ri]
        for gi in range(lo, len(grid)):
            t = grid[gi]
            if t_active is not None and t > t_active:
                break
            node = self.g.node_at.get((base, t))
            if node is None:
                continue
            self.cur_node[ri] = node
            times.append(t)
            yield True
            times.pop()
            self.cur_node[ri] = -1
        if t_active is not None:
            nxt = lo
            while nxt < len(grid) and grid[nxt] <= t_active:
                nxt += 1
            if nxt > lo:
                self.minstart[ri] = nxt
                yield True
                self.minstart[ri] = lo

    def _segment_pieces(self, ri: int) -> list[tuple[Piece, str, int]]:
        """(piece, advance kind, head node) for each way to drive ride ri's next segment."""
        k = self.pos[ri]
        node = self.cur_node[ri]
        cache = self._segment_cache[ri]
        out = cache.get((k, node))
        if out is not None:
            return out
        rid = self.rides[ri].id
        arcs = self.g.arcs
        out = [(self._piece(aid), "direct", arcs[aid].head)
               for aid in self.g.seg_direct.get((rid, k), ()) if arcs[aid].tail == node]
        if not self.policy_none:
            for acc in self.rides[ri].stations[k]:
                out += [(self._piece(aid), "pending", arcs[aid].head)
                        for aid in self.g.seg_in.get((rid, k, acc.station_id), ())
                        if arcs[aid].tail == node]
        cache[(k, node)] = out
        return out

    def _out_pieces(self, ri: int) -> list[tuple[Piece, str, int]]:
        pend = self.pending[ri]
        cache = self._segment_cache[ri]
        out = cache.get(pend)
        if out is not None:
            return out
        snode, k, station = pend
        arcs = self.g.arcs
        out = cache[pend] = [
            (self._piece(aid), "out", arcs[aid].head)
            for aid in self.g.seg_out.get((self.rides[ri].id, k, station), ())
            if arcs[aid].tail == snode]
        return out

    # -- piece assignment ---------------------------------------------------

    def _exchange_children(self, ri: int, candidates):
        """Each piece goes to every distinct free driver able to take it, then to a new one."""
        children: list[tuple] = []
        for piece, kind, head in candidates:
            self._exchange_takers(piece, kind, head, children)
        return self._hand_out(ri, children) if children else None

    def _exchange_takers(self, piece: Piece, kind: str, head: int, children: list):
        """Append the children that give `piece` to a free driver or a new one.

        The children of a node are listed when it is entered: each child
        leaves the drivers as it found them, so later ones see the same state.
        """
        dur = piece.duration
        base = piece.from_base
        start = piece.start
        max_daily = self.t_ds - dur
        min_start = piece.end - self.t_dw
        max_u = self.t_cs - dur
        seen = set()
        for idx, d in enumerate(self.drivers):
            # drivers with equal keys pass or fail these filters alike
            if (d.engaged is not None or d.time > start or d.daily > max_daily
                    or d.start < min_start):
                continue
            key = d.key()
            if key in seen:
                continue
            seen.add(key)
            ok, u0, plan, _run = self._connect(d, base, start)
            if ok and u0 <= max_u:
                children.append((piece, kind, head, idx, plan, u0, None))
        if len(self.drivers) + 1 < self.threshold:
            children.append((piece, kind, head, None, (), 0, (base, start)))

    def _hand_out(self, ri: int, children: list[tuple]):
        """Visit each child (piece, advance kind, head node, driver index, plan,
        u before the piece, new driver's (base, time) or None) in order.

        Children with a new driver are listed only while the threshold allows
        one more driver; one is still skipped if incumbents found in earlier
        children have lowered the threshold since.
        """
        drivers = self.drivers
        carriers = self.carriers
        unit_of = self._unit_of
        ride_pieces = self.ride_pieces[ri]
        stations = self.stations[ri]
        times = self.times[ri]
        pos = self.pos
        cur_node = self.cur_node
        pending = self.pending
        for piece, kind, head, idx, plan, u0, new_at in children:
            if new_at is not None:
                if len(drivers) + 1 >= self.threshold:
                    continue
                drivers.append(_Driver(new_at[0], new_at[1], 0, 0, new_at[1]))
                idx = len(drivers) - 1
            # apply: driver idx steers the piece after the plan, and the ride moves on
            d = drivers[idx]
            elements = d.elements
            undo = (d.base, d.time, d.u, d.daily, d.trail_run, d.last_active,
                    len(elements), cur_node[ri], pending[ri])
            if plan:
                elements.extend(plan)
            elements.append(("steer", piece.arc))
            d.base = piece.to_base
            d.time = d.last_active = piece.end
            d.u = u0 + piece.duration
            d.daily += piece.duration
            d.trail_run = 0
            carriers[piece.from_base].append(unit_of[piece.arc])
            ride_pieces.append(piece)
            if kind == "pending":
                pending[ri] = (head, piece.segment, piece.station)
                stations.append(piece.station)
            else:
                if kind == "out":
                    pending[ri] = None
                else:
                    stations.append(None)
                pos[ri] += 1
                times.append(self.node_time[head])
                cur_node[ri] = head
            if not self.policy_none:
                yield True
            else:
                crew_undo = self._crew_update(ri, piece, idx)
                if crew_undo is not None:
                    yield True
                    self._crew_rollback(ri, crew_undo)
            # undo
            (d.base, d.time, d.u, d.daily, d.trail_run, d.last_active, n_elements,
             cur_node[ri], pending[ri]) = undo
            del elements[n_elements:]
            carriers[piece.from_base].pop()
            ride_pieces.pop()
            if kind == "pending":
                stations.pop()
            else:
                if kind == "direct":
                    stations.pop()
                pos[ri] -= 1
                times.pop()
            if new_at is not None:
                drivers.pop()

    # -- policy-none crew handling ----------------------------------------

    def _crew_children(self, ri: int, candidates):
        """Like ``_exchange_children``, for crews that stay aboard to the terminal."""
        t_b, t_ds, t_dw, t_cs = self.t_b, self.t_ds, self.t_dw, self.t_cs
        drivers = self.drivers
        arcs = self.g.arcs
        start_t = self.times[ri][0]
        start_b = self.rides[ri].stops[0]
        crew = self.crew[ri]
        ride_pieces = self.ride_pieces[ri]
        children: list[tuple] = []
        for piece, kind, head in candidates:
            if piece.segment == 0:
                self._exchange_takers(piece, kind, head, children)
                continue
            dur = piece.duration
            ride_dh = [("deadhead", arcs[p.arc].twin) for p in ride_pieces]
            # later segment: crew members or late recruits who boarded at the start
            for idx in sorted(crew):
                d = drivers[idx]
                u0 = 0 if piece.start - d.last_active >= t_b else d.u
                if (u0 + dur > t_cs or d.daily + dur > t_ds
                        or piece.end - d.start > t_dw):
                    continue
                plan = [("deadhead", arcs[p.arc].twin)
                        for p in ride_pieces if p.start >= d.last_active]
                children.append((piece, kind, head, idx, plan, u0, None))
            seen = set()
            for idx, d in enumerate(drivers):
                if (d.engaged is not None or idx in crew
                        or d.daily + dur > t_ds or piece.end - d.start > t_dw):
                    continue
                key = d.key()
                if key in seen:
                    continue
                seen.add(key)
                ok, u0, plan, end_run = self._connect(d, start_b, start_t)
                if not ok:
                    continue
                if end_run + (piece.start - start_t) >= t_b:
                    u0 = 0
                if u0 + dur > t_cs:
                    continue
                children.append((piece, kind, head, idx, plan + ride_dh, u0, None))
            if piece.end - start_t <= t_dw and len(drivers) + 1 < self.threshold:
                children.append((piece, kind, head, None, ride_dh, 0, (start_b, start_t)))
        return self._hand_out(ri, children) if children else None

    def _crew_update(self, ri: int, piece: Piece, steerer_idx: int):
        """Record the steerer in ride ri's crew; release the crew if the ride ended.

        Returns the undo record, or None (with nothing changed) when the
        release would break a crew member's working span.
        """
        ride = self.rides[ri]
        undo: dict[int, tuple] = {}
        d = self.drivers[steerer_idx]
        if steerer_idx not in self.crew[ri]:
            undo[steerer_idx] = ("join", d.engaged)
            self.crew[ri][steerer_idx] = piece.end
            d.engaged = ri
        else:
            undo[steerer_idx] = ("stamp", self.crew[ri][steerer_idx])
            self.crew[ri][steerer_idx] = piece.end
        if self.pos[ri] < ride.n_segments:
            return undo
        # ride completed: release the crew at the terminal
        terminal_b = piece.to_base
        terminal_t = piece.end
        for idx in sorted(self.crew[ri]):
            m = self.drivers[idx]
            if terminal_t - m.start > self.legal.t_dw:
                self._crew_rollback(ri, undo)
                return None
            undo.setdefault(idx, ("release", m.snapshot()))
            if m.time < terminal_t:
                for p in self.ride_pieces[ri]:
                    if p.start >= m.last_active:
                        m.elements.append(("deadhead", self.g.arcs[p.arc].twin))
                run = terminal_t - m.last_active
                if run >= self.legal.t_b:
                    m.u = 0
                m.trail_run = run
                m.base, m.time = terminal_b, terminal_t
            m.engaged = None
        undo["__crew__"] = dict(self.crew[ri])
        self.crew[ri] = {}
        return undo

    def _crew_rollback(self, ri: int, undo):
        if "__crew__" in undo:
            self.crew[ri] = undo.pop("__crew__")
        for idx, (tag, data) in undo.items():
            d = self.drivers[idx]
            if tag == "join":
                del self.crew[ri][idx]
                d.engaged = data
            elif tag == "stamp":
                self.crew[ri][idx] = data
            else:  # release
                d.rollback(data)
                d.engaged = ri

    # -- incumbents ---------------------------------------------------------

    def _record_leaf(self):
        f = len(self.drivers)
        if self.best_f is not None and f >= self.best_f:
            return
        routes = [assemble_route(self.g, d.elements) for d in self.drivers]
        plan = {}
        for ri, ride in enumerate(self.rides):
            plan[ride.id] = RidePlan(tuple(self.times[ri]), tuple(self.stations[ri]))
        sol = Solution(self.g, routes, plan)
        self.best_f = f
        self.best_solution = sol
        self.incumbent_log.append((_time.monotonic() - self.t0, f))
        cb = self.config.incumbent_callback
        if cb is not None:
            better = cb(sol)
            if better is not None and better.objective < self.best_f:
                self.best_f = better.objective
                self.best_solution = better
                self.incumbent_log.append((_time.monotonic() - self.t0, better.objective))
        self._set_threshold()
        if self.best_f <= max(self.model.objective_floor, 0):
            raise _Stop  # incumbent meets a proven lower bound


def solve(model: Model, config: SolverConfig | None = None) -> SolveOutcome:
    """Run the embedded exact backend on the model."""
    config = config or SolverConfig()
    if model.cardinality_cap is not None and model.cardinality_cap == 0:
        feasible_empty = len(model.instance.rides) == 0
        if feasible_empty:
            return SolveOutcome("optimal", Solution(model.graph, [], {}), 0, 0.0, [])
        return SolveOutcome("infeasible", None, 1, 0.0, [])
    return _Search(model, config).run()
