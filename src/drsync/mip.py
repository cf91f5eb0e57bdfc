"""The driver-count model over the time graph and its exact backend.

A model names the rides, their time graph and constructive bounds, the
optional driver cap of the restricted problem P(cap) and a proven floor on
the objective. The backend is a depth-first branch-and-bound that schedules
ride segments in chronological order, assigns each steering piece to an
existing or a fresh driver, validates relocations (waits and deadhead hops)
eagerly against the pieces already scheduled, with the relocation call
that local search also uses (``solution.itinerary``), and prunes with
the incumbent, the constructive lower bound and the optional driver cap. It
is exact whenever it finishes within the time limit. The search is
iterative: every open node is a generator kept on an explicit stack, which
applies one child's change, yields, and undoes the change when resumed, so
the depth of the tree (several pieces per ride) is not bounded by the
interpreter's recursion limit. Under policy ``none`` a child's crew change
is applied and undone the same way, by the nested generator ``_crew_step``.
The deadline is checked at every node.

Both crew policies share one taker rule, one ride-along list (``_aboard``)
and one carrier index (``carriers``). Under policy ``none`` a piece goes to
a crew member or to a driver who boards at the ride's start and rides along
to it, and a finished ride carries passengers as one unit; under the
exchange policies each scheduled piece is a carrier, one unit per arc. A
piece is a steering arc of the graph, held as the graph's own object: its
located ends are the ride's times and bases. A ride starts at a copy of its
first stop's grid, read off the graph as (minute, node) pairs
(``TimeGraph.starts``), so the search lays out no grid and looks up no
node of its own.

The taker rule lists a node's children in one pass, ``_list_children``.
Every candidate piece at a node boards at the same located time (the ride's
current node under the exchange policies, its start under ``none``), so one
loop over the free drivers asks ``itinerary`` once for each and keeps those
who reach the boarding point (the reach list), and one loop over the
candidates then applies only each piece's own filters (daily steering, span
start, continuous steering) to that list. Free drivers with equal state
keys are listed once, the first in index order. The filters read only
fields of the key, so drivers with one key pass or fail alike; dropping the
later ones before the filters lists the same children in the same order as
a per-piece dedupe would, and the tree is the same.

An exact pre-filter skips, before its relocation is searched, a free driver
who can take no candidate. If its u plus the shortest candidate's duration
passes ``t_cs``, it steers no candidate unless continuous steering renews
first, by a wait of ``t_b`` or a deadhead run of ``t_b``. Every wait and
run of its relocation lies between its own time and the boarding time; a
run may continue the deadhead run it is on (``trail_run``), and under
``none`` the ride along to the piece continues it further. So when
``trail_run`` plus the time from the driver's time to the latest
candidate's start falls short of ``t_b``, no renewal is possible and the
driver gets no child. The filter, too, reads only fields of the key, so it
drops every driver of a key or none of them, and the tree is the same.

The next event is read off a per-ride list of event times, ``event_time``:
the generators that move a ride (``_start_children`` and ``_hand_out``) set
it and restore it with the rest of the ride's state, and its first minimum
is the ride a scan in index order would pick. The few unstarted rides are
scanned.

Identical rides (every ``Ride`` field equal but ``id`` and ``line_id``, as
parallel lines give) are searched in one order of their simultaneous moves,
not in both. Under the exchange policies the rule fires when ride j's piece
event directly follows the move of a lower-index ride i identical to j, and
j's ride state equals i's state before that move; the state is the segment,
the current node, the pending out-leg and the leg, station, start and end of
each piece so far. j then gets only the children whose rank is not below the
rank of i's move, where a rank is (candidate position, the driver's state
key before the move) and a new driver ranks last. It is exact: the two rides
board at the same located time and their candidate lists line up position
by position. i's move leaves every driver but its own as it was, and adds
no carrier that reaches a boarding point at that time, so the mirrored pair
of moves is in the tree too, and after it the state is the same once the
labels i and j are swapped. The order of ties among events at one time
changes no reachable completion, so any solution can be relabelled, one
step at a time, into one the rule keeps. The same holds in the final solve,
where only thresholds that later incumbents lower can differ. The classes
are found once per search; a search without identical rides lists its
children by ``_exchange_children`` and never reaches the rule's code, and in
one with them a ride that has none skips it too. Policy ``none`` is left
out: its crews stay aboard to the terminal, so the crew of each ride would
have to join the compared state.
"""

from __future__ import annotations

import time as _time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable

from .bounds import BoundReport
from .instance import Instance, POLICY_NONE
from .solution import Solution, assemble_route, itinerary
from .timegraph import TimedArc, TimeGraph


@dataclass(frozen=True)
class SolverConfig:
    time_limit: float = 3600.0
    start_solution: Solution | None = None
    incumbent_callback: Callable[[Solution], Solution | None] | None = None


@dataclass
class SolveOutcome:
    status: str                      # optimal | infeasible | feasible | timeout_no_solution
    best_solution: Solution | None
    incumbent_log: list[tuple[float, int]] = field(default_factory=list)
    nodes: int = 0                   # branch-and-bound nodes visited
    symmetry_drops: int = 0          # children the identical-ride rule dropped


@dataclass(frozen=True)
class Model:
    graph: TimeGraph
    instance: Instance
    bounds: BoundReport
    cardinality_cap: int | None = None
    # proving a solution at or below this value ends the search (a valid
    # lower bound asserted by the caller; the constructive LB by default)
    objective_floor: int = 0


def build_model(instance: Instance, graph: TimeGraph, bounds: BoundReport) -> Model:
    """The model of ``instance``'s rides over ``graph``.

    ``graph`` may have been built for a larger instance that contains these
    rides (an independent component's model shares its parent's graph);
    ``bounds`` must be ``instance``'s own.
    """
    return Model(graph=graph, instance=instance, bounds=bounds, objective_floor=bounds.lb)


def restrict(model: Model, cap: int) -> Model:
    """Copy of the model with the total-activation cap added (problem P(cap))."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return replace(model, cardinality_cap=cap)


# ---------------------------------------------------------------------------
# Embedded exact search
# ---------------------------------------------------------------------------

_NEVER = 1 << 62    # event time of a ride that is not started or is finished


class _TimeUp(Exception):
    pass


class _Stop(Exception):
    pass


class _Driver:
    __slots__ = ("base", "time", "u", "daily", "start", "trail_run",
                 "elements", "engaged")

    def __init__(self, base, time):
        self.base = base
        self.time = time
        self.u = 0
        self.daily = 0
        self.start = time
        self.trail_run = 0
        self.elements: list[tuple] = []
        self.engaged: int | None = None   # ride index while aboard (policy none)


class _Search:
    """Depth-first branch-and-bound over an explicit stack of search nodes.

    A node's children are produced by one generator: ``_start_children``, or
    ``_hand_out`` over the piece assignments that ``_exchange_children`` or
    ``_crew_children`` list with ``_list_children`` when the node is entered
    (a node with none gets no generator); in a search with identical rides,
    ``_identical_children`` gives a ride that has some
    ``_symmetric_hand_out``, which visits each child it keeps through
    ``_hand_out`` and restores ``last_move`` when done. Each step applies one
    child's change to the shared search state, ``carriers`` included, and
    yields, and the next step undoes it before applying the next child;
    under policy ``none``, ``_hand_out`` yields from ``_crew_step``, which
    does the same for the crew change and the release at the terminal. So a
    node leaves the state as it found it once its children are exhausted.
    ``_search`` keeps the open generators on a list, so a deep tree costs
    list entries rather than interpreter frames. ``_TimeUp`` and ``_Stop``
    end the search from any depth; the state they leave behind is not used
    again.
    """

    def __init__(self, model: Model, config: SolverConfig):
        self.g = model.graph
        self.inst = model.instance
        legal = model.instance.legal
        self.t_b, self.t_ds, self.t_dw, self.t_cs = legal.t_b, legal.t_ds, legal.t_dw, legal.t_cs
        self.model = model
        self.config = config
        self.policy_none = self.inst.exchange_policy == POLICY_NONE
        self.rides = list(self.inst.rides)
        self.nrides = len(self.rides)
        self.n_segments = [r.n_segments for r in self.rides]
        self.deadline = _time.monotonic() + config.time_limit
        self.t0 = _time.monotonic()
        self.nodes_visited = 0

        # ride runtime state
        self.pos = [0] * self.nrides
        self.cur_node = [-1] * self.nrides          # graph node of current stop
        self.pending = [None] * self.nrides         # (station node, seg, station) awaiting out-leg
        self.minstart = [0] * self.nrides           # first usable index into start grid
        # per ride: its start grid as (minute, node), read off the graph
        self.start_grids = [self.g.starts[r.id] for r in self.rides]
        # per ride: the time of the node it leaves next (its current node, or
        # the station node it waits at for an out-leg); _NEVER before it
        # starts and once it is finished
        self.event_time = [_NEVER] * self.nrides
        self.unstarted = list(range(self.nrides))   # in index order
        # policy none: per ride, the drivers aboard it (each with engaged == ride)
        self.crew: list[set[int]] = [set() for _ in range(self.nrides)]
        # per ride: (segment, node) or a pending tuple -> _pieces(), on first use
        self._piece_cache: list[dict[tuple, tuple]] = [dict() for _ in range(self.nrides)]
        # exchange policies: per ride, the lower-index rides identical to it,
        # or None when no other ride is identical to it
        self.identical: list[frozenset[int] | None] = [None] * self.nrides
        self._children = self._crew_children if self.policy_none else self._exchange_children
        if not self.policy_none:
            classes = defaultdict(list)
            for ri, r in enumerate(self.rides):
                # every Ride field but id and line_id
                classes[r.stops, r.departures, r.segment_minutes, r.stations].append(ri)
            for members in classes.values():
                if len(members) > 1:
                    self._children = self._identical_children
                    for n, ri in enumerate(members):
                        self.identical[ri] = frozenset(members[:n])
        # (node, ride, ride state, rank) of the last move of a ride that has
        # identical rides: the node its child is, and what that child checks
        self.last_move: tuple | None = None
        self.symmetry_drops = 0

        self.drivers: list[_Driver] = []
        # base -> (start, end, pieces) of each carrier leaving it: a scheduled
        # piece, or under policy none a finished ride
        self.carriers: defaultdict[str, list[tuple]] = defaultdict(list)
        # per ride, its pieces so far; a finished ride's are its plan
        self.ride_arcs: list[list[TimedArc]] = [[] for _ in range(self.nrides)]

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

    # -- main search ------------------------------------------------------

    def run(self) -> SolveOutcome:
        try:
            self._search()
        except _TimeUp:
            status = "feasible" if self.best_solution is not None else "timeout_no_solution"
        except _Stop:
            status = "optimal"
        else:
            status = "optimal" if self.best_solution is not None else "infeasible"
        return SolveOutcome(status, self.best_solution, self.incumbent_log, self.nodes_visited,
                            self.symmetry_drops)

    def _search(self):
        """Depth-first walk: visit a node, then resume the deepest open node's next child."""
        stack = []
        drivers = self.drivers
        monotonic, deadline = _time.monotonic, self.deadline
        next_event, pieces, children_of = self._next_event, self._pieces, self._children
        while True:
            self.nodes_visited += 1
            if monotonic() > deadline:
                raise _TimeUp
            if len(drivers) < self.threshold:
                ev = next_event()
                if ev is None:
                    self._record_leaf()
                else:
                    kind, ri, t_active = ev
                    children = None     # dead: a ride was deferred past its window
                    if kind == "piece":
                        children = children_of(ri, pieces(ri))
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
        """The next event: ("start", ri, t) when an unstarted ride ri can start
        no later than the first piece event t (None if there is none), ("dead",
        ri, None) when an unstarted ride was deferred past its window, ("piece",
        ri, t) for the first ride in index order whose next piece leaves at the
        earliest time t, or None once every ride is finished.

        Started rides are read off ``event_time``; the few unstarted ones are
        scanned.
        """
        event_time = self.event_time
        t_active = min(event_time) if event_time else _NEVER
        if t_active == _NEVER:
            t_active = None
        if self.unstarted:
            best_ri = best_e = None
            for ri in self.unstarted:
                grid = self.start_grids[ri]
                lo = self.minstart[ri]
                if lo >= len(grid):
                    return ("dead", ri, None)  # deferred past the window: infeasible branch
                e_min = grid[lo][0]
                if (t_active is None or e_min <= t_active) and (
                        best_e is None or e_min < best_e):
                    best_ri, best_e = ri, e_min
            if best_ri is not None:
                return ("start", best_ri, t_active)
        if t_active is None:
            return None
        return ("piece", event_time.index(t_active), t_active)

    def _start_children(self, ri: int, t_active):
        """Start ride ri at each grid time up to t_active, then defer it past t_active."""
        grid = self.start_grids[ri]
        unstarted = self.unstarted
        at = unstarted.index(ri)
        del unstarted[at]
        lo = self.minstart[ri]
        for t, node in grid[lo:]:
            if t_active is not None and t > t_active:
                break
            self.cur_node[ri] = node
            self.event_time[ri] = t
            yield True
            self.cur_node[ri] = -1
        self.event_time[ri] = _NEVER
        unstarted.insert(at, ri)
        if t_active is not None:
            nxt = lo
            while nxt < len(grid) and grid[nxt][0] <= t_active:
                nxt += 1
            if nxt > lo:
                self.minstart[ri] = nxt
                yield True
                self.minstart[ri] = lo

    def _pieces(self, ri: int) -> tuple:
        """The ways to drive ride ri's next leg, as (candidates, tired,
        no_rest).

        Each candidate comes with the limits a driver must meet to take it:
        (candidate, its start, most daily steering before it, earliest span
        start, most u before it). A candidate is (steering arc, steer
        element, carrier unit, ride state after it, position): the unit is
        the arc as a carrier under the exchange policies, None under policy
        none; the state is ride ri's (current node, pending out-leg, segment,
        event time) once the arc is driven; the position is the candidate's
        index in this list. ``tired`` and ``no_rest`` are the
        pre-filter's extremes (``_list_children``): ``t_cs`` less the
        shortest duration, ``t_b`` less the latest start. Each arc leaves
        one node of one ride, so this is made once per search.
        """
        pend = self.pending[ri]
        key = pend or (self.pos[ri], self.cur_node[ri])
        cache = self._piece_cache[ri]
        out = cache.get(key)
        if out is not None:
            return out
        rid = self.rides[ri].id
        g = self.g
        arcs = g.arcs
        if pend is not None:    # the out-leg from the station the ride waits at
            snode, k, station = pend
            ends = [arcs[aid] for aid in g.seg_out.get((rid, k, station), ())
                    if arcs[aid].tail == snode]
            ins = []
        else:
            k, node = key
            ends = [arcs[aid] for aid in g.seg_direct.get((rid, k), ()) if arcs[aid].tail == node]
            # a graph of policy none has no station legs (filter_stations)
            ins = [arcs[aid] for acc in self.rides[ri].stations[k]
                   for aid in g.seg_in.get((rid, k, acc.station_id), ()) if arcs[aid].tail == node]
        last = k + 1 == self.n_segments[ri]
        # an arc that reaches the next stop moves the ride on; an in-leg
        # leaves it at its node, waiting at the station for the out-leg
        moves = [(p, (p.head, None, k + 1, _NEVER if last else p.end)) for p in ends]
        moves += [(p, (p.tail, (p.head, k, p.station), k, p.end)) for p in ins]
        none = self.policy_none
        t_ds, t_dw, t_cs = self.t_ds, self.t_dw, self.t_cs
        cands = [((p, ("steer", p.id), None if none else (p.start, p.end, (p,)), moved, n),
                  p.start, t_ds - p.duration, p.end - t_dw, t_cs - p.duration)
                 for n, (p, moved) in enumerate(moves)]
        out = cache[key] = (cands, t_cs - min([p.duration for p, _ in moves], default=0),
                            self.t_b - max([p.start for p, _ in moves], default=0))
        return out

    # -- piece assignment ---------------------------------------------------

    def _exchange_children(self, ri: int, pieces: tuple):
        """Each piece goes to every distinct free driver able to take it, then to a new one."""
        if not pieces[0]:
            return None
        # every candidate leaves the ride's current node: one boarding point
        first = pieces[0][0][0][0]
        children = self._list_children(pieces, first.from_base, first.start, [], [])
        return self._hand_out(ri, children) if children else None

    def _identical_children(self, ri: int, pieces: tuple):
        """``_exchange_children`` in a search with identical rides, where a
        ride that has some gets ``_symmetric_hand_out``."""
        if self.identical[ri] is None or not pieces[0]:
            return self._exchange_children(ri, pieces)
        first = pieces[0][0][0][0]
        children = self._list_children(pieces, first.from_base, first.start, [], [])
        return self._symmetric_hand_out(ri, children) if children else None

    def _crew_children(self, ri: int, pieces: tuple):
        """Like ``_exchange_children``, for crews that stay aboard to the terminal:
        each piece goes to a crew member, or to a taker boarding at the ride's start."""
        if not pieces[0]:
            return None
        drivers = self.drivers
        pieces_so_far = self.ride_arcs[ri]
        start_t = pieces_so_far[0].start if pieces_so_far else self.event_time[ri]
        members = []
        for idx in sorted(self.crew[ri]):
            d = drivers[idx]
            members.append((idx, d.time, d.u, d.daily, d.start, self._aboard(ri, d.time)))
        children = self._list_children(pieces, self.rides[ri].stops[0], start_t,
                                       self._aboard(ri, start_t), members)
        return self._hand_out(ri, children) if children else None

    def _list_children(self, pieces: tuple, base: str, start: int,
                       aboard: list[tuple], members: list[tuple]):
        """The node's children, in the order they are visited.

        Each candidate goes, in this order, to each crew member in
        ``members`` (index, time, u, daily steering, span start, ride along;
        policy none only) whose limits allow it, to each free driver of the
        node's reach list whose limits allow it, and to a new driver. Free
        drivers and new ones board at ``(base, start)`` and ride ``aboard``
        to the piece; that ride along, with the run that reaches ``base``,
        renews continuous steering once it lasts ``t_b``.

        The reach list is made first, in one loop over the free drivers (not
        aboard a ride, at ``start`` or before), in index order and one per
        state key, with one ``itinerary`` call each; the loop over the
        candidates follows. The exact pre-filter (module docstring) skips a
        driver before its key is built when its u is above ``tired`` and its
        ``trail_run`` less its time is below ``no_rest``. Children are
        listed when the node is entered: each leaves the drivers as it found
        them, so later ones see the same state.
        """
        t_b = self.t_b
        carriers = self.carriers
        candidates, tired, no_rest = pieces
        reach = []
        seen = set()
        for idx, d in enumerate(self.drivers):
            if d.engaged is not None or d.time > start:
                continue
            if d.u > tired and d.trail_run - d.time < no_rest:
                continue
            key = (d.base, d.time, d.u, d.daily, d.start, d.trail_run)
            if key in seen:
                continue
            seen.add(key)
            way = itinerary(carriers, t_b, d.base, d.time, d.trail_run, base, start)
            if way is not None:
                renews, plan, run = way
                reach.append((idx, d.daily, d.start, d.u, 0 if renews else t_b - run,
                              plan + aboard if aboard else plan))
        children: list[tuple] = []
        new_driver = len(self.drivers) + 1 < self.threshold
        for cand, p_start, max_daily, min_start, max_u in candidates:
            for idx, time, u, daily, d_start, ride_along in members:
                u0 = 0 if p_start - time >= t_b else u
                if u0 <= max_u and daily <= max_daily and d_start >= min_start:
                    children.append((cand, idx, ride_along, u0, None))
            ride = p_start - start
            for idx, daily, d_start, u, renew_ride, plan in reach:
                if daily <= max_daily and d_start >= min_start:
                    u0 = 0 if ride >= renew_ride else u
                    if u0 <= max_u:
                        children.append((cand, idx, plan, u0, None))
            if new_driver and start >= min_start:
                children.append((cand, None, aboard, 0, (base, start)))
        return children

    def _hand_out(self, ri: int, children: list[tuple]):
        """Visit each child (candidate, driver index, plan, u before the
        piece, new driver's (base, time) or None) in order.

        A candidate is ``_pieces``' (piece, steer element, carrier unit,
        ride state after it). Children with a new driver are listed only
        while the threshold allows one more driver; one is still skipped if
        incumbents found in earlier children have lowered the threshold
        since. Every child moves ride ri on from the same state, so it is
        saved once, and every piece leaves the same base, so under the
        exchange policies its carriers are looked up once.
        """
        drivers = self.drivers
        policy_none = self.policy_none
        units = None if policy_none else self.carriers[children[0][0][0].from_base]
        ride_arcs = self.ride_arcs[ri]
        pos = self.pos
        cur_node = self.cur_node
        pending = self.pending
        event_time = self.event_time
        ride_undo = cur_node[ri], pending[ri], pos[ri], event_time[ri]
        for (piece, steer, unit, moved, _), idx, plan, u0, new_at in children:
            if new_at is None:
                d = drivers[idx]
                undo = d.base, d.time, d.u, d.daily, d.trail_run, len(d.elements)
            elif len(drivers) + 1 >= self.threshold:
                continue
            else:
                d = _Driver(*new_at)
                drivers.append(d)
                idx = len(drivers) - 1
            # apply: driver idx steers the piece after the plan, and the ride moves on
            elements = d.elements
            if plan:
                elements.extend(plan)
            elements.append(steer)
            d.base = piece.to_base
            d.time = piece.end
            d.u = u0 + piece.duration
            d.daily += piece.duration
            d.trail_run = 0
            ride_arcs.append(piece)
            cur_node[ri], pending[ri], pos[ri], event_time[ri] = moved
            if policy_none:
                yield from self._crew_step(ri, piece, idx)
            else:
                units.append(unit)
                yield True
                units.pop()
            # undo; a new driver leaves with its changes
            if new_at is None:
                d.base, d.time, d.u, d.daily, d.trail_run, n_elements = undo
                del elements[n_elements:]
            else:
                drivers.pop()
            cur_node[ri], pending[ri], pos[ri], event_time[ri] = ride_undo
            ride_arcs.pop()

    def _symmetric_hand_out(self, ri: int, children: list[tuple]):
        """``_hand_out`` for a ride with identical rides: visit the children
        the identical-ride rule (module docstring) keeps, one at a time, and
        note each child's move in ``last_move`` for the child node.

        The state is the segment, the current node, the pending out-leg and
        each piece so far as (leg, station, start, end); a rank is (candidate
        position, 0, driver's state key) for a driver already out and
        (candidate position, 1) for a new one. When this node is the child
        of a move of a lower-index identical ride, made from the state this
        ride is in now, children ranked below that move are dropped.
        """
        state = (self.pos[ri], self.cur_node[ri], self.pending[ri],
                 [(p.leg, p.station, p.start, p.end) for p in self.ride_arcs[ri]])
        m = self.last_move
        floor = None
        if (m is not None and m[0] == self.nodes_visited and m[1] in self.identical[ri]
                and m[2] == state):
            floor = m[3]
        drivers = self.drivers
        for child in children:
            position, idx = child[0][4], child[1]
            if idx is None:
                rank = (position, 1)
            else:
                d = drivers[idx]   # each child leaves the drivers as it found them
                rank = (position, 0, (d.base, d.time, d.u, d.daily, d.start, d.trail_run))
            if floor is not None and rank < floor:
                self.symmetry_drops += 1
                continue
            self.last_move = (self.nodes_visited + 1, ri, state, rank)
            yield from self._hand_out(ri, [child])
        self.last_move = m

    # -- policy-none crew handling ----------------------------------------

    def _aboard(self, ri: int, since: int) -> list[tuple]:
        """Deadheads on ride ri's scheduled pieces from ``since`` on."""
        return [("deadhead", p.twin) for p in self.ride_arcs[ri] if p.start >= since]

    def _crew_step(self, ri: int, piece: TimedArc, idx: int):
        """Add driver idx, who steers ``piece``, to ride ri's crew and, if the
        ride ends with it, release the crew at the terminal and file the ride
        as a carrier; yield, then undo.

        Yields nothing when the release would break a member's working span.
        """
        crew = self.crew[ri]
        drivers = self.drivers
        joined = idx not in crew
        if joined:
            crew.add(idx)
            drivers[idx].engaged = ri
        end = piece.end
        if self.pos[ri] < self.n_segments[ri]:
            yield True
        elif all(end - drivers[m].start <= self.t_dw for m in crew):
            # the crew rides to the terminal and leaves the ride there
            saved = []
            for m in crew:
                d = drivers[m]
                saved.append((d, d.base, d.time, d.u, d.trail_run, len(d.elements)))
                if d.time < end:
                    d.elements += self._aboard(ri, d.time)
                    run = end - d.time
                    if run >= self.t_b:
                        d.u = 0
                    d.trail_run = run
                    d.base, d.time = piece.to_base, end
                d.engaged = None
            pieces = self.ride_arcs[ri]
            units = self.carriers[self.rides[ri].stops[0]]
            units.append((pieces[0].start, end, tuple(pieces)))
            self.crew[ri] = set()
            yield True
            self.crew[ri] = crew
            units.pop()
            for d, base, time, u, trail_run, n_elements in saved:
                d.base, d.time, d.u, d.trail_run = base, time, u, trail_run
                del d.elements[n_elements:]
                d.engaged = ri
        if joined:
            crew.remove(idx)
            drivers[idx].engaged = None

    # -- incumbents ---------------------------------------------------------

    def _record_leaf(self):
        f = len(self.drivers)
        if self.best_f is not None and f >= self.best_f:
            return
        routes = [assemble_route(self.g, d.elements) for d in self.drivers]
        plan = {ride.id: tuple(pieces) for ride, pieces in zip(self.rides, self.ride_arcs)}
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
        if self.best_f <= self.model.objective_floor:
            raise _Stop  # incumbent meets a proven lower bound


def solve(model: Model, config: SolverConfig | None = None) -> SolveOutcome:
    """Run the embedded exact backend on the model."""
    return _Search(model, config or SolverConfig()).run()
