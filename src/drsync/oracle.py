"""Exhaustive reference optimum for micro instances.

Independent of the embedded solver and the heuristics: departure grids,
station options and piece timings are enumerated straight from the
instance (not from the graph's start grids or arcs), driver states are
immutable tuples, and the search deepens an explicit driver cap (1, 2, ...)
until a feasible assignment exists, so any answer is a proven optimum.
Shares only the data types, ``filter_stations`` (which station accesses
are usable), ``build_graph`` and ``graph_stats`` (its size limit, the
implicit depot counted, and its witness), and ``assemble_route`` and
``plan_from_routes`` for the returned witness.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from .instance import Instance, POLICY_NONE, check_instance, filter_stations
from .solution import Solution, assemble_route, plan_from_routes
from .timegraph import LEG_DIRECT, LEG_IN, LEG_OUT, build_graph, graph_stats


class OracleSizeError(Exception):
    """Instance exceeds the exhaustive-search limits; refusal, not an answer."""


@dataclass
class OracleResult:
    optimum: int | None          # None = proven infeasible
    witness: Solution | None
    explored: int
    elapsed: float

    @property
    def feasible(self) -> bool:
        return self.optimum is not None

    def to_dict(self) -> dict:
        return {
            "optimum": self.optimum,
            "feasible": self.feasible,
            "explored": self.explored,
            "witness": self.witness.to_dict() if self.witness else None,
        }


# driver tuple layout: (base, time, u, daily, start, trail_run, engaged, last_active)
def brute_force(instance: Instance, max_rides: int = 4, max_arcs: int = 300) -> OracleResult:
    t0 = _time.monotonic()
    inst = filter_stations(check_instance(instance))
    g = build_graph(instance)
    if len(inst.rides) > max_rides:
        raise OracleSizeError(f"{len(inst.rides)} rides exceeds the limit of {max_rides}")
    if (n_arcs := graph_stats(g).n_arcs) > max_arcs:
        raise OracleSizeError(f"{n_arcs} arcs exceeds the limit of {max_arcs}")

    legal = inst.legal
    t_cs, t_b, t_ds, t_dw = legal.t_cs, legal.t_b, legal.t_ds, legal.t_dw
    policy_none = inst.exchange_policy == POLICY_NONE
    rides = inst.rides
    nr = len(rides)
    half, ell = inst.theta_tw // 2, inst.ell
    grids = [[range(tau - half, tau + half + 1, ell) for tau in r.departures] for r in rides]
    max_pieces = sum(2 * r.n_segments for r in rides)

    explored = 0
    found: dict = {}

    # ride state: (pos, cur_time, pending_ts, station_of_pending, times, stats, minstart)

    def initial_rstate():
        return tuple((0, None, None, None, (), (), 0) for _ in range(nr))

    def next_event(rstate):
        t_active = None
        choice = None
        for ri, (pos, cur, pend, _pst, _tv, _sv, mins) in enumerate(rstate):
            if pend is not None:
                if t_active is None or pend < t_active:
                    t_active, choice = pend, ("out", ri)
            elif cur is not None and pos < rides[ri].n_segments:
                if t_active is None or cur < t_active:
                    t_active, choice = cur, ("seg", ri)
        start_pick = None
        for ri, (pos, cur, pend, _pst, _tv, _sv, mins) in enumerate(rstate):
            if cur is not None:
                continue
            grid = grids[ri][0]
            if mins >= len(grid):
                return ("dead", ri, None)
            e_min = grid[mins]
            if (t_active is None or e_min <= t_active) and (
                    start_pick is None or e_min < start_pick[1]):
                start_pick = (ri, e_min)
        if start_pick is not None:
            return ("start", start_pick[0], t_active)
        return None if choice is None else (choice[0], choice[1], t_active)

    # -- relocation (policy-aware) -----------------------------------------

    def carrier_units(pieces, rstate, base):
        if not policy_none:
            for p in pieces:
                if p[4] == base:
                    yield p[5], p[7], (p,)
            return
        by_ride: dict[int, list] = {}
        for p in pieces:
            by_ride.setdefault(p[0], []).append(p)
        for ri, chunk in by_ride.items():
            if rstate[ri][0] < rides[ri].n_segments:
                continue
            chunk.sort(key=lambda p: p[5])
            if chunk[0][4] == base:
                yield chunk[0][5], chunk[-1][7], tuple(chunk)

    def relocate(pieces, rstate, own, base, time, trail, to_base, to_time):
        """(ok, renewed, plan, end_run); own = set of piece keys to avoid."""
        if time > to_time:
            return False, False, None, 0
        if base == to_base:
            gap = to_time - time
            plan = [("wait", base, time, to_time)] if gap else []
            return True, gap >= t_b, plan, (trail if gap == 0 else 0)
        seen = {(base, time, min(trail, t_b), False): None}
        stack = [(base, time, min(trail, t_b), False)]
        goals = []
        while stack:
            state = stack.pop()
            b, tm, run, ren = state
            if b == to_base and tm <= to_time:
                goals.append(state)
                if ren or to_time - tm >= t_b:
                    continue
            for st, en, legs in carrier_units(pieces, rstate, b):
                if st < tm or en > to_time:
                    continue
                if any(p in own for p in legs):
                    continue
                wait = st - tm
                nrun = (run + en - st) if wait == 0 else (en - st)
                nxt = (legs[-1][6], en, min(nrun, t_b), ren or wait >= t_b or nrun >= t_b)
                if nxt not in seen:
                    seen[nxt] = (state, legs, wait)
                    stack.append(nxt)
        if not goals:
            return False, False, None, 0
        renewing = [s for s in goals if s[3] or to_time - s[1] >= t_b]
        goal = renewing[0] if renewing else goals[0]

        plan = []
        cur = goal
        while seen[cur] is not None:
            prev, legs, wait = seen[cur]
            chunk = [("dh", p) for p in legs]
            if wait:
                chunk.insert(0, ("wait", legs[0][4], prev[1], legs[0][5]))
            plan = chunk + plan
            cur = prev
        end_run = goal[2]
        if goal[1] < to_time:
            plan.append(("wait", to_base, goal[1], to_time))
            end_run = 0
        return True, bool(renewing), plan, end_run

    # -- search under a fixed driver cap -----------------------------------

    def search(cap):
        memo: dict = {}
        sys_best: list = [None]

        def leaf(rstate, drivers, elements):
            sys_best[0] = tuple(tuple(e) for e in elements)

        def rec(rstate, drivers, elements, pieces):
            nonlocal explored
            explored += 1
            if sys_best[0] is not None:
                return True
            ev = next_event(rstate)
            if ev is None:
                leaf(rstate, drivers, elements)
                return True
            kind, ri, t_active = ev
            if kind == "dead":
                return False
            key = (rstate, tuple(sorted(drivers)))
            prev = memo.get(key)
            if prev is not None and prev <= len(drivers):
                return False
            memo[key] = len(drivers)
            if kind == "start":
                return branch_start(rstate, drivers, elements, pieces, ri, t_active)
            if kind == "seg":
                return branch_seg(rstate, drivers, elements, pieces, ri)
            return branch_out(rstate, drivers, elements, pieces, ri)

        def branch_start(rstate, drivers, elements, pieces, ri, t_active):
            pos, cur, pend, pst, tv, sv, mins = rstate[ri]
            grid = grids[ri][0]
            hit = False
            for gi in range(mins, len(grid)):
                t = grid[gi]
                if t_active is not None and t > t_active:
                    break
                rs = list(rstate)
                rs[ri] = (pos, t, None, None, tv + (t,), sv, gi)
                if rec(tuple(rs), drivers, elements, pieces):
                    hit = True
                    if sys_best[0] is not None:
                        return True
            if t_active is not None:
                nxt = mins
                while nxt < len(grid) and grid[nxt] <= t_active:
                    nxt += 1
                if nxt > mins:
                    rs = list(rstate)
                    rs[ri] = (pos, cur, pend, pst, tv, sv, nxt)
                    if rec(tuple(rs), drivers, elements, pieces):
                        hit = True
            return hit

        def branch_seg(rstate, drivers, elements, pieces, ri):
            pos, cur, _pend, _pst, tv, sv, mins = rstate[ri]
            ride = rides[ri]
            direct = ride.segment_minutes[pos]
            hit = False
            for t1 in grids[ri][pos + 1]:
                if t1 < cur + direct or t1 - cur > t_cs:
                    continue
                piece = (ri, pos, LEG_DIRECT, None, ride.stops[pos], cur,
                         ride.stops[pos + 1], t1)
                adv = ("direct", t1)
                if assign(rstate, drivers, elements, pieces, ri, piece, adv):
                    hit = True
                    if sys_best[0] is not None:
                        return True
            for acc in rides[ri].stations[pos]:
                ts = cur + acc.minutes_in
                if not any(t1 >= ts + acc.minutes_out for t1 in grids[ri][pos + 1]):
                    continue
                piece = (ri, pos, LEG_IN, acc.station_id, ride.stops[pos], cur,
                         acc.station_id, ts)
                adv = ("pending", ts, acc)
                if assign(rstate, drivers, elements, pieces, ri, piece, adv):
                    hit = True
                    if sys_best[0] is not None:
                        return True
            return hit

        def branch_out(rstate, drivers, elements, pieces, ri):
            pos, cur, pend, pst, tv, sv, mins = rstate[ri]
            ride = rides[ri]
            acc = pst
            hit = False
            for t1 in grids[ri][pos + 1]:
                if t1 < pend + acc.minutes_out or t1 - pend > t_cs:
                    continue
                piece = (ri, pos, LEG_OUT, acc.station_id, acc.station_id, pend,
                         ride.stops[pos + 1], t1)
                adv = ("out", t1)
                if assign(rstate, drivers, elements, pieces, ri, piece, adv):
                    hit = True
                    if sys_best[0] is not None:
                        return True
            return hit

        def advance(rstate, ri, piece, adv):
            pos, cur, pend, pst, tv, sv, mins = rstate[ri]
            rs = list(rstate)
            if adv[0] == "pending":
                rs[ri] = (pos, cur, adv[1], adv[2], tv, sv + (piece[3],), mins)
            elif adv[0] == "out":
                rs[ri] = (pos + 1, adv[1], None, None, tv + (adv[1],), sv, mins)
            else:
                rs[ri] = (pos + 1, adv[1], None, None, tv + (adv[1],), sv + (None,), mins)
            return tuple(rs)

        def own_pieces(elements, di):
            return {e[1] for e in elements[di] if e[0] == "steer"}

        def assign(rstate, drivers, elements, pieces, ri, piece, adv):
            dur = piece[7] - piece[5]
            if dur > t_cs:
                return False
            rs2 = advance(rstate, ri, piece, adv)
            pieces2 = pieces + (piece,)
            hit = False
            if policy_none:
                options = candidates_none(rstate, drivers, elements, pieces, ri, piece)
            else:
                options = candidates(rstate, drivers, elements, pieces, piece)
            # new drivers boarding mid-ride under policy none start at the ride
            # start time; `joins` carries that origin into the driver tuple
            for di, u0, plan, joins in options:
                if di == len(drivers):
                    if len(drivers) >= cap:
                        continue
                    base_drivers = drivers + ((piece[4], piece[5], 0, 0,
                                               joins if joins else piece[5],
                                               0, -1, piece[5]),)
                    base_elements = elements + [[]]
                else:
                    base_drivers = drivers
                    base_elements = elements
                d = base_drivers[di]
                if u0 + dur > t_cs or d[3] + dur > t_ds or piece[7] - d[4] > t_dw:
                    continue
                nd = list(base_drivers)
                engaged = ri if (policy_none and rs2[ri][0] < rides[ri].n_segments) else -1
                nd[di] = (piece[6], piece[7], u0 + dur, d[3] + dur, d[4], 0,
                          engaged, piece[7])
                ne = [list(e) for e in base_elements]
                ne[di] = ne[di] + list(plan) + [("steer", piece)]
                nd2, ne2, ok = release_if_done(rs2, tuple(nd), ne, pieces2, ri)
                if not ok:
                    continue
                if rec(rs2, nd2, ne2, pieces2):
                    hit = True
                    if sys_best[0] is not None:
                        return True
            return hit

        def candidates(rstate, drivers, elements, pieces, piece):
            out = []
            seen = set()
            for di, d in enumerate(drivers):
                if d in seen:
                    continue
                seen.add(d)
                ok, renewed, plan, _run = relocate(
                    pieces, rstate, own_pieces(elements, di),
                    d[0], d[1], d[5], piece[4], piece[5])
                if ok:
                    out.append((di, 0 if renewed else d[2], plan, None))
            out.append((len(drivers), 0, [], None))
            return out

        def candidates_none(rstate, drivers, elements, pieces, ri, piece):
            ride = rides[ri]
            k = piece[1]
            out = []
            seen = set()
            if k == 0:
                for di, d in enumerate(drivers):
                    if d[6] != -1 or d in seen:
                        continue
                    seen.add(d)
                    ok, renewed, plan, _run = relocate(
                        pieces, rstate, own_pieces(elements, di),
                        d[0], d[1], d[5], piece[4], piece[5])
                    if ok:
                        out.append((di, 0 if renewed else d[2], plan, None))
                out.append((len(drivers), 0, [], None))
                return out
            start_t = rstate[ri][4][0]
            start_b = ride.stops[0]
            ride_dh = [("dh", p) for p in pieces if p[0] == ri]
            for di, d in enumerate(drivers):
                if d[6] == ri:
                    run = piece[5] - d[7]
                    u0 = 0 if run >= t_b else d[2]
                    plan = [("dh", p) for p in pieces
                            if p[0] == ri and p[5] >= d[7]]
                    out.append((di, u0, plan, None))
                elif d[6] == -1:
                    if d in seen:
                        continue
                    seen.add(d)
                    ok, renewed, plan, end_run = relocate(
                        pieces, rstate, own_pieces(elements, di),
                        d[0], d[1], d[5], start_b, start_t)
                    if not ok:
                        continue
                    u0 = d[2]
                    if renewed or end_run + (piece[5] - start_t) >= t_b:
                        u0 = 0
                    out.append((di, u0, (plan or []) + ride_dh, None))
            if piece[7] - start_t <= t_dw:
                out.append((len(drivers), 0, ride_dh, start_t))
            return out

        def release_if_done(rstate, drivers, elements, pieces, ri):
            if not policy_none or rstate[ri][0] < rides[ri].n_segments:
                return drivers, elements, True
            term_b = rides[ri].stops[-1]
            term_t = rstate[ri][4][-1]
            nd = list(drivers)
            for di, d in enumerate(nd):
                if d[6] != ri:
                    continue
                if term_t - d[4] > t_dw:
                    return drivers, elements, False
                u, trail = d[2], 0
                if d[1] < term_t:
                    for p in pieces:
                        if p[0] == ri and p[5] >= d[7]:
                            elements[di] = elements[di] + [("dh", p)]
                    trail = term_t - d[7]
                    if trail >= t_b:
                        u = 0
                nd[di] = (term_b, term_t, u, d[3], d[4], trail, -1, d[7])
            return tuple(nd), elements, True

        rec(initial_rstate(), (), [], ())
        return sys_best[0]

    best = None
    if nr == 0:
        best = ()
        optimum = 0
    else:
        optimum = None
        for cap in range(1, max_pieces + 1):
            got = search(cap)
            if got is not None:
                best = got
                optimum = cap
                break

    if best is None:
        return OracleResult(None, None, explored, _time.monotonic() - t0)

    sidx = g.steer_idx
    routes = []
    for els in best:
        conv = []
        for e in els:
            if e[0] == "steer":
                ri, seg, leg, st, fb, t0_, tb_, t1_ = e[1]
                conv.append(("steer", sidx[(rides[ri].id, seg, leg, st, t0_, t1_)]))
            elif e[0] == "dh":
                ri, seg, leg, st, fb, t0_, tb_, t1_ = e[1]
                steer_arc = sidx[(rides[ri].id, seg, leg, st, t0_, t1_)]
                conv.append(("deadhead", g.arcs[steer_arc].twin))
            else:
                conv.append(e)
        routes.append(assemble_route(g, conv))
    witness = Solution(g, routes, plan_from_routes(inst, g, routes))
    return OracleResult(optimum, witness, explored, _time.monotonic() - t0)
