import hashlib
import json
from dataclasses import replace

import pytest

from drsync import search
from drsync.fixtures import (
    exchange_fixture,
    gap_fixture,
    micro_suite,
    postpone_fixture,
    redundant_station_fixture,
    station_exchange_fixture,
)
from drsync.instance import (
    POLICIES,
    POLICY_FULL,
    Instance,
    LegalParams,
    Ride,
    StationAccess,
    Stop,
    check_instance,
    decompose,
)
from drsync.bounds import compute_bounds, lower_bound_parallel, lower_bound_steering
from drsync.mip import SolverConfig, build_model, solve
from drsync.oracle import brute_force
from drsync.search import (
    OPERATORS,
    ConstructionError,
    SearchConfig,
    assign_drivers,
    construct,
    local_search,
    operator_insert_stop_highest_sync,
    operator_insert_stop_random,
    operator_insert_stop_shortest_detour,
    operator_postpone,
    operator_prepone,
    operator_reassign_segments,
    operator_remove_stop,
    _op_seed,
    perturbed_select,
)
from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.solution import (
    LINK_NONE,
    LINK_REACH,
    LINK_RENEW,
    ConnectionPlanner,
    Solution,
    assemble_route,
    check_feasibility,
    plan_pieces,
)
from drsync.timegraph import build_graph

from conftest import customer_stops, long_ride_none, ride_chain, ride_stations, ride_times

CFG = SearchConfig(seed=0)


class FixedRng:
    def __init__(self, y):
        self.y = y

    def random(self):
        return self.y

    def shuffle(self, xs):
        pass


def test_perturbed_select_values():
    assert perturbed_select(10, 1.0, FixedRng(0.0)) == 0
    assert perturbed_select(10, 1.0, FixedRng(0.5)) == 5
    assert perturbed_select(10, 3.0, FixedRng(0.9)) == 7   # floor(0.729 * 10)


def test_perturbed_select_concentrates_for_large_p():
    # for any fixed y < 1, y**p * n drops below 1 as p grows
    for y in (0.0, 0.3, 0.9, 0.99):
        assert perturbed_select(10, 1000.0, FixedRng(y)) == 0


def test_ch_reuses_driver(sequential_pair):
    g = build_graph(sequential_pair)
    sol = construct(sequential_pair, g)
    assert sol.objective == 1
    assert brute_force(sequential_pair).optimum == 1


def test_ch_parallel(parallel_triplet):
    g = build_graph(parallel_triplet)
    assert construct(parallel_triplet, g).objective == 3


def test_ch_wait_rule_keeps_driver_at_stop():
    # relief at B after 260 minutes; the next bus leaves B 50 minutes later,
    # inside [t_b, 4 t_b], so the relieved driver waits and takes it over
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B", "C"), (480, 740, 970), (260, 230), ((), ())),
            Ride("b", "L2", ("B", "D"), (790, 910), (120,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert check_feasibility(sol, inst, g) == []
    assert sol.objective == 2
    # the driver relieved at B must steer ride b, with no deadheading at all
    rides_per_driver = []
    for route in sol.routes:
        rides_per_driver.append({g.arcs[a].ride for a in route if g.arcs[a].family == "steering"})
        assert not any(g.arcs[a].family == "deadhead" for a in route)
    assert {"a", "b"} in rides_per_driver


def test_ch_deadhead_rule_rides_to_terminal():
    # relief at B, but the next bus from B is 260 minutes away (> 4 t_b):
    # the relieved driver stays aboard to C
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B", "C"), (480, 740, 970), (260, 230), ((), ())),
            Ride("b", "L2", ("B", "D"), (1000, 1120), (120,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert check_feasibility(sol, inst, g) == []
    deadheads = [a for route in sol.routes for a in route
                 if g.arcs[a].family == "deadhead"]
    assert deadheads


@pytest.mark.parametrize("policy", ["regular_and_intermediate", "none"])
def test_ch_ride_along_of_exactly_a_break_renews_steering(policy):
    # the first driver steers A->B (260 minutes) and rides along B->C, 45
    # minutes, exactly t_b. Ride b leaves C on arrival for 230 minutes: only
    # the renewed first driver can steer it, so two drivers crew both rides
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B", "C"), (480, 740, 785), (260, 45), ((), ())),
            Ride("b", "L2", ("C", "D"), (785, 1015), (230,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10, exchange_policy=policy,
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert check_feasibility(sol, inst, g) == []
    assert sol.objective == 2
    first = [(g.arcs[a].family, g.arcs[a].ride) for a in sol.routes[0]
             if g.arcs[a].family in ("steering", "deadhead")]
    assert first == [("steering", "a"), ("deadhead", "a"), ("steering", "b")]


def test_reassign_merges_drivers(sequential_pair):
    # hand-build the wasteful 2-driver arrangement: one driver per ride
    from drsync.solution import Solution, assemble_route, plan_pieces
    g = build_graph(sequential_pair)
    plan = construct(sequential_pair, g).plan
    pieces = plan_pieces(sequential_pair, plan)
    routes = [assemble_route(g, [("steer", p.id)]) for p in pieces]
    arranged = Solution(g, routes, plan)
    assert arranged.objective == 2
    assert check_feasibility(arranged, sequential_pair, g) == []
    cands = operator_reassign_segments(arranged, sequential_pair, g, CFG, 0)
    assert any(c.objective == 1 for c in cands)
    assert brute_force(sequential_pair).optimum == 1


def test_reassign_builds_one_planner_per_plan(sequential_pair, monkeypatch):
    # segment reassignment takes its pieces, links and itineraries from one
    # ConnectionPlanner, which its candidates carry; a call on a solution
    # that carries it builds none
    built = []
    init = ConnectionPlanner.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(ConnectionPlanner, "__init__", counted)
    inst = sequential_pair
    g = build_graph(inst)
    arranged = _one_driver_per_piece(inst, g, construct(inst, g).plan)
    cands = operator_reassign_segments(arranged, inst, g, CFG, 0)
    assert [c.objective for c in cands] == [1, 1]   # each driver was placed
    assert len(built) == 1
    again = Solution(g, arranged.routes, arranged.plan)
    again.links = cands[0].links
    assert ([c.routes for c in operator_reassign_segments(again, inst, g, CFG, 0)]
            == [c.routes for c in cands])
    assert len(built) == 1


def test_reassign_empty_and_parallel(parallel_triplet):
    g = build_graph(parallel_triplet)
    sol = construct(parallel_triplet, g)
    assert operator_reassign_segments(sol, parallel_triplet, g, CFG, 0) == []


def test_postpone_enables_handoff():
    inst = postpone_fixture()
    g = build_graph(inst)
    ch = construct(inst, g)
    assert ch.objective == 2
    cands = operator_postpone(ch, inst, g, CFG, 0)
    assert any(c.objective == 1 for c in cands)
    assert all(check_feasibility(c, inst, g) == [] for c in cands)


def test_prepone_window_boundary():
    inst = postpone_fixture()
    g = build_graph(inst)
    ch = construct(inst, g)   # every stop at its earliest: nothing to prepone
    assert operator_prepone(ch, inst, g, CFG, 0) == []


def test_shift_ops_empty_for_degenerate_window():
    # two rides, so that the windows, not the one-ride rule, stop the shifts
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 600), (120,), ((),)),
               Ride("s", "M", ("C", "D"), (500, 620), (120,), ((),))),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=0, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert operator_postpone(sol, inst, g, CFG, 0) == []
    assert operator_prepone(sol, inst, g, CFG, 0) == []


def _one_ride_parts():
    """The one-ride parts of micro_suite(300) under every policy, and 1x1xk lines."""
    out = []
    for _name, inst in micro_suite(300):
        for policy in POLICIES:
            parts = decompose(check_instance(replace(inst, exchange_policy=policy)))
            out += [part for part in parts if len(part.rides) == 1]
    for k in range(1, 7):
        for policy in POLICIES:
            out += [synthetic_instance(GeneratorConfig(1, 1, k, exchange_policy=policy),
                                       seed) for seed in range(8)]
    return out


def test_shifting_the_only_ride_keeps_objective_and_theta():
    # why postpone and prepone leave the only ride of a solution the greedy
    # built alone: moving every time of the plan by one grid step, crewed by
    # the greedy, gives the greedy's driver count and remaining working time
    # on the plan as it was, so it is never an improving move. Checked on
    # the construction's plan and on the local search's (which may visit
    # stations).
    same = 0
    for inst in _one_ride_parts():
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        for sol in (ch, local_search(ch, inst, g, CFG)):
            want = assign_drivers(inst, g, sol.plan)
            (ride,) = inst.rides
            for delta in (-inst.ell, inst.ell):
                moved = _moved(g, ride, sol.plan[ride.id], delta)
                if moved is None:
                    continue
                try:
                    got = assign_drivers(inst, g, {ride.id: moved})
                except ConstructionError:
                    continue
                assert (got.objective, got.theta()) == (want.objective, want.theta())
                same += 1
    assert same > 500


def _moved(g, ride, pieces, delta):
    """`ride`'s `pieces` with every time moved by `delta`, looked up in `g`;
    None where it has no such arc."""
    try:
        return ride_chain(g, ride, [t + delta for t in ride_times(pieces)],
                          ride_stations(pieces))
    except KeyError:
        return None


def _plan_key(plan):
    """A plan as a hashable value: each ride's arc ids."""
    return frozenset((rid, tuple(p.id for p in pieces)) for rid, pieces in plan.items())


def _plan_json(plan):
    """A plan as ``[ride id, [times, stations]]`` pairs by ride id."""
    return sorted((rid, (ride_times(pieces), ride_stations(pieces)))
                  for rid, pieces in plan.items())


def _one_driver_per_piece(inst, g, plan) -> Solution:
    """A solution the greedy did not build: each piece of `plan` its own driver."""
    return Solution(g, [assemble_route(g, [("steer", p.id)])
                        for p in plan_pieces(inst, plan)], plan)


def _waiting_first(sol, g, since) -> Solution:
    """The one driver of `sol`, a solution the greedy built, standing at the
    first stop from `since` on: a solution the greedy did not build, whose
    route spans more than its plan."""
    (route,) = sol.routes
    first = g.nodes[g.arcs[route[0]].tail]
    wait = assemble_route(g, [("wait", first.base, since, first.time)])
    return Solution(g, [wait + route], sol.plan)


def test_shifting_the_only_ride_of_a_foreign_solution():
    # a solution the greedy did not build (here one driver per leg, as an
    # exact-search incumbent may have) can be worse than the greedy's on
    # its plan; then shifting the only ride is a way to the greedy's crew
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B", "C"), (480, 600, 720), (120, 120), ((), ())),),
        stops=customer_stops("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    ch = construct(inst, g)
    assert ch.objective == 1
    assert operator_postpone(ch, inst, g, CFG, 0) == []
    split = _one_driver_per_piece(inst, g, ch.plan)
    assert split.objective == 2 and check_feasibility(split, inst, g) == []
    (moved,) = operator_postpone(split, inst, g, CFG, 0)
    assert moved.objective == 1


def _plan_span(plan) -> int:
    return (max(pieces[-1].end for pieces in plan.values())
            - min(pieces[0].start for pieces in plan.values()))


def _plan_moves(sol, inst):
    """Every one-ride plan change the plan operators may make of `sol`, as
    (operator kind, ride, its new steering arcs). A shift is taken where
    every moved time stays in its window, and a removal where the direct
    drive fits the gap and continuous steering: the graph has their arcs."""
    g = sol.graph
    half = inst.theta_tw // 2
    for kind, delta in (("postpone", inst.ell), ("prepone", -inst.ell)):
        for ride in inst.rides:
            pieces = sol.plan[ride.id]
            times = [t + delta for t in ride_times(pieces)]
            if all(-half <= t - dep <= half for dep, t in zip(ride.departures, times)):
                yield kind, ride, ride_chain(g, ride, times, ride_stations(pieces))
    if inst.exchange_policy == POLICY_FULL:
        for _dur, rid, k, ride, accs in search._insertable_segments(sol, inst):
            pieces = sol.plan[rid]
            times, stations = ride_times(pieces), ride_stations(pieces)
            for acc in accs:
                via = stations[:k] + (acc.station_id,) + stations[k + 1:]
                fixed = search._retime(g, ride, pieces[0].tail, times[1:], via)
                if fixed is not None:
                    yield "insert", ride, fixed
    for ride in inst.rides:
        pieces = sol.plan[ride.id]
        times, stations = ride_times(pieces), ride_stations(pieces)
        for k in range(ride.n_segments):
            gap = times[k + 1] - times[k]
            if (stations[k] is not None and ride.segment_minutes[k] <= gap
                    <= inst.legal.t_cs):
                direct = stations[:k] + (None,) + stations[k + 1:]
                yield "remove", ride, ride_chain(g, ride, times, direct)


def _one_driver_solutions():
    """One-driver CH and LS solutions of the parts of micro_suite(300) under
    every policy and of 1xnxk lines, each with a solution the greedy did not
    build: the same driver one step later on every ride, waiting first."""
    instances = [part for _name, inst in micro_suite(300) for policy in POLICIES
                 for part in decompose(check_instance(replace(inst, exchange_policy=policy)))]
    instances += [synthetic_instance(GeneratorConfig(1, n, k, exchange_policy=policy), seed)
                  for n in (2, 3, 4) for k in (1, 2, 3) for policy in POLICIES
                  for seed in range(3)]
    for inst in instances:
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        half = inst.theta_tw // 2
        for sol in (ch, local_search(ch, inst, g, CFG)):
            if sol.objective != 1:
                continue
            yield inst, g, sol, False
            if any(t + inst.ell - dep > half for r in inst.rides
                   for dep, t in zip(r.departures, ride_times(sol.plan[r.id]))):
                continue
            late = {r.id: _moved(g, r, sol.plan[r.id], inst.ell) for r in inst.rides}
            try:
                moved = assign_drivers(inst, g, late)
            except ConstructionError:
                continue
            if moved.objective == 1:
                since = min(pieces[0].start for pieces in sol.plan.values())
                yield inst, g, _waiting_first(moved, g, since), True


def test_plan_moves_past_the_ceiling_never_improve():
    # a one-driver solution keeps t_dw - theta of working time; a plan move
    # whose plan spans that much or more cannot improve it, so the plan
    # operators neither crew nor return it. Every such move, crewed by the
    # greedy, is not improving; the shifts and the removals offered are
    # exactly the rest, and no insertion offered reaches the ceiling.
    skipped = at_ceiling = foreign = rescued = 0
    for inst, g, sol, is_foreign in _one_driver_solutions():
        theta0 = sol.theta()
        ceiling = inst.legal.t_dw - theta0
        offered = {"postpone": set(), "prepone": set(), "insert": set(), "remove": set()}
        for kind, ride, chain in _plan_moves(sol, inst):
            plan = dict(sol.plan)
            plan[ride.id] = chain
            try:
                cand = assign_drivers(inst, g, plan)
            except ConstructionError:
                cand = None
            improves = cand is not None and cand.objective == 1 and cand.theta() > theta0
            if _plan_span(plan) >= ceiling:
                assert not improves, (kind, ride.id, ride_times(chain))
                skipped += 1
                at_ceiling += _plan_span(plan) == ceiling and cand is not None
            elif cand is not None:
                offered[kind].add(_plan_key(plan))
                # improving, though its plan spans as much as the one it
                # changes: a ceiling read off the plan would have lost it
                rescued += is_foreign and improves and _plan_span(plan) >= _plan_span(sol.plan)
        foreign += is_foreign
        for kind, op in (("postpone", operator_postpone), ("prepone", operator_prepone),
                         ("remove", operator_remove_stop)):
            got = {_plan_key(c.plan) for c in op(sol, inst, g, CFG, 0)}
            assert got == offered[kind], kind
        for oi, op in enumerate((operator_insert_stop_random, operator_insert_stop_shortest_detour,
                                 operator_insert_stop_highest_sync)):
            for c in op(sol, inst, g, CFG, oi):
                assert _plan_key(c.plan) in offered["insert"]
    assert skipped > 2000 and at_ceiling > 1000
    assert foreign > 500 and rescued > 500


def _bound_starts():
    """Start solutions for the driver-bound test: CH and LS solutions of
    the parts of micro_suite(300) under every policy, of 1xnxk lines and of
    4x4x3 and 6x4x4 seed 7, and a solution the greedy did not build: the CH
    crew with its first driver waiting one copy earlier at the first base."""
    instances = [part for _name, inst in micro_suite(300) for policy in POLICIES
                 for part in decompose(check_instance(replace(inst, exchange_policy=policy)))]
    instances += [synthetic_instance(GeneratorConfig(1, n, k, exchange_policy=policy), seed)
                  for n in (2, 3, 4) for k in (1, 2, 3) for policy in POLICIES
                  for seed in range(3)]
    instances += [part for shape in ((4, 4, 3), (6, 4, 4)) for policy in POLICIES
                  for part in decompose(synthetic_instance(
                      GeneratorConfig(*shape, exchange_policy=policy), 7))]
    for inst in instances:
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        yield inst, g, ch
        yield inst, g, local_search(ch, inst, g, CFG)
        routes = list(ch.routes)
        first = g.nodes[g.arcs[routes[0][0]].tail]
        earlier = [g.nodes[n].time for n in g.copies[first.base]
                   if g.nodes[n].time < first.time]
        if earlier:
            routes[0] = assemble_route(
                g, [("wait", first.base, max(earlier), first.time)]) + routes[0]
            foreign = Solution(g, routes, ch.plan)
            if check_feasibility(foreign, inst, g) == []:
                yield inst, g, foreign


def test_no_move_improves_past_the_driver_bound(monkeypatch):
    # at max(lb1, lb2) drivers, local search calls no segment reassignment:
    # each of its moves drops a driver, and none passes the feasibility
    # check. And where f0 * t_dw minus the plan's steering time is at most
    # theta, it returns before an iteration: every shift, insertion and
    # removal, crewed by the greedy, is not improving.
    calls = []

    def recorded(oi, op):
        def run(solution, *args):
            calls.append((oi, solution))
            return op(solution, *args)
        return run

    monkeypatch.setattr("drsync.search.OPERATORS",
                        tuple(recorded(oi, op) for oi, op in enumerate(OPERATORS)))
    skipped = stopped = stopped_multi = crewed = 0
    for inst, g, sol in _bound_starts():
        f0, theta0 = sol.objective, sol.theta()
        calls.clear()
        local_search(sol, inst, g, CFG)
        first = [oi for oi, s in calls if s is sol]   # the first iteration's calls
        if 0 in first:
            continue
        skipped += 1
        for cand in operator_reassign_segments(sol, inst, g, CFG, 0):
            assert check_feasibility(cand, inst, g) != []
        if first:
            continue
        stopped += 1
        stopped_multi += f0 > 1
        for kind, ride, chain in _plan_moves(sol, inst):
            plan = dict(sol.plan)
            plan[ride.id] = chain
            try:
                cand = assign_drivers(inst, g, plan)
            except ConstructionError:
                continue
            crewed += 1
            assert cand.objective > f0 or (cand.objective == f0 and cand.theta() <= theta0), \
                (kind, ride.id, ride_times(chain))
    assert skipped > 2500 and stopped > 1500
    assert stopped_multi > 500 and crewed > 2500


def test_wrapped_operators_skip_reassignment_at_the_bound(monkeypatch):
    # a tracer stands a wrapper of another name in for each entry of
    # OPERATORS (perfbench/tracing.py); local search still finds segment
    # reassignment by its place, calls it only above max(lb1, lb2), and
    # returns what it returns unwrapped
    runs = []
    for _name, inst in micro_suite(100):
        for policy in POLICIES:
            for part in decompose(check_instance(replace(inst, exchange_policy=policy))):
                g = build_graph(part)
                try:
                    ch = construct(part, g)
                except ConstructionError:
                    continue
                lb = max(lower_bound_steering(part), lower_bound_parallel(part))
                runs.append((part, g, lb, ch, local_search(ch, part, g, CFG).to_dict()))
    calls = []

    def wrap(oi, op):
        def wrapper(solution, *args):
            calls.append((oi, solution.objective))
            return op(solution, *args)
        return wrapper

    monkeypatch.setattr("drsync.search.OPERATORS",
                        tuple(wrap(oi, op) for oi, op in enumerate(OPERATORS)))
    at_bound = above = 0
    for part, g, lb, ch, want in runs:
        calls.clear()
        assert local_search(ch, part, g, CFG).to_dict() == want
        assert all(f > lb for oi, f in calls if oi == 0)
        at_bound += sum(f <= lb for oi, f in calls if oi == 1)
        above += sum(f > lb for oi, f in calls if oi == 0)
    assert at_bound > 300 and above > 80


def test_insert_policy_gate():
    inst = replace(station_exchange_fixture(), exchange_policy="regular_stops")
    # segment > t_cs is uncoverable under this policy; use a coverable ride
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 610), (120,),
                    ((StationAccess("S", 60, 65),),)),),
        stops=customer_stops("A", "B") + (Stop("S", "station"),),
        theta_tw=10, zeta=10, ell=10, exchange_policy="regular_stops",
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert operator_insert_stop_random(sol, inst, g, CFG, 0) == []


def test_insert_no_admissible_station(sequential_pair):
    g = build_graph(sequential_pair)
    sol = construct(sequential_pair, g)
    assert operator_insert_stop_random(sol, sequential_pair, g, CFG, 0) == []


def test_insertable_stations_have_arcs():
    # S1's out-leg of 272 minutes exceeds t_cs, so the graph builds no arcs
    # via S1 although its detour of 6 is within zeta
    inst = check_instance(Instance(
        rides=(Ride("r", "L1", ("A", "B"), (480, 750), (268,),
                    ((StationAccess("S1", 2, 272), StationAccess("S2", 135, 138)),)),),
        stops=customer_stops("A", "B") + (Stop("S1", "station"), Stop("S2", "station")),
        theta_tw=10, zeta=10, ell=10,
    ))
    g = build_graph(inst)
    segs = search._insertable_segments(construct(inst, g), inst)
    listed = [(rid, k, a.station_id) for _dur, rid, k, _ride, accs in segs for a in accs]
    assert listed == [("r", 0, "S2")]
    assert all(key in g.seg_in for key in listed)


# sha256 of the plans the three station insertions return on the CH solution
# of every part of micro_suite(300) and of 2x3x3 seeds 0-5 with three
# stations a segment, at the seeds local search hands them for search seeds
# 0-1 and iterations 0-1: a changed seed formula or draw order changes it
INSERTION_DRAWS = "7139bd88182ae15684effa46ed3b5310e57b1dc5c26d15159c9c8ba157e98f75"


def test_insertion_draws_are_pinned():
    insts = [inst for _name, inst in micro_suite(300)]
    cfg = GeneratorConfig(2, 3, 3, stations_per_segment=3, zeta=30, theta_tw=30)
    insts += [synthetic_instance(cfg, seed) for seed in range(6)]
    configs = [SearchConfig(seed=s) for s in (0, 1)]
    ops = (operator_insert_stop_random, operator_insert_stop_shortest_detour,
           operator_insert_stop_highest_sync)
    h = hashlib.sha256()
    parts = cands = 0
    for inst in insts:
        for part in decompose(inst):
            g = build_graph(part)
            ch = construct(part, g)
            parts += 1
            for op in ops:
                oi = OPERATORS.index(op)
                for config in configs:
                    for iteration in (0, 1):
                        out = op(ch, part, g, config, _op_seed(config, iteration, oi))
                        cands += len(out)
                        h.update(json.dumps([_plan_json(c.plan) for c in out]).encode())
    assert (parts, cands) == (535, 984)
    assert h.hexdigest() == INSERTION_DRAWS


# the ROADMAP ladder of generated shapes, one part per line
LADDER = ((2, 2, 2), (3, 3, 3), (4, 4, 3), (6, 4, 4), (6, 6, 4), (8, 6, 4))


def _timing_parts():
    """The parts of micro_suite(300), of the ladder at seeds 7-8 and of 24
    wide-window instances with three stations a segment, under every policy.
    The wide-window legs take 120 to 260 minutes against a continuous-steering
    cap lowered to 200, so that many of them need a station."""
    insts = [inst for _name, inst in micro_suite(300)]
    insts += [synthetic_instance(GeneratorConfig(*shape), seed)
              for shape in LADDER for seed in (7, 8)]
    wide = GeneratorConfig(2, 3, 3, stations_per_segment=3, drive_min=120, drive_max=260,
                           theta_tw=30, zeta=30)
    insts += [replace(synthetic_instance(replace(wide, ell=ell), seed),
                      legal=LegalParams(t_cs=200))
              for ell in (5, 10) for seed in range(12)]
    return [part for inst in insts for policy in POLICIES
            for part in decompose(check_instance(replace(inst, exchange_policy=policy)))]


# sha256 of the construction's plan (or its error) of every part of
# _timing_parts, and of each station insertion's retimed ride on that plan:
# from the ride's times moved later by whole grid steps as far as its
# windows allow, all of them and all but the first departure. Plan timings
# read off the graph's arcs change it if they drift
PLAN_TIMINGS = "bab0a73f55b18ad16d984fb14b2432d3e9f10dcb92572407d689633133391edb"


def test_plan_timings_are_pinned():
    h = hashlib.sha256()
    parts = plans = retimes = dropped = 0
    for part in _timing_parts():
        parts += 1
        g = build_graph(part)
        try:
            plan = search.earliest_plan(part, g)
        except ConstructionError as exc:
            h.update(str(exc).encode())
            continue
        plans += 1
        h.update(json.dumps(_plan_json(plan)).encode())
        half = part.theta_tw // 2
        for ride in part.rides:
            planned, via = ride_times(plan[ride.id]), ride_stations(plan[ride.id])
            room = half - max(t - dep for dep, t in zip(ride.departures, planned))
            for step in range(0, room + 1, part.ell):
                later = tuple(t + step for t in planned)
                for times in [later] + ([planned[:1] + later[1:]] if step else []):
                    start = g.node_at[(ride.stops[0], times[0])]
                    for k in range(ride.n_segments):
                        if via[k] is not None:
                            continue
                        for acc in ride.stations[k]:
                            if (ride.id, k, acc.station_id) not in g.seg_in:
                                continue
                            stations = via[:k] + (acc.station_id,) + via[k + 1:]
                            got = search._retime(g, ride, start, times[1:], stations)
                            retimes += 1
                            dropped += got is None
                            got = got if got is None else ride_times(got)
                            h.update(json.dumps([ride.id, k, acc.station_id, times,
                                                 got]).encode())
    assert (parts, plans, retimes, dropped) == (1887, 1812, 10521, 5500)
    assert h.hexdigest() == PLAN_TIMINGS


def _late_start(inst, g):
    """redundant_station_fixture's ride one step late, its driver waiting
    first from the construction's departure."""
    ch = construct(inst, g)
    late = {"r1": _moved(g, inst.rides[0], ch.plan["r1"], inst.ell)}
    return _waiting_first(assign_drivers(inst, g, late), g, ch.plan["r1"][0].start)


def test_insert_produces_feasible_station_visit():
    inst = redundant_station_fixture()
    g = build_graph(inst)
    sol = construct(inst, g)
    assert ride_stations(sol.plan["r1"]) == (None,)
    # one driver whose route spans the plan: no insertion can improve it
    assert operator_insert_stop_shortest_detour(sol, inst, g, CFG, 0) == []
    sol = _late_start(inst, g)
    assert sol.objective == 1 and ride_stations(sol.plan["r1"]) == (None,)
    cands = operator_insert_stop_shortest_detour(sol, inst, g, CFG, 0)
    assert cands and ride_stations(cands[0].plan["r1"]) == ("S",)
    assert check_feasibility(cands[0], inst, g) == []


def test_remove_redundant_station():
    inst = redundant_station_fixture()
    g = build_graph(inst)
    base = construct(inst, g)
    assert operator_insert_stop_shortest_detour(base, inst, g, CFG, 0) == []
    late = _late_start(inst, g)
    visit = operator_insert_stop_shortest_detour(late, inst, g, CFG, 0)[0]
    # one driver whose route spans the plan: no removal can improve it
    assert visit.objective == 1
    assert operator_remove_stop(visit, inst, g, CFG, 0) == []
    with_station = _waiting_first(visit, g, base.plan["r1"][0].start)
    cands = operator_remove_stop(with_station, inst, g, CFG, 0)
    assert cands
    best = cands[0]
    assert ride_stations(best.plan["r1"]) == (None,)
    assert best.objective == with_station.objective
    assert best.theta() >= with_station.theta()


def test_remove_station_blocked_when_required():
    inst = station_exchange_fixture()   # 300-minute leg: direct arc impossible
    g = build_graph(inst)
    sol = construct(inst, g)
    assert ride_stations(sol.plan["r1"]) == ("S",)
    assert operator_remove_stop(sol, inst, g, CFG, 0) == []


def test_remove_on_station_free_solution(sequential_pair):
    g = build_graph(sequential_pair)
    sol = construct(sequential_pair, g)
    assert operator_remove_stop(sol, sequential_pair, g, CFG, 0) == []


def test_local_search_closes_postpone_gap():
    inst = postpone_fixture()
    g = build_graph(inst)
    ch = construct(inst, g)
    trace = []
    out = local_search(ch, inst, g, SearchConfig(seed=3), trace=trace)
    assert out.objective == 1 == brute_force(inst).optimum
    for (fa, ta), (fb, tb) in zip(trace, trace[1:]):
        assert fb < fa or (fb == fa and tb > ta)


def test_local_search_fixed_point_and_determinism(sequential_pair):
    g = build_graph(sequential_pair)
    ch = construct(sequential_pair, g)
    a = local_search(ch, sequential_pair, g, SearchConfig(seed=5))
    b = local_search(ch, sequential_pair, g, SearchConfig(seed=5))
    assert a.routes == b.routes
    again = local_search(a, sequential_pair, g, SearchConfig(seed=5))
    assert again.routes == a.routes


def _none_policy(shape, seed):
    return synthetic_instance(GeneratorConfig(*shape, exchange_policy="none"), seed)


def test_operator_outputs_always_feasible(monkeypatch):
    # operators must build feasible moves themselves: blind the search
    # module's own check so that no filter inside an operator can hide one
    monkeypatch.setattr("drsync.search.check_feasibility", lambda *args: [])
    instances = [postpone_fixture(), exchange_fixture(),
                 redundant_station_fixture(), gap_fixture(2)]
    # under no exchange a host must steer whole rides
    instances += [_none_policy(shape, seed)
                  for shape in ((2, 2, 4), (3, 2, 3), (2, 3, 3)) for seed in range(10)]
    for inst in instances:
        g = build_graph(inst)
        sol = construct(inst, g)
        for oi, op in enumerate(OPERATORS):
            for c in op(sol, inst, g, CFG, oi):
                assert check_feasibility(c, inst, g) == []


def test_link_matches_connect():
    codes = {(False, False): LINK_NONE, (True, False): LINK_REACH, (True, True): LINK_RENEW}
    for inst in (synthetic_instance(GeneratorConfig(3, 2, 3), 1),
                 _none_policy((2, 2, 4), 1)):
        g = build_graph(inst)
        pieces = plan_pieces(inst, construct(inst, g).plan)
        planner = ConnectionPlanner(inst, pieces)
        seen = set()
        for a, pa in enumerate(pieces):
            for b, pb in enumerate(pieces):
                want = codes[planner.connect(pa.to_base, pa.end, pb.from_base, pb.start)[:2]]
                assert planner.link(a, b) == want
                assert planner.link(a, b) == want   # cached
                seen.add(want)
        assert seen == {LINK_NONE, LINK_REACH, LINK_RENEW}


def _bracketed(g, routes):
    """The routes as arc tuples between their depot arcs, numbered as
    ``graph_to_dict`` numbers them: after the real arcs, a source arc then a
    sink arc for each node in node order."""
    n = len(g.arcs)
    return [(n + 2 * (g.arcs[r[0]].tail - 1), *r, n + 2 * (g.arcs[r[-1]].head - 1) + 1)
            for r in routes]


def _reference_search(solution, inst, g, config, operators):
    """Composite descent that checks every candidate, then takes the best."""
    current = solution
    trace = [(current.objective, current.theta())]
    iteration = 0
    while True:
        pool = []
        for oi, op in enumerate(operators):
            pool += op(current, inst, g, config, _op_seed(config, iteration, oi))
        iteration += 1
        f0, th0 = trace[-1]
        better = [c for c in pool if not check_feasibility(c, inst, g)
                  and (c.objective < f0 or (c.objective == f0 and c.theta() > th0))]
        if not better:
            return current, trace
        current = min(better, key=lambda c: (c.objective, -c.theta(), _bracketed(g, c.routes)))
        trace.append((current.objective, current.theta()))


def _drop_first_driver(solution, instance, graph, config, rng):
    """A move that saves a driver by leaving rides uncovered."""
    if len(solution.routes) < 2:
        return []
    return [Solution(graph, solution.routes[1:], solution.plan)]


def test_local_search_takes_best_feasible_move(monkeypatch):
    # the extra operator's move often ranks first but is infeasible: local
    # search must reject it at certification and take the next-best move
    operators = OPERATORS + (_drop_first_driver,)
    monkeypatch.setattr("drsync.search.OPERATORS", operators)
    instances = [postpone_fixture()]
    instances += [synthetic_instance(GeneratorConfig(4, 4, 3), seed) for seed in (7, 8)]
    # several moves here reach the same driver count; remaining time picks one
    instances.append(synthetic_instance(GeneratorConfig(2, 2, 4), 0))
    instances += [_none_policy((2, 2, 4), seed) for seed in range(5)]
    for inst in instances:
        g = build_graph(inst)
        ch = construct(inst, g)
        want, want_trace = _reference_search(ch, inst, g, CFG, operators)
        trace = []
        got = local_search(ch, inst, g, CFG, trace=trace)
        assert trace == want_trace
        assert got.to_dict() == want.to_dict()


def test_ties_break_as_between_depot_bracketed_routes():
    # local search breaks ties between equally good candidates by their
    # routes; keyed without the depot arcs, the order must be the one the
    # routes had between them. Ranks are compared over every operator pool
    # of the CH and the LS solution of micro_suite(100) and ladder parts
    insts = [inst for _name, inst in micro_suite(100)]
    insts += [part for shape in LADDER[:4] for seed in (7, 8)
              for part in decompose(synthetic_instance(GeneratorConfig(*shape), seed))]
    pools = tied = raw = 0
    for inst in insts:
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        for sol in (ch, local_search(ch, inst, g, CFG)):
            pool = [c for oi, op in enumerate(OPERATORS) for c in op(sol, inst, g, CFG, oi)]
            keys = {
                "new": [tuple(search._routes_key(g.arcs, c.routes)) for c in pool],
                "old": [tuple(_bracketed(g, c.routes)) for c in pool],
                "raw": [tuple(c.routes) for c in pool],
            }
            ranks = {name: [sorted(set(ks)).index(k) for k in ks] for name, ks in keys.items()}
            assert ranks["new"] == ranks["old"]
            pools += 1
            tied += len({(c.objective, c.theta()) for c in pool}) < len(set(keys["old"]))
            raw += ranks["raw"] != ranks["old"]
    # many pools tie on (drivers, theta) between different routes, and in
    # some of them the bare arc tuples would order the routes otherwise
    assert pools > 200 and tied > 100 and raw > 10


def test_postpone_offers_the_greedy_relief_crew():
    # ride a relieves its driver at B at 735; ride b leaves B at 775, too
    # soon for a break, so the driver rides along to C. Postponing b to 785
    # makes the gap a break: the driver now waits at B and takes b over.
    # The change to b flips the choice made while crewing the earlier ride a
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B", "C"), (480, 740, 970), (260, 230), ((), ())),
            Ride("b", "L2", ("B", "D"), (780, 900), (120,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    ch = construct(inst, g)
    assert ride_times(ch.plan["a"])[1] == 735 and ride_times(ch.plan["b"])[0] == 775
    assert ch.objective == 3
    plan = dict(ch.plan)
    plan["b"] = ride_chain(g, inst.rides[1], (785, 905), (None,))
    want = assign_drivers(inst, g, plan)
    assert want.objective == 2
    assert not any(g.arcs[a].family == "deadhead" for r in want.routes for a in r)
    assert want.routes in [c.routes for c in operator_postpone(ch, inst, g, CFG, 0)]


def _memo_instances():
    """micro_suite(100) under every policy, and the parts of 6x4x4 seed 7."""
    out = [check_instance(replace(inst, exchange_policy=policy))
           for _name, inst in micro_suite(100) for policy in POLICIES]
    return out + decompose(synthetic_instance(GeneratorConfig(6, 4, 4), 7))


def test_memo_hits_equal_a_fresh_greedy_run(monkeypatch):
    # whatever _replan serves from a solution's memo is what a fresh greedy
    # run on the changed plan builds, also after a segment reassignment
    # move, which keeps the plan and so shares the memo
    replan = search._replan
    runs = []
    reassigned = {}   # id -> candidate of segment reassignment, kept alive
    # (id(memo), ride id, its arc ids) -> solution that asked first
    first_asked = {}
    hits = []         # per hit of an asked key: whether an earlier solution asked

    def counted(*args):
        runs.append(None)
        return assign_drivers(*args)

    def reassign(solution, *args):
        out = operator_reassign_segments(solution, *args)
        reassigned.update((id(c), c) for c in out)
        return out

    def checked(solution, instance, graph, ride, chain):
        n = len(runs)
        got = replan(solution, instance, graph, ride, chain)
        key = (id(solution.memo), ride.id, tuple(p.id for p in chain))
        if len(runs) > n:
            first_asked.setdefault(key, solution)
            return got
        # served without a greedy run: from the memo
        plan = dict(solution.plan)
        plan[ride.id] = chain
        try:
            want = assign_drivers(instance, graph, plan)
        except ConstructionError:
            assert got is None
        else:
            assert got.routes == want.routes
            assert got.plan == want.plan
        hits.append(first_asked[key] is not solution and id(solution) in reassigned)
        return got

    monkeypatch.setattr("drsync.search.assign_drivers", counted)
    monkeypatch.setattr("drsync.search._replan", checked)
    monkeypatch.setattr("drsync.search.OPERATORS", (reassign,) + OPERATORS[1:])
    for inst in _memo_instances():
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        local_search(ch, inst, g, CFG)
        # and from a solution the greedy did not build, one driver per piece
        # on the same plan, as an exact-search incumbent may be
        local_search(_one_driver_per_piece(inst, g, ch.plan), inst, g, CFG)
    assert len(hits) > 100
    assert any(hits)   # a hit served after an accepted reassignment


def test_no_memo_outlives_the_search(monkeypatch):
    seen = 0
    for inst in _memo_instances()[::5]:
        g = build_graph(inst)
        try:
            ch = construct(inst, g)
        except ConstructionError:
            continue
        out = local_search(ch, inst, g, CFG)
        assert out.memo == {} and ch.memo == {}
        seen += 1
    assert seen > 40
    # the stand-in clock of test_deadline_checked_between_operators ends the
    # search inside its first iteration, after postpone and prepone filled
    # the start solution's memo
    clock = _Clock()
    filled = []

    def timed(op):
        def run(solution, *args):
            clock.now += 1.0
            out = op(solution, *args)
            filled.append(len(solution.memo))
            return out
        return run

    monkeypatch.setattr("drsync.search._time", clock)
    monkeypatch.setattr("drsync.search.OPERATORS", tuple(timed(op) for op in OPERATORS))
    inst = postpone_fixture()
    g = build_graph(inst)
    ch = construct(inst, g)
    assert local_search(ch, inst, g, SearchConfig(seed=3, t_end=2.5)) is ch
    assert len(filled) == 3 and filled[-1] > 0
    assert ch.memo == {}


def test_plan_operators_on_a_plan_the_greedy_rejects(monkeypatch):
    # the plan operators crew each changed plan with the greedy and never
    # the current one, so on a plan the greedy rejects they return the
    # changed plans it does crew, and raise nothing. No stage makes such a
    # plan (test_mip.py checks every B&B incumbent); here it is made by
    # hand: ride x arrives 20 minutes late, past t_dw for a crew that stays
    # aboard
    runs = []

    def counted(*args):
        runs.append(None)
        return assign_drivers(*args)

    inst = long_ride_none()
    g = build_graph(inst)
    ch = construct(inst, g)
    times = ride_times(ch.plan["x"])
    late = dict(ch.plan)
    late["x"] = ride_chain(g, inst.rides[0], (*times[:-1], times[-1] + 20),
                           ride_stations(ch.plan["x"]))
    with pytest.raises(ConstructionError):
        assign_drivers(inst, g, late)
    monkeypatch.setattr("drsync.search.assign_drivers", counted)
    plan_ops = OPERATORS[1:]
    # with one driver, every postponed plan spans at least the route: no
    # move can improve it, so the greedy runs on none
    sol = Solution(g, ch.routes[:1], late)
    assert sol.objective == 1
    assert [c for oi, op in enumerate(plan_ops) for c in op(sol, inst, g, CFG, oi)] == []
    assert runs == []
    sol = Solution(g, _one_driver_per_piece(inst, g, ch.plan).routes, late)
    assert sol.objective > 1
    # a shift keeps ride x's span and the greedy crews each route on its
    # own, so it crews none of the moves it runs on: each leaves a None
    assert [c for oi, op in enumerate(plan_ops) for c in op(sol, inst, g, CFG, oi)] == []
    assert runs and list(sol.memo.values()) == [None] * len(runs)


class _Clock:
    """Stands in for the time module inside drsync.search."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_deadline_checked_between_operators(monkeypatch):
    # every operator call takes one second on the stand-in clock; the
    # search's end passes inside the first iteration, so the search runs
    # no further operator and returns its start solution
    clock = _Clock()
    calls = []

    def timed(op):
        def run(*args):
            calls.append(op.__name__)
            clock.now += 1.0
            return op(*args)
        return run

    monkeypatch.setattr("drsync.search._time", clock)
    monkeypatch.setattr("drsync.search.OPERATORS", tuple(timed(op) for op in OPERATORS))
    inst = postpone_fixture()
    g = build_graph(inst)
    ch = construct(inst, g)
    out = local_search(ch, inst, g, SearchConfig(seed=3, t_end=2.5))
    assert calls == [op.__name__ for op in OPERATORS[:3]]
    assert out is ch
    # postpone's move, found before the end, is taken when time remains.
    # Its one driver is max(lb1, lb2), and no plan move can raise its
    # theta, so the search stops before a second iteration: one iteration
    # of calls, and the outcome of a search with no end
    calls.clear()
    clock.now = 0.0
    out = local_search(ch, inst, g, SearchConfig(seed=3, t_end=100.0))
    assert out.objective == 1
    assert calls == [op.__name__ for op in OPERATORS]
    assert out.to_dict() == local_search(ch, inst, g, SearchConfig(seed=3)).to_dict()
    # above the bound (8 drivers after the first move, against 5) the
    # second iteration calls every operator again, and improves nothing
    inst = synthetic_instance(GeneratorConfig(3, 3, 3), 7)
    g = build_graph(inst)
    ch = construct(inst, g)
    calls.clear()
    clock.now = 0.0
    out = local_search(ch, inst, g, SearchConfig(seed=3, t_end=100.0))
    assert (ch.objective, out.objective) == (9, 8)
    assert calls == [op.__name__ for op in OPERATORS] * 2


# sha256 of local search's to_dict() after construct on 1x24x4 seed 7, by
# exchange policy: segment reassignment on a long line, where most hosts are
# rejected by their span or a new link before the chain walk
LONG_LINE_CH_LS = {
    "none": "c0e259f42b1177b04563a33ac48a549ce08ee7b1c15c40828a663b531ba9a71b",
    "regular_stops": "2aadb3a8bc414936902ae9d4ef88516d1edcffbe7aafeef07b16ca38b44aec0f",
    "regular_and_intermediate":
        "2aadb3a8bc414936902ae9d4ef88516d1edcffbe7aafeef07b16ca38b44aec0f",
}


@pytest.mark.parametrize("policy", POLICIES)
def test_ch_ls_on_a_long_line_is_pinned(policy):
    inst = synthetic_instance(GeneratorConfig(1, 24, 4, exchange_policy=policy), 7)
    g = build_graph(inst)
    out = local_search(construct(inst, g), inst, g, SearchConfig(seed=0))
    blob = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == LONG_LINE_CH_LS[policy]


# sha256 of local search's to_dict() after construct on 8x6x4 seed 7, by
# exchange policy: segment reassignment's itineraries break ties between
# carriers with equal times by the plan's chronological piece order, which
# here decides between itineraries of the same length
TIE_BREAK_CH_LS = {
    "regular_stops": "b29e8892da8d7612e5b178eba45ec307cdb1bc54402685d9f54cfbdba3bb87bc",
    "regular_and_intermediate":
        "b29e8892da8d7612e5b178eba45ec307cdb1bc54402685d9f54cfbdba3bb87bc",
}


@pytest.mark.parametrize("policy", sorted(TIE_BREAK_CH_LS))
def test_ch_ls_tie_break_between_carriers_is_pinned(policy):
    inst = synthetic_instance(GeneratorConfig(8, 6, 4, exchange_policy=policy), 7)
    g = build_graph(inst)
    out = local_search(construct(inst, g), inst, g, SearchConfig(seed=0))
    assert (out.objective, out.theta()) == (48, 17150)
    blob = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == TIE_BREAK_CH_LS[policy]


def test_reassignment_backtracking_stops_at_the_deadline(monkeypatch):
    # the stand-in clock moves one second per reading; segment reassignment
    # reads it once per placement step, and only under a deadline
    reads = []

    class Ticking:
        def monotonic(self):
            reads.append(None)
            return float(len(reads))

    monkeypatch.setattr("drsync.search._time", Ticking())
    inst = synthetic_instance(GeneratorConfig(3, 3, 3), 7)
    g = build_graph(inst)
    ch = construct(inst, g)
    full = operator_reassign_segments(ch, inst, g, CFG, 0)
    assert reads == [] and len(full) == 3
    cut = operator_reassign_segments(ch, inst, g, replace(CFG, t_end=5.0), 0)
    assert len(reads) == 5   # the fifth reading reaches the deadline: no sixth
    assert [c.routes for c in cut] == [c.routes for c in full[:1]]
    # local search hands its end down unchanged: the backtracking stops
    # inside the first operator and the start solution comes back
    reads.clear()
    assert local_search(ch, inst, g, SearchConfig(seed=0, t_end=6.0)) is ch
    assert len(reads) == 7   # loop test, five placement steps, next operator
