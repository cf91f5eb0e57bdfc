import hashlib
import json
import sys
import time
from dataclasses import replace

import pytest

from drsync.bounds import compute_bounds
from drsync.fixtures import gap_fixture, micro_suite
from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.instance import (
    POLICY_FULL,
    POLICY_NONE,
    POLICY_REGULAR,
    Instance,
    LegalParams,
    Ride,
    check_instance,
    decompose,
    filter_stations,
)
from drsync import mip
from drsync.mip import (
    SolveOutcome,
    SolverConfig,
    _Search,
    build_model,
    restrict,
    solve,
)
from drsync.oracle import brute_force
from drsync.search import assign_drivers
from drsync.solution import check_feasibility, itinerary
from drsync.timegraph import FAMILY_DEADHEAD, FAMILY_STEERING, build_graph

from conftest import customer_stops, shared_terminal


def model_for(inst):
    g = build_graph(inst)
    return build_model(inst, g, compute_bounds(inst))


def test_build_model_fig2(fig2):
    m = model_for(fig2)
    assert m.bounds.ub == 1          # UB from one 60-minute leg


def test_restrict_copies(fig2):
    m = model_for(fig2)
    r = restrict(m, 3)
    assert r.cardinality_cap == 3
    assert m.cardinality_cap is None


def test_solve_fig2_optimal(fig2):
    m = model_for(fig2)
    out = solve(m, SolverConfig(time_limit=30))
    assert out.status == "optimal"
    assert out.best_solution.objective == 1
    assert check_feasibility(out.best_solution, fig2, m.graph) == []


def test_solve_chain_single_driver(sequential_pair):
    m = model_for(sequential_pair)
    out = solve(m, SolverConfig(time_limit=30))
    assert out.status == "optimal"
    assert out.best_solution.objective == 1


def test_restricted_below_optimum_infeasible(sequential_pair):
    m = model_for(sequential_pair)
    # optimum is 1; P(0) must be proven infeasible
    out = solve(restrict(m, 0), SolverConfig(time_limit=30))
    assert out.status == "infeasible"
    assert out.best_solution is None


def test_gap_fixture_cap_behaviour():
    inst = gap_fixture(2)
    m = model_for(inst)
    assert m.bounds.lb == 1
    capped = solve(restrict(m, 1), SolverConfig(time_limit=30))
    assert capped.status == "infeasible"     # the whole point of the fixture
    at_two = solve(restrict(m, 2), SolverConfig(time_limit=30))
    assert at_two.status == "optimal"
    assert at_two.best_solution.objective == 2
    unrestricted = solve(m, SolverConfig(time_limit=30))
    assert unrestricted.best_solution.objective == 2
    # cap at UB is never binding
    at_ub = solve(restrict(m, m.bounds.ub), SolverConfig(time_limit=30))
    assert at_ub.best_solution.objective == 2


def test_cap_monotonicity(parallel_triplet):
    m = model_for(parallel_triplet)    # optimum 3
    results = {}
    for cap in (0, 1, 2, 3):
        results[cap] = solve(restrict(m, cap), SolverConfig(time_limit=30)).status
    assert results[3] == "optimal"
    assert results[2] == results[1] == results[0] == "infeasible"


def test_incumbent_log_strictly_improves(parallel_triplet):
    m = model_for(parallel_triplet)
    seen = []
    out = solve(m, SolverConfig(
        time_limit=30, incumbent_callback=lambda s: seen.append(s.objective) or None))
    objs = [f for _, f in out.incumbent_log]
    assert objs == sorted(set(objs), reverse=True) or len(objs) <= 1
    assert all(a > b for a, b in zip(objs, objs[1:]))
    assert seen  # the callback fired on every improvement


def test_callback_injection(sequential_pair):
    m = model_for(sequential_pair)
    good = solve(m, SolverConfig(time_limit=30)).best_solution  # optimal, f=1
    worse = replace(m, objective_floor=0)

    def inject(sol):
        return good if sol.objective > good.objective else None

    out = solve(worse, SolverConfig(time_limit=30, incumbent_callback=inject))
    assert out.status == "optimal"
    assert out.best_solution.objective == 1


def test_the_greedy_crews_every_incumbent_plan():
    # local search re-crews a changed plan by replaying the greedy's record
    # of the plan it starts from, built once for a B&B incumbent, so the
    # greedy must crew every incumbent's plan: its pieces are graph arcs, at
    # most t_cs long, and every crew's span fits t_dw
    instances = [check_instance(replace(inst, exchange_policy=policy))
                 for _iid, inst in micro_suite(100)
                 for policy in (POLICY_FULL, POLICY_REGULAR, POLICY_NONE)]
    instances += [shared_terminal((2, 2, 4), seed) for seed in range(4)]
    plans = 0
    for inst in instances:
        m = model_for(inst)
        crewed = []

        def crew(sol):
            greedy = assign_drivers(inst, m.graph, sol.plan)
            assert check_feasibility(greedy, inst, m.graph) == []
            crewed.append(sol)

        out = solve(m, SolverConfig(time_limit=60, incumbent_callback=crew))
        assert len(crewed) == len(out.incumbent_log)
        plans += len(crewed)
    assert plans > len(instances)


def test_start_solution_used_as_incumbent(parallel_triplet):
    m = model_for(parallel_triplet)
    start = solve(m, SolverConfig(time_limit=30)).best_solution
    out = solve(m, SolverConfig(time_limit=30, start_solution=start))
    assert out.status == "optimal"
    assert out.best_solution.objective == start.objective


def test_empty_instance():
    inst = Instance(rides=(), stops=(), theta_tw=10, zeta=0, ell=10)
    m = model_for(inst)
    out = solve(m, SolverConfig(time_limit=5))
    assert out.status == "optimal"
    assert out.best_solution.objective == 0


def test_solver_matches_oracle_and_symmetry(fig2, sequential_pair, parallel_triplet):
    for inst in (fig2, sequential_pair, parallel_triplet):
        m = model_for(inst)
        out = solve(m, SolverConfig(time_limit=30))
        res = brute_force(inst)
        assert out.best_solution.objective == res.optimum
        for route in out.best_solution.routes:
            assert any(m.graph.arcs[a].family == FAMILY_STEERING for a in route)


def test_released_crew_carries_its_deadhead_run_into_the_next_hop():
    # Policy none, fixed times, t_cs 200 and t_b 60. d steers r1's first leg
    # (200 min) and rides its second (40 min) as a passenger, because a
    # second crew member must steer it; both leave the crew at C at 720.
    # Only that second member can steer r2 (C->D, 720-750), so d rides it
    # on at once: 40 + 30 minutes of passenger run renew d's steering,
    # although neither run alone reaches t_b. Only then can d steer r3
    # (150 min from D at 750), and two drivers suffice instead of three.
    inst = check_instance(Instance(
        rides=(
            Ride("r1", "L1", ("A", "B", "C"), (480, 680, 720), (200, 40), ((), ())),
            Ride("r2", "L2", ("C", "D"), (720, 750), (30,), ((),)),
            Ride("r3", "L3", ("D", "E"), (750, 900), (150,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D", "E"),
        legal=LegalParams(t_cs=200, t_b=60, t_ds=600, t_dw=780),
        theta_tw=0, zeta=0, ell=10, exchange_policy=POLICY_NONE,
    ))
    m = model_for(inst)
    out = solve(m, SolverConfig(time_limit=30))
    assert out.status == "optimal"
    assert out.best_solution.objective == 2 == brute_force(inst).optimum
    assert check_feasibility(out.best_solution, inst, m.graph) == []


def test_crew_members_stay_engaged(monkeypatch):
    # policy none: every driver in a ride's crew is aboard that ride, also
    # after the search backtracks over a release of the crew at the terminal,
    # so no other ride can take a member as a free driver
    inst = synthetic_instance(GeneratorConfig(1, 3, 3, exchange_policy="none"), 0)
    next_event = _Search._next_event
    checks = 0

    def checked(search):
        nonlocal checks
        for ri, crew in enumerate(search.crew):
            assert all(search.drivers[m].engaged == ri for m in crew), (ri, sorted(crew))
        checks += 1
        return next_event(search)

    monkeypatch.setattr(_Search, "_next_event", checked)
    out = solve(model_for(inst), SolverConfig(time_limit=60))
    assert out.status == "optimal"
    assert checks > 100


def test_a_late_recruit_rests_while_riding_along():
    # Policy none, fixed times, t_cs 270 and t_b 80. d steers r0 (200 min)
    # and reaches B as r1 starts there; a second driver must steer r1's
    # first leg (80 min). d boards r1 at B and rides that leg as a
    # passenger: exactly t_b, which renews its steering, so d can steer the
    # second leg (200 min) and two drivers suffice instead of three.
    inst = check_instance(Instance(
        rides=(
            Ride("r0", "L0", ("A", "B"), (480, 680), (200,), ((),)),
            Ride("r1", "L1", ("B", "C", "D"), (680, 760, 960), (80, 200), ((), ())),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        legal=LegalParams(t_cs=270, t_b=80, t_ds=660, t_dw=780),
        theta_tw=0, zeta=0, ell=10, exchange_policy=POLICY_NONE,
    ))
    m = model_for(inst)
    out = solve(m, SolverConfig(time_limit=30))
    assert out.status == "optimal"
    assert out.best_solution.objective == 2 == brute_force(inst).optimum
    assert check_feasibility(out.best_solution, inst, m.graph) == []


def test_completed_rides_are_the_carriers_under_policy_none(monkeypatch):
    # policy none: a passenger rides a whole ride, so at every node the
    # carriers are one (start, end, pieces) unit per completed ride, filed
    # under its first stop, and nothing else
    inst = synthetic_instance(GeneratorConfig(1, 3, 3, exchange_policy="none"), 0)
    next_event = _Search._next_event
    with_rides = 0

    def order(unit):
        return unit[0], unit[1], unit[2][0].ride

    def checked(search):
        nonlocal with_rides
        expected = {}
        for ri, pieces in enumerate(search.ride_arcs):
            if search.pos[ri] == search.n_segments[ri]:
                expected.setdefault(search.rides[ri].stops[0], []).append(
                    (pieces[0].start, pieces[-1].end, tuple(pieces)))
        got = {base: sorted(units, key=order)
               for base, units in search.carriers.items() if units}
        assert got == {base: sorted(units, key=order) for base, units in expected.items()}
        with_rides += bool(expected)
        return next_event(search)

    monkeypatch.setattr(_Search, "_next_event", checked)
    out = solve(model_for(inst), SolverConfig(time_limit=60))
    assert out.status == "optimal"
    assert with_rides >= 50


def _search_state(search):
    return (
        list(search.drivers), [set(c) for c in search.crew],
        {base: list(units) for base, units in search.carriers.items() if units},
        [list(p) for p in search.ride_arcs], list(search.pos), list(search.pending),
        list(search.cur_node), list(search.minstart), list(search.event_time),
        list(search.unstarted), search.last_move,
    )


@pytest.mark.parametrize("shape, seed", [
    ((2, 2, 4, POLICY_FULL), 3),
    ((2, 2, 4, POLICY_NONE), 3),
    # P(4) of a line of identical rides, where the identical-ride rule cuts
    ((1, 4, 3, POLICY_FULL), 27),
], ids=["regular_and_intermediate", "none", "identical_rides"])
def test_an_exhausted_search_leaves_the_root_state(shape, seed):
    # every child undoes what it applied, so a search that visits the whole
    # tree ends where it began
    inst = synthetic_instance(GeneratorConfig(*shape[:3], exchange_policy=shape[3]), seed)
    search = _Search(_cap_model(inst, 0), SolverConfig(time_limit=60))
    root = _search_state(search)
    out = search.run()
    assert out.status == "infeasible"
    assert _search_state(search) == root
    assert (out.symmetry_drops > 0) == (shape[:3] == (1, 4, 3))


def _cap_model(inst, extra):
    """P(max(lb1, lb2) + extra) with its floor at the cap, as DBI builds it.

    The cap leaves lb3 out, so these trees stay the ones pinned below.
    """
    m = model_for(inst)
    cap = max(m.bounds.lb1, m.bounds.lb2) + extra
    return replace(restrict(m, cap), objective_floor=cap)


# (status, objective, nodes) of searches that finish, pinned from the
# recursive search this one replaced: the same tree in the same order
SAME_TREE = {
    ((2, 2, 4), 0): [("infeasible", None, 17033), ("optimal", 5, 417)],
    ((2, 2, 4), 1): [("infeasible", None, 358), ("optimal", 3, 21)],
    ((2, 2, 4), 2): [("infeasible", None, 24665), ("optimal", 5, 28)],
    ((2, 2, 4), 3): [("infeasible", None, 1396), ("infeasible", None, 15228)],
    ((2, 2, 4), 4): [("infeasible", None, 3145), ("optimal", 4, 21)],
    ((2, 2, 4), 5): [("infeasible", None, 2412), ("infeasible", None, 43995)],
    ((2, 2, 4), 6): [("infeasible", None, 2199), ("infeasible", None, 40772)],
    ((2, 2, 4), 7): [("infeasible", None, 2585), ("optimal", 4, 21)],
    ((2, 2, 4), 8): [("infeasible", None, 2000), ("optimal", 4, 77)],
    ((2, 2, 4), 9): [("infeasible", None, 1284), ("infeasible", None, 11668)],
    # the only finished search here where two drivers share a dedupe key
    ((2, 2, 4), 19): [("infeasible", None, 3113), ("optimal", 4, 107)],
    ((3, 2, 3), 0): [("optimal", 4, 25), ("optimal", 4, 25)],
    ((3, 2, 3), 1): [("optimal", 6, 25), ("optimal", 6, 25)],
    ((3, 2, 3), 2): [("optimal", 5, 25), ("optimal", 5, 25)],
    ((3, 2, 3), 3): [("optimal", 5, 25), ("optimal", 5, 25)],
    ((3, 2, 3), 4): [("optimal", 4, 25), ("optimal", 4, 25)],
    ((2, 2, 4, "none"), 3): [("infeasible", None, 328), ("infeasible", None, 1648)],
    ((2, 2, 4, "none"), 4): [("infeasible", None, 786), ("optimal", 4, 21)],
    # bigger none trees, where an existing driver boards a ride after its
    # first leg was given out
    ((2, 3, 3, "none"), 0): [("optimal", 2, 36097), ("optimal", 3, 30)],
    ((1, 3, 3, "none"), 0): [("optimal", 1, 259), ("optimal", 2, 18)],
    ((2, 2, 4, "regular_stops"), 0): [("infeasible", None, 3063), ("optimal", 5, 107)],
    ((2, 2, 4, "regular_stops"), 3): [("infeasible", None, 392), ("infeasible", None, 2551)],
}


def _outcome_key(out):
    obj = out.best_solution.objective if out.best_solution is not None else None
    return (out.status, obj, out.nodes)


@pytest.mark.parametrize("shape, seed", list(SAME_TREE),
                         ids=["x".join(map(str, shape)) + f"-{seed}" for shape, seed in SAME_TREE])
def test_same_tree_on_generated_caps(shape, seed):
    cfg = GeneratorConfig(*shape[:3], **({"exchange_policy": shape[3]} if len(shape) > 3 else {}))
    inst = synthetic_instance(cfg, seed)
    got = [_outcome_key(solve(_cap_model(inst, extra), SolverConfig(time_limit=60)))
           for extra in (0, 1)]
    assert got == SAME_TREE[shape, seed]


def _reference_model():
    """P(5) of part 2 of 6x4x4-7, as DBI solves it in a run (12138 nodes).

    Unlike the SAME_TREE shapes, its nodes offer several candidate pieces
    each, and it has identical rides.
    """
    inst = check_instance(synthetic_instance(GeneratorConfig(6, 4, 4), 7))
    g = build_graph(inst)
    part = decompose(g.instance)[2]
    m = build_model(part, g, compute_bounds(part))
    return replace(restrict(m, m.bounds.lb), objective_floor=m.bounds.lb)


def test_the_reach_list_is_searched_once_per_node(monkeypatch):
    # every free driver's relocation is searched at most once per node, and
    # not at all when the pre-filter shows it could take no candidate: once
    # per piece took 88663 itinerary calls, once per node with no filter
    # 50223 and with the filter 25498, over the 23786 nodes this search had
    # before identical rides were searched in one order
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return itinerary(*args)

    monkeypatch.setattr(mip, "itinerary", counting)
    m = _reference_model()
    out = solve(m, SolverConfig(time_limit=60))
    assert (m.cardinality_cap, _outcome_key(out)) == (5, ("optimal", 5, 12138))
    assert out.symmetry_drops == 403
    assert calls == 13305


# sha256 over (status, nodes, best solution) of every search on
# micro_suite(100) under one policy, unrestricted and at P(clb). The
# SAME_TREE pins count nodes only; these also change when the tree stays
# but a driver waits or deadheads another way.
BB_OUTPUTS = {
    POLICY_FULL: "4db500d1758b1d44616a70017e9e91dede686268a10f6c5fea401b029b9b3e8d",
    POLICY_REGULAR: "8f469cc34830d63bdf95d2377fa5c9a7f5f6abc76a2d49cea11c3ccdb97a8791",
    POLICY_NONE: "3b15c846274be8f4286f6ae41205c41c570a655e689b10b2edb72b1dae49846f",
}


@pytest.mark.parametrize("policy", list(BB_OUTPUTS))
def test_bb_outputs_are_pinned(policy):
    h = hashlib.sha256()
    for _iid, inst in micro_suite(100):
        m = model_for(check_instance(replace(inst, exchange_policy=policy)))
        for model in (m, restrict(m, m.bounds.lb)):
            out = solve(model, SolverConfig(time_limit=60))
            sol = out.best_solution.to_dict() if out.best_solution is not None else None
            h.update(json.dumps([out.status, out.nodes, sol], sort_keys=True).encode())
    assert h.hexdigest() == BB_OUTPUTS[policy]


def _spied_searches():
    """(group, model) of every search the listing and event checks watch: the
    SAME_TREE caps, the BB_OUTPUTS searches (grouped by policy), one more
    search under none, one with identical rides under regular_stops and the
    reference search."""
    for shape, seed in SAME_TREE:
        cfg = GeneratorConfig(*shape[:3], **({"exchange_policy": shape[3]} if len(shape) > 3 else {}))
        inst = synthetic_instance(cfg, seed)
        for extra in (0, 1):
            yield "same_tree", _cap_model(inst, extra)
    for policy in BB_OUTPUTS:
        for _iid, inst in micro_suite(100):
            m = model_for(check_instance(replace(inst, exchange_policy=policy)))
            yield policy, m
            yield policy, restrict(m, m.bounds.lb)
    # the few micro searches under none skip no driver; this one does
    inst = synthetic_instance(GeneratorConfig(3, 2, 3, exchange_policy=POLICY_NONE), 3)
    yield POLICY_NONE, _cap_model(inst, 0)
    yield from _identical_ride_searches()


def _identical_ride_searches():
    """The spied searches in which the identical-ride rule cuts children (no
    micro search has identical rides): one under regular_stops and the
    reference search."""
    inst = synthetic_instance(GeneratorConfig(1, 4, 3, exchange_policy=POLICY_REGULAR), 27)
    yield POLICY_REGULAR, _cap_model(inst, 0)
    yield "reference", _reference_model()


def _unfiltered_children(search, pieces, base, start, aboard, members):
    """The node's children as listed with no pre-filter, and for each free
    driver the children its own relocation and the per-piece filters give."""
    t_b, t_ds, t_dw, t_cs = search.t_b, search.t_ds, search.t_dw, search.t_cs
    per_driver = {}
    first_of_key = []
    seen = set()
    for idx, d in enumerate(search.drivers):
        if d.engaged is not None or d.time > start:
            continue
        key = (d.base, d.time, d.u, d.daily, d.start, d.trail_run)
        if key not in seen:
            seen.add(key)
            first_of_key.append(idx)
        way = itinerary(search.carriers, t_b, d.base, d.time, d.trail_run, base, start)
        got = per_driver[idx] = []
        if way is None:
            continue
        renews, plan, run = way
        for entry in pieces[0]:
            piece = entry[0][0]
            u0 = 0 if renews or run + piece.start - start >= t_b else d.u
            if (d.daily + piece.duration <= t_ds and piece.end - d.start <= t_dw
                    and u0 + piece.duration <= t_cs):
                got.append((entry[0], idx, plan + aboard, u0, None))
    children = []
    for entry in pieces[0]:
        cand = entry[0]
        piece = cand[0]
        for idx, time, u, daily, d_start, ride_along in members:
            u0 = 0 if piece.start - time >= t_b else u
            if (u0 + piece.duration <= t_cs and daily + piece.duration <= t_ds
                    and piece.end - d_start <= t_dw):
                children.append((cand, idx, ride_along, u0, None))
        children += [c for idx in first_of_key for c in per_driver[idx] if c[0] is cand]
        if piece.end - start <= t_dw and len(search.drivers) + 1 < search.threshold:
            children.append((cand, None, aboard, 0, (base, start)))
    return children, per_driver, first_of_key


@pytest.mark.parametrize("group", ["same_tree", *BB_OUTPUTS, "reference"])
def test_the_pre_filter_skips_only_drivers_with_no_child(monkeypatch, group):
    # A free driver whose u plus the shortest candidate passes t_cs must renew
    # continuous steering before it boards, and cannot when the time to the
    # boarding point, its deadhead run and the longest ride along stay below
    # t_b. At every node, each driver the filter skips gets no child from its
    # own relocation and the per-piece filters, the listing asks itinerary
    # once per key of the rest, and the children are the unfiltered ones.
    list_children = _Search._list_children
    calls = 0
    skipped = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return itinerary(*args)

    def spy_list(search, pieces, base, start, aboard, members):
        nonlocal calls, skipped
        expected, per_driver, first_of_key = _unfiltered_children(
            search, pieces, base, start, aboard, members)
        shortest = min(entry[0][0].duration for entry in pieces[0])
        longest_ride = max(entry[0][0].start for entry in pieces[0]) - start
        asked = set()
        for idx in per_driver:
            d = search.drivers[idx]
            if (d.u + shortest > search.t_cs
                    and start - d.time + longest_ride < search.t_b - d.trail_run):
                assert per_driver[idx] == [], (idx, start)
                skipped += 1
            elif idx in first_of_key:
                asked.add(idx)
        calls = 0
        out = list_children(search, pieces, base, start, aboard, members)
        assert calls == len(asked)
        assert out == expected
        return out

    monkeypatch.setattr(mip, "itinerary", counting)
    monkeypatch.setattr(_Search, "_list_children", spy_list)
    searched = drops = 0
    for g, m in _spied_searches():
        if g == group:
            out = solve(m, SolverConfig(time_limit=60))
            assert out.status != "feasible"
            searched += 1
            drops += out.symmetry_drops
    assert searched > 0
    assert skipped > 0
    assert (drops > 0) == (group in (POLICY_REGULAR, "reference"))


def _scanned_next_event(search):
    """The next event by a scan of every ride, as it was found before the
    search kept each ride's event time."""
    t_active = choice = None
    unstarted = []
    for ri in range(search.nrides):
        pend = search.pending[ri]
        if pend is not None:
            node = pend[0]
        else:
            node = search.cur_node[ri]
            if node < 0:
                unstarted.append(ri)
                continue
            if search.pos[ri] >= search.n_segments[ri]:
                continue
        t = search.g.nodes[node].time
        if t_active is None or t < t_active:
            t_active, choice = t, ri
    best_start = None
    for ri in unstarted:
        grid = search.start_grids[ri]
        if search.minstart[ri] >= len(grid):
            return ("dead", ri, None)
        e_min = grid[search.minstart[ri]][0]
        if (t_active is None or e_min <= t_active) and (
                best_start is None or e_min < best_start[1]):
            best_start = (ri, e_min)
    if best_start is not None:
        return ("start", best_start[0], t_active)
    if choice is None:
        return None
    return ("piece", choice, t_active)


@pytest.mark.parametrize("group", ["same_tree", *BB_OUTPUTS, "reference"])
def test_the_event_list_matches_a_rescan(monkeypatch, group):
    # at every node the next event read off the kept event times is the one
    # a scan of every ride finds, start and dead events included
    next_event = _Search._next_event
    kinds = set()

    def checked(search):
        got = next_event(search)
        assert got == _scanned_next_event(search)
        kinds.add(got[0] if got is not None else None)
        return got

    monkeypatch.setattr(_Search, "_next_event", checked)
    drops = 0
    for g, m in _spied_searches():
        if g == group:
            drops += solve(m, SolverConfig(time_limit=60)).symmetry_drops
    assert (drops > 0) == (group in (POLICY_REGULAR, "reference"))
    assert kinds >= {"piece", "start", None}
    if group == "same_tree":
        assert "dead" in kinds


def _candidate(entry):
    """A candidate of ``_pieces`` as identical rides share it: its arc's leg,
    station and times, the ride state it leads to, its position and limits."""
    (piece, _steer, _unit, moved, position), *limits = entry
    return piece.leg, piece.station, piece.start, piece.end, moved, position, limits


def _signature(pieces):
    return [(p.leg, p.station, p.start, p.end) for p in pieces]


def test_identical_rides_line_up_where_the_rule_fires(monkeypatch):
    # wherever the identical-ride rule fires, this node is the child of the
    # move of a lower-index ride equal in every field but the ids, that ride
    # had this ride's pieces before the move and moved by one of this ride's
    # candidates, and the two rides' candidates match position by position
    symmetric = _Search._symmetric_hand_out
    fired = 0

    def spy(search, ri, children):
        nonlocal fired
        m = search.last_move
        mine = _signature(search.ride_arcs[ri])
        state = (search.pos[ri], search.cur_node[ri], search.pending[ri], mine)
        if (m is not None and m[0] == search.nodes_visited and m[1] in search.identical[ri]
                and m[2] == state):
            assert m[1] < ri
            lower = search.rides[m[1]]
            assert replace(lower, id="", line_id="") == replace(search.rides[ri], id="", line_id="")
            theirs = _signature(search.ride_arcs[m[1]])
            assert theirs[:-1] == mine
            candidates = search._pieces(ri)[0]
            assert theirs[-1] in [_candidate(e)[:4] for e in candidates]
            key = search.pending[ri] or (search.pos[ri], search.cur_node[ri])
            lower_candidates = search._piece_cache[m[1]][key][0]
            assert list(map(_candidate, candidates)) == list(map(_candidate, lower_candidates))
            fired += 1
        return symmetric(search, ri, children)

    monkeypatch.setattr(_Search, "_symmetric_hand_out", spy)
    drops = 0
    for _group, m in _identical_ride_searches():
        drops += solve(m, SolverConfig(time_limit=60)).symmetry_drops
    assert fired > 100 and drops > 100


# parts with identical rides, as (shape, seed, part index)
IDENTICAL_RIDE_PARTS = [((1, 3, 3), 27, 0), ((1, 3, 3), 40, 0), ((1, 3, 4), 37, 0),
                        ((1, 3, 4), 54, 0), ((1, 3, 4), 58, 0), ((2, 3, 3), 9, 1),
                        ((2, 3, 3), 12, 1)]


@pytest.mark.parametrize("policy", [POLICY_FULL, POLICY_REGULAR])
def test_the_identical_ride_rule_keeps_the_oracle_optimum(policy):
    # with the rule cutting children, the search still finds the oracle's
    # optimum and refutes one driver fewer
    for shape, seed, index in IDENTICAL_RIDE_PARTS:
        cfg = GeneratorConfig(*shape, exchange_policy=policy)
        part = decompose(filter_stations(check_instance(synthetic_instance(cfg, seed))))[index]
        m = model_for(part)
        optimum = brute_force(part).optimum
        out = solve(m, SolverConfig(time_limit=60))
        below = solve(replace(restrict(m, optimum - 1), objective_floor=optimum - 1),
                      SolverConfig(time_limit=60))
        assert (out.status, out.best_solution.objective, below.status) == (
            "optimal", optimum, "infeasible"), (shape, seed)
        assert check_feasibility(out.best_solution, part, m.graph) == []
        assert out.symmetry_drops > 0 and below.symmetry_drops > 0


def test_same_tree_on_fixtures(fig2, sequential_pair, parallel_triplet):
    # per fixture: the unrestricted model, then P(cLB) and P(cLB + 1)
    expected = {
        "fig2": [("optimal", 1, 3)] * 3,
        "sequential_pair": [("optimal", 1, 5)] * 3,
        "parallel_triplet": [("optimal", 3, 7)] * 3,
        "gap2": [("optimal", 2, 13), ("infeasible", None, 12), ("optimal", 2, 5)],
        "gap3": [("optimal", 3, 40), ("infeasible", None, 12), ("infeasible", None, 39)],
    }
    instances = {"fig2": fig2, "sequential_pair": sequential_pair,
                 "parallel_triplet": parallel_triplet,
                 "gap2": gap_fixture(2), "gap3": gap_fixture(3)}
    for name, inst in instances.items():
        models = [model_for(inst), _cap_model(inst, 0), _cap_model(inst, 1)]
        got = [_outcome_key(solve(m, SolverConfig(time_limit=60))) for m in models]
        assert got == expected[name], name


@pytest.mark.parametrize("shape", [(8, 6, 4), (8, 12, 4)], ids=["8x6x4", "8x12x4"])
def test_deep_trees_return_within_limit(shape):
    # 48 and 96 rides: several hundred pieces deep, past the interpreter's
    # recursion limit; every node checks the deadline
    inst = synthetic_instance(GeneratorConfig(*shape), 7)
    m = model_for(inst)
    limit_before = sys.getrecursionlimit()
    start = time.monotonic()
    out = solve(m, SolverConfig(time_limit=1.0))
    elapsed = time.monotonic() - start
    assert sys.getrecursionlimit() == limit_before
    assert isinstance(out, SolveOutcome)
    assert out.status in ("feasible", "timeout_no_solution")
    assert out.nodes > 0
    assert elapsed <= 1.3
    if out.best_solution is not None:
        assert check_feasibility(out.best_solution, inst, m.graph) == []


def _policy_instances():
    out = [inst for _name, inst in micro_suite(100)]
    for policy in ("regular_and_intermediate", "regular_stops", "none"):
        for shape in ((2, 2, 4), (3, 2, 3), (2, 3, 3)):
            out += [synthetic_instance(GeneratorConfig(*shape, exchange_policy=policy), s)
                    for s in range(3)]
    return out


def test_no_route_deadheads_on_an_arc_it_steers():
    # a driver never rides as a passenger on a piece it steers itself
    for inst in _policy_instances():
        m = model_for(inst)
        out = solve(m, SolverConfig(time_limit=0.2))
        if out.best_solution is None:
            continue
        arcs = m.graph.arcs
        for route in out.best_solution.routes:
            steered = {a for a in route if arcs[a].family == FAMILY_STEERING}
            ridden = {arcs[a].twin for a in route if arcs[a].family == FAMILY_DEADHEAD}
            assert not steered & ridden
