from dataclasses import replace

import pytest

from drsync.bounds import compute_bounds
from drsync.fixtures import micro_suite, station_exchange_fixture
from drsync.instance import POLICIES, Instance, Ride, check_instance
from drsync.mip import SolverConfig, build_model, solve
from drsync.search import ConstructionError, SearchConfig, construct, local_search
from drsync.solution import (
    ConnectionPlanner,
    Solution,
    SolutionStructureError,
    assemble_route,
    check_feasibility,
    itinerary,
    plan_pieces,
    plan_from_routes,
)
from drsync.timegraph import build_graph

from conftest import customer_stops, plan_of


def manual_solution(inst, spec, piece_groups):
    """Build a solution steering the pieces of the plan `spec` (``plan_of``)
    in the given driver groups."""
    g = build_graph(inst)
    plan = plan_of(g, spec)
    pieces = plan_pieces(inst, plan)
    routes = []
    for group in piece_groups:
        elements = []
        last = None
        for i in group:
            p = pieces[i]
            if last is not None and last.end < p.start:
                elements.append(("wait", last.to_base, last.end, p.start))
            elements.append(("steer", p.id))
            last = p
        routes.append(assemble_route(g, elements))
    return Solution(g, routes, plan), g


def test_overlong_continuous_steering_reported():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B", "C"), (480, 620, 760), (140, 140), ((), ())),),
        stops=customer_stops("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))
    plan = {"r": ((475, 615, 755), (None, None))}
    sol, g = manual_solution(inst, plan, [[0, 1]])
    violations = check_feasibility(sol, inst, g)
    assert [v.kind for v in violations] == ["continuous_steering"]
    assert violations[0].detail == 10


def test_uncovered_segment_reported():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B", "C"), (480, 600, 720), (120, 120), ((), ())),),
        stops=customer_stops("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))
    plan = {"r": ((475, 595, 715), (None, None))}
    sol, g = manual_solution(inst, plan, [[0]])
    kinds = {v.kind for v in check_feasibility(sol, inst, g)}
    assert "uncovered_segment" in kinds


def test_deadhead_without_steered_twin_is_desync():
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B"), (480, 540), (60,), ((),)),
            Ride("b", "L2", ("B", "C"), (560, 620), (60,), ((),)),
        ),
        stops=customer_stops("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    plan = plan_of(g, {"a": ((475, 535), (None,)), "b": ((555, 615), (None,))})
    pieces = plan_pieces(inst, plan)
    # driver 0 steers ride a; driver 1 rides a bus that nobody steers
    # (the other time copy of the A->B leg), then steers ride b
    ghost = next(a for a in g.arcs if a.family == "steering"
                 and a.ride == "a" and a.id != pieces[0].id
                 and g.nodes[a.tail].time == 485 and g.nodes[a.head].time == 545)
    r0 = assemble_route(g, [("steer", pieces[0].id)])
    r1 = assemble_route(g, [
        ("wait", "A", 475, 485),
        ("deadhead", ghost.twin),
        ("wait", "B", 545, 555),
        ("steer", pieces[1].id),
    ])
    sol = Solution(g, [r0, r1], plan)
    kinds = [v.kind for v in check_feasibility(sol, inst, g)]
    assert "desync" in kinds
    # riding the bus that driver 0 actually steers is legal
    r1_ok = assemble_route(g, [
        ("deadhead", pieces[0].twin),
        ("wait", "B", 535, 555),
        ("steer", pieces[1].id),
    ])
    sol_ok = Solution(g, [r0, r1_ok], plan)
    kinds_ok = [v.kind for v in check_feasibility(sol_ok, inst, g)]
    assert "desync" not in kinds_ok


def test_structure_errors_raise(sequential_pair):
    g = build_graph(sequential_pair)
    sol = construct(sequential_pair, g)
    steer = next(aid for aid in sol.routes[0] if g.arcs[aid].family == "steering")
    wait = next(iter(g.wait_next.values()))
    # an empty route, a dangling pair (a steering arc does not end where it
    # starts), a route with no steering arc and an arc the graph lacks
    for route in ((), (steer, steer), (wait,), (len(g.arcs),)):
        broken = Solution(g, [route], sol.plan)
        with pytest.raises(SolutionStructureError):
            check_feasibility(broken, sequential_pair, g)


def _spanning_rides(prefix, a, b):
    # one driver's day: steer 220, rest 80, steer 120: span 480 -> 900
    return (
        Ride(f"{prefix}0", f"L{prefix}", (a, b), (485, 705), (220,), ((),)),
        Ride(f"{prefix}1", f"L{prefix}2", (b, a), (785, 905), (120,), ((),)),
    )


def test_theta_arithmetic():
    inst = check_instance(Instance(
        rides=_spanning_rides("r", "A", "B"),
        stops=customer_stops("A", "B"),
        theta_tw=10, zeta=0, ell=10,
    ))
    plan = {"r0": ((480, 700), (None,)), "r1": ((780, 900), (None,))}
    sol, g = manual_solution(inst, plan, [[0, 1]])
    # one driver, start 480, return 900: t_dw - 420 = 360
    assert sol.theta() == 360
    assert check_feasibility(sol, inst, g) == []
    two = check_instance(Instance(
        rides=_spanning_rides("r", "A", "B") + _spanning_rides("q", "C", "D"),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g2 = build_graph(two)
    sol2 = construct(two, g2)
    assert sol2.objective == 2
    assert sol2.theta() == 720


def test_theta_zero_at_full_span():
    # one driver spanning exactly t_dw = 780 contributes zero
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B"), (485, 745), (260,), ((),)),
            Ride("b", "L2", ("B", "C"), (795, 1055), (260,), ((),)),
            Ride("c", "L3", ("C", "D"), (1145, 1265), (120,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    sol = construct(inst, g)
    assert sol.objective == 1
    assert check_feasibility(sol, inst, g) == []
    assert sol.route_span(sol.routes[0]) == (480, 1260)
    assert sol.theta() == 0


def test_daily_working_reported():
    # one driver steers a (480-540), waits at B and steers b (1200-1290):
    # a span of 810 minutes, 30 over t_dw = 780, and nothing else broken
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("A", "B"), (485, 545), (60,), ((),)),
            Ride("b", "L2", ("B", "C"), (1205, 1295), (90,), ((),)),
        ),
        stops=customer_stops("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))
    plan = {"a": ((480, 540), (None,)), "b": ((1200, 1290), (None,))}
    sol, g = manual_solution(inst, plan, [[0, 1]])
    assert sol.route_span(sol.routes[0]) == (480, 1290)
    violations = check_feasibility(sol, inst, g)
    assert [(v.kind, v.subject, v.detail) for v in violations] == [
        ("daily_working", "driver 0", 30)]


def _scanned_span(sol, route):
    """The earliest and latest time over every arc of `route`."""
    g = sol.graph
    times = [t for aid in route
             for t in (g.nodes[g.arcs[aid].tail].time, g.nodes[g.arcs[aid].head].time)
             if t is not None]
    return min(times), max(times)


def test_route_span_matches_a_full_scan():
    # the span read from a route's ends against the scan over all its arcs,
    # on construction, local-search and B&B-incumbent solutions
    checked = 0
    for _name, inst in micro_suite(100):
        for policy in POLICIES:
            inst = check_instance(replace(inst, exchange_policy=policy))
            g = build_graph(inst)
            sols = []
            try:
                sols.append(construct(inst, g))
            except ConstructionError:
                pass
            else:
                sols.append(local_search(sols[0], inst, g, SearchConfig()))
            solve(build_model(inst, g, compute_bounds(inst)),
                  SolverConfig(time_limit=60, incumbent_callback=sols.append))
            for sol in sols:
                for route in sol.routes:
                    assert sol.route_span(route) == _scanned_span(sol, route)
                    checked += 1
    assert checked > 1000


def test_plan_round_trip(fig2):
    g = build_graph(fig2)
    sol = construct(fig2, g)
    recovered = plan_from_routes(fig2, g, sol.routes)
    assert recovered == sol.plan


def test_to_dict_writes_a_station_plan_as_times_and_stations():
    # the one place a plan turns back into times: the first start, then each
    # segment's end, which for a station visit is its out-leg's
    inst = station_exchange_fixture()
    g = build_graph(inst)
    sol = construct(inst, g)
    arc_in, arc_out = sol.plan["r1"]
    assert (arc_in.leg, arc_out.leg) == ("in", "out")
    assert sol.to_dict()["rides"] == [
        {"id": "r1", "times": [arc_in.start, arc_out.end], "stations": ["S"]}]
    assert plan_from_routes(inst, g, sol.routes) == sol.plan


def test_serialization_shape(fig2):
    g = build_graph(fig2)
    sol = construct(fig2, g)
    d = sol.to_dict()
    assert d["schema"] == "drsync-solution/1"
    assert d["objective"] == len(d["drivers"])
    assert d["rides"][0]["id"] == "r1"


@pytest.mark.parametrize("query, want", [
    # same base: the start is the goal; the wait renews from t_b (45) on
    (("Q", 600, "Q", 600), (True, False, [])),
    (("Q", 600, "Q", 630), (True, False, [("wait", "Q", 600, 630)])),
    (("Q", 600, "Q", 645), (True, True, [("wait", "Q", 600, 645)])),
    # no way back in time, at the same base or another
    (("Q", 660, "Q", 600), (False, False, None)),
    (("P", 700, "Q", 600), (False, False, None)),
], ids=["same-base-gap-0", "same-base-short-gap", "same-base-break",
        "same-base-reversed", "other-base-reversed"])
def test_connect_edge_cases(sequential_pair, query, want):
    g = build_graph(sequential_pair)
    pieces = plan_pieces(sequential_pair, construct(sequential_pair, g).plan)
    assert ConnectionPlanner(sequential_pair, pieces).connect(*query) == want


def test_connect_rides_a_carrier_then_waits(sequential_pair):
    # from ride a's start to Q at 660: ride along a (120 min, which renews),
    # then wait at Q for the rest
    g = build_graph(sequential_pair)
    pieces = plan_pieces(sequential_pair, construct(sequential_pair, g).plan)
    a = next(p for p in pieces if p.ride == "a")
    plan = [("deadhead", a.twin), ("wait", "Q", a.end, 660)]
    got = ConnectionPlanner(sequential_pair, pieces).connect("P", a.start, "Q", 660)
    assert got == (True, True, plan)


def test_itinerary_cases(sequential_pair):
    # t_b is 45; ride a runs P 480 -> Q 600 and is the one carrier
    g = build_graph(sequential_pair)
    a = next(p for p in plan_pieces(sequential_pair, construct(sequential_pair, g).plan)
             if p.ride == "a")
    units = {"P": [(a.start, a.end, (a,))]}
    hop = ("deadhead", a.twin)

    def way(*query):
        return itinerary(units, 45, *query)

    # same base, no gap: the run carried in goes on, uncapped
    assert way("Q", 600, 100, "Q", 600) == (False, [], 100)
    # a wait ends the run
    assert way("Q", 600, 100, "Q", 610) == (False, [("wait", "Q", 600, 610)], 0)
    # a wait of t_b renews, one minute less does not
    assert way("Q", 600, 0, "Q", 645) == (True, [("wait", "Q", 600, 645)], 0)
    assert way("Q", 600, 0, "Q", 644)[0] is False
    # a hop that ends at the goal time arrives on its run, capped at t_b;
    # a wait after it ends the run
    assert way("P", a.start, 0, "Q", a.end) == (True, [hop], 45)
    assert way("P", a.start, 0, "Q", 660) == (True, [hop, ("wait", "Q", a.end, 660)], 0)
    # no carrier arrives in time, and no way leads back in time
    assert way("P", a.start, 0, "Q", a.end - 1) is None
    assert way("Q", 660, 0, "Q", 600) is None
    assert way("P", 700, 0, "Q", 600) is None


def test_itinerary_takes_a_renewing_way_first():
    # two hops P -> Q: the first arrives sooner but leaves 40 < t_b minutes
    # at Q; waiting 45 at P for the second renews continuous steering
    inst = check_instance(Instance(
        rides=(Ride("x", "L1", ("P", "Q"), (480, 500), (20,), ((),)),
               Ride("y", "L2", ("P", "Q"), (525, 535), (10,), ((),))),
        stops=customer_stops("P", "Q"), theta_tw=0, zeta=0, ell=5))
    g = build_graph(inst)
    pieces = plan_pieces(inst, construct(inst, g).plan)
    units = ConnectionPlanner(inst, pieces).units
    y = next(p for p in pieces if p.ride == "y")
    assert itinerary(units, 45, "P", 480, 0, "Q", 540) == (
        True, [("wait", "P", 480, 525), ("deadhead", y.twin),
               ("wait", "Q", 535, 540)], 0)
