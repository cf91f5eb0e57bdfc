import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from drsync.fixtures import gap_fixture, micro_suite
from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.instance import (
    POLICIES,
    Instance,
    LegalParams,
    Ride,
    StationAccess,
    Stop,
    check_instance,
    decompose,
)
from drsync.pipeline import DbmhConfig, run
from drsync.search import ConstructionError, SearchConfig, _shifted, construct, local_search
from drsync.solution import plan_pieces
from drsync.timegraph import (
    TimeGraph,
    build_graph,
    graph_stats,
    graph_to_dict,
    graph_to_dot,
    size_class,
)

from conftest import customer_stops, ride_times


def arc_view(g, arc):
    return (g.nodes[arc.tail].base, g.nodes[arc.tail].time,
            g.nodes[arc.head].base, g.nodes[arc.head].time)


def test_fig2_nodes_exact(fig2):
    g = build_graph(fig2)
    timed = {(n.base, n.time) for n in g.nodes}
    assert timed == {("i", 475), ("i", 485), ("j", 535), ("j", 545), ("s", 505)}
    assert len(g.nodes) == 5    # every node a located copy: no source or sink


def test_fig2_arcs_exact(fig2):
    g = build_graph(fig2)
    steering = {arc_view(g, a) for a in g.arcs if a.family == "steering"}
    assert steering == {
        ("i", 475, "j", 535), ("i", 475, "j", 545), ("i", 485, "j", 545),
        ("i", 475, "s", 505), ("s", 505, "j", 545),
    }
    deadheads = {arc_view(g, a) for a in g.arcs if a.family == "deadhead"}
    assert deadheads == steering
    waits = {arc_view(g, a) for a in g.arcs if a.family == "waiting"}
    assert waits == {("i", 475, "i", 485), ("j", 535, "j", 545)}
    families = {}
    for a in g.arcs:
        families[a.family] = families.get(a.family, 0) + 1
    assert families == {"steering": 5, "deadhead": 5, "waiting": 2}
    assert len(g.arcs) == 12
    # the dump writes only what the graph holds: the depot stays implicit
    dumped = {}
    for a in graph_to_dict(g)["arcs"]:
        dumped[a["family"]] = dumped.get(a["family"], 0) + 1
    assert dumped == families


def test_copy_counts(fig2):
    g = build_graph(fig2)
    assert len(g.copies["i"]) == 2           # theta/ell + 1 = 2
    wide = check_instance(replace(fig2, theta_tw=30))
    g30 = build_graph(wide)
    assert len(g30.copies["i"]) == 4
    # the station always has strictly fewer copies than its customers
    assert len(g.copies["s"]) == 1
    assert len(g30.copies["s"]) < len(g30.copies["i"])


def test_long_segment_has_no_direct_arc():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 780), (300,), ((),)),),
        stops=customer_stops("A", "B"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    assert not [a for a in g.arcs if a.family == "steering"]


def test_long_wait_carries_renewal():
    inst = check_instance(Instance(
        rides=(
            Ride("a", "L1", ("P", "Q"), (480, 540), (60,), ((),)),
            Ride("b", "L1", ("Q", "P"), (600, 660), (60,), ((),)),
        ),
        stops=customer_stops("P", "Q"),
        theta_tw=10, zeta=0, ell=10,
    ))
    g = build_graph(inst)
    # Q has copies at 535..605; the 535->545 gap is 10, 545->595 gap is 50
    waits = [(a["duration"], a["consumption"]) for a in graph_to_dict(g)["arcs"]
             if a["family"] == "waiting" and g.nodes[a["tail"]].base == "Q"]
    assert (50, -inst.legal.t_cs) in waits
    assert (10, 0) in waits


def test_station_without_copies():
    # detour fits, but the inbound drive alone exceeds continuous steering,
    # so no station copy is ever admissible
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 785), (300,),
                    ((StationAccess("S", 280, 25),),)),),
        stops=customer_stops("A", "B") + (Stop("S", "station"),),
        theta_tw=10, zeta=10, ell=10,
    ))
    g = build_graph(inst)
    assert "S" not in g.copies
    assert not [a for a in g.arcs if a.station == "S"]


def test_no_arc_drives_to_a_station_copy_another_ride_made_past_the_cap():
    # ride a's in-drive to S exceeds continuous steering; ride b makes the
    # copy S@755 that a's in-leg from A@475 would end at. No arc may use
    # a's access: a steering arc above t_cs fits no driver, and
    # construction, which reads plans off the arcs, would hire drivers for
    # it without end
    inst = check_instance(Instance(
        rides=(Ride("a", "L1", ("A", "B"), (480, 800), (320,),
                    ((StationAccess("S", 280, 45),),)),
               Ride("b", "L2", ("C", "D"), (730, 790), (60,),
                    ((StationAccess("S", 30, 35),),))),
        stops=customer_stops("A", "B", "C", "D") + (Stop("S", "station"),),
        theta_tw=10, zeta=10, ell=10,
    ))
    g = build_graph(inst)
    assert ("S", 755) in g.node_at
    assert max(a.duration for a in g.arcs if a.family == "steering") <= inst.legal.t_cs
    assert ("a", 0, "S") not in g.seg_in
    with pytest.raises(ConstructionError):
        construct(inst, g)


def test_size_classes():
    assert size_class(999) == "small"
    assert size_class(1000) == "medium"
    assert size_class(4999) == "medium"
    assert size_class(5000) == "large"


def test_stats(fig2):
    stats = graph_stats(build_graph(fig2))
    assert (stats.n_nodes, stats.n_arcs, stats.size_class) == (7, 22, "small")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lines=st.integers(1, 3), rides=st.integers(1, 3),
       segments=st.integers(1, 3), stations=st.integers(0, 2),
       window=st.sampled_from([(0, 10), (10, 10), (10, 5), (20, 10), (30, 5)]),
       policy=st.sampled_from(POLICIES))
def test_every_node_is_located_and_starts_are_the_first_stop_grids(
        seed, lines, rides, segments, stations, window, policy):
    theta_tw, ell = window
    inst = synthetic_instance(GeneratorConfig(
        lines, rides, segments, stations_per_segment=stations, theta_tw=theta_tw,
        zeta=theta_tw, ell=ell, exchange_policy=policy), seed)
    g = build_graph(inst)
    assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
    assert all(type(n.time) is int for n in g.nodes)
    assert {(n.base, n.time): n.id for n in g.nodes} == g.node_at
    # each ride's start grid, from the instance alone
    half = inst.theta_tw // 2
    assert list(g.starts) == [r.id for r in inst.rides]
    for r in inst.rides:
        dep0 = r.departures[0]
        assert g.starts[r.id] == [(t, g.node_at[(r.stops[0], t)])
                                  for t in range(dep0 - half, dep0 + half + 1, ell)]
    # the paper's size: the located copies, a source and a sink, and a
    # source and a sink arc for every copy
    stats = graph_stats(g)
    assert (stats.n_nodes, stats.n_arcs) == (len(g.node_at) + 2,
                                            len(g.arcs) + 2 * len(g.node_at))
    assert stats.size_class == size_class(stats.n_arcs)


def test_determinism(fig2):
    assert graph_to_dict(build_graph(fig2)) == graph_to_dict(build_graph(fig2))


def test_dot_output(fig2):
    dot = graph_to_dot(build_graph(fig2))
    assert dot.startswith("digraph")
    assert "i@475" in dot


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_time_monotonicity_and_twins(seed):
    inst = synthetic_instance(GeneratorConfig(stations_per_segment=1), seed)
    g = build_graph(inst)
    modes = [d["mode"] for d in graph_to_dict(g)["arcs"]]
    for a in g.arcs:
        assert g.nodes[a.head].time - g.nodes[a.tail].time == a.duration > 0
        if a.family == "steering":
            assert modes[a.id] == 1
            assert a.duration <= inst.legal.t_cs
            twin = g.arcs[a.twin]
            assert twin.family == "deadhead"
            assert (twin.tail, twin.head) == (a.tail, a.head)
        else:
            assert modes[a.id] == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_station_copy_law(seed):
    # one ride per line so copy sets per base equal copy sets per segment
    inst = synthetic_instance(
        GeneratorConfig(rides_per_line=1, stations_per_segment=2, theta_tw=20),
        seed)
    g = build_graph(inst)
    per_customer = inst.theta_tw // inst.ell + 1
    for stop in inst.stops:
        if stop.kind != "station":
            continue
        n = len(g.copies.get(stop.id, []))
        assert n <= inst.theta_tw // inst.ell
        assert n < per_customer


def test_arcs_from_one_tail_come_by_rising_head_time():
    # search._leg_end takes the first arc from a tail that ends late enough
    # as the earliest, and the first in-arc from a tail as the only one:
    # seg_direct and seg_out list each tail's arcs by rising head time, and
    # seg_in holds at most one arc per tail
    insts = [inst for _name, inst in micro_suite(100)]
    insts += [synthetic_instance(GeneratorConfig(
        2, 3, 3, stations_per_segment=3, drive_min=60, drive_max=260,
        theta_tw=30, zeta=30, ell=5), seed) for seed in range(6)]
    multi = {"direct": 0, "out": 0}
    for inst in insts:
        g = build_graph(inst)
        for leg, index in (("direct", g.seg_direct), ("out", g.seg_out), ("in", g.seg_in)):
            for ids in index.values():
                heads: dict[int, list[int]] = {}
                for a in ids:
                    heads.setdefault(g.arcs[a].tail, []).append(g.nodes[g.arcs[a].head].time)
                for times in heads.values():
                    assert times == sorted(set(times))
                    if leg == "in":
                        assert len(times) == 1
                    else:
                        multi[leg] += len(times) > 1
    assert multi["direct"] > 1000 and multi["out"] > 800


def _assert_as_built(graph, instance):
    # the solvers hold the graph's steering arcs as their pieces; the `arcs`
    # slot compares every field of every arc, the located ends included
    fresh = build_graph(instance)
    assert graph_to_dict(graph) == graph_to_dict(fresh)
    for name in TimeGraph.__slots__:   # the indexes too
        assert getattr(graph, name) == getattr(fresh, name), name


def test_solving_leaves_the_graph_as_built():
    # nodes and arcs are not frozen, so nothing but this test stops a solver
    # stage from editing the graph it shares with every other stage
    inst = synthetic_instance(GeneratorConfig(4, 4, 3), 7)
    g = build_graph(inst)
    local_search(construct(inst, g), inst, g, SearchConfig(seed=0))
    _assert_as_built(g, inst)
    hub = gap_fixture(3, hub=True)
    # with DBI its cap solves, without it the final B&B and its LS callback
    for config, log in ((DbmhConfig(), "dbi_log"), (DbmhConfig(use_dbi=False), "mip_log")):
        report = run(hub, config)
        assert getattr(report, log)     # a B&B solve ran
        _assert_as_built(report.solution.graph, hub)


# the ROADMAP ladder rungs and one long line, all at generator seed 7
LADDER = ((2, 2, 2), (3, 3, 3), (4, 4, 3), (6, 4, 4), (6, 6, 4), (8, 6, 4), (8, 12, 4),
          (1, 24, 4))

# sha256 over each graph's _graph_digest, in instance order, per instance set
# and exchange policy; the station-free policies build the same graphs
GRAPH_AND_INDEX_PINS = {
    ("micro", "none"): "a92da408c3ffab0631594f903c7d0e2dd5ebb308b6fad364b9f2b8f07a76dcc6",
    ("micro", "regular_stops"):
        "a92da408c3ffab0631594f903c7d0e2dd5ebb308b6fad364b9f2b8f07a76dcc6",
    ("micro", "regular_and_intermediate"):
        "92ef383841e6485a9b467ba33e87e7b14dc7d9d7d14078a25ce7f58297ac1eca",
    ("ladder", "none"): "2e03c0a480f90382b94d20b74ee0331e7e3eba964d85e787e28acddb03eddef7",
    ("ladder", "regular_stops"):
        "2e03c0a480f90382b94d20b74ee0331e7e3eba964d85e787e28acddb03eddef7",
    ("ladder", "regular_and_intermediate"):
        "784dbd0edefb30b9e4e8ae54ea1bbfafb79a0282c0da730cd928df333d59b6c3",
}


def _located_end_instances():
    """micro_suite(100), the ladder and four wide-window instances with
    three stations a segment, whose legs of up to 260 minutes against a
    continuous-steering cap of 200 need stations."""
    insts = [inst for _name, inst in micro_suite(100)]
    insts += [synthetic_instance(GeneratorConfig(*shape), 7) for shape in LADDER]
    wide = GeneratorConfig(2, 3, 3, stations_per_segment=3, drive_min=120, drive_max=260,
                           theta_tw=30, zeta=30, ell=5)
    insts += [replace(synthetic_instance(wide, seed), legal=LegalParams(t_cs=200))
              for seed in range(4)]
    return insts


def test_every_arc_carries_its_located_ends():
    families = set()
    for inst in _located_end_instances():
        g = build_graph(inst)
        for a in g.arcs:
            tail, head = g.nodes[a.tail], g.nodes[a.head]
            assert (a.from_base, a.start, a.to_base, a.end) == \
                (tail.base, tail.time, head.base, head.time)
            assert a.end - a.start == a.duration
            families.add(a.family)
    assert families == {"steering", "deadhead", "waiting"}


def test_pieces_are_the_graphs_own_steering_arcs():
    via = 0
    for inst in _located_end_instances():
        g = build_graph(inst)
        try:
            plan = construct(inst, g).plan
        except ConstructionError:
            continue
        pieces = plan_pieces(inst, plan)
        assert all(p is g.arcs[p.id] and p.family == "steering" for p in pieces)
        via += sum(p.station is not None for p in pieces)
        for ride in inst.rides:
            # a ride's arcs in ride order, from its first stop to its last,
            # each leg starting where the one before ends
            own = plan[ride.id]
            assert all(p.ride == ride.id for p in own)
            assert (own[0].segment, own[-1].segment) == (0, ride.n_segments - 1)
            assert own[0].leg != "out" and own[-1].leg != "in"
            assert all(a.head == b.tail for a, b in zip(own, own[1:]))
            assert list(own) == [p for p in pieces if p.ride == ride.id]
    assert via > 0


def _shift_plans():
    """The CH and LS plans of micro_suite(300), of the first six ladder rungs
    at seeds 7-8, and of station-heavy instances (2x2x3 and 3x3x3, three
    stations a segment, legs of 200-270 minutes, seeds 0-11), those also
    with continuous steering lowered to 230 so that construction places
    stations; the parts of each under every policy."""
    insts = [inst for _name, inst in micro_suite(300)]
    insts += [synthetic_instance(GeneratorConfig(*shape), seed)
              for shape in LADDER[:6] for seed in (7, 8)]
    for n in (2, 3):
        heavy = GeneratorConfig(n, n, 3, stations_per_segment=3, drive_min=200, drive_max=270,
                                zeta=30, theta_tw=30)
        for seed in range(12):
            inst = synthetic_instance(heavy, seed)
            insts += [inst, replace(inst, legal=LegalParams(t_cs=230))]
    for inst in insts:
        for policy in POLICIES:
            for part in decompose(check_instance(replace(inst, exchange_policy=policy))):
                g = build_graph(part)
                try:
                    ch = construct(part, g)
                except ConstructionError:
                    continue
                for sol in (ch, local_search(ch, part, g, SearchConfig())):
                    yield part, g, sol.plan


def test_a_shifted_plan_has_its_arcs_exactly_inside_its_windows():
    # postpone and prepone look a moved ride up by its own arcs: the graph
    # has every arc moved by a whole number of grid steps exactly when every
    # moved stop time stays in its window, dep +- theta_tw // 2, read here
    # off the instance. Node copies would not do: another ride's window may
    # give a stop a copy outside this ride's
    checked = via = shared = 0
    for inst, g, plan in _shift_plans():
        half = inst.theta_tw // 2
        reach = inst.theta_tw // inst.ell + 1
        for ride in inst.rides:
            pieces = plan[ride.id]
            via += any(p.station is not None for p in pieces)
            for delta in range(-reach * inst.ell, (reach + 1) * inst.ell, inst.ell):
                inside = all(abs(t + delta - dep) <= half
                             for t, dep in zip(ride_times(pieces), ride.departures))
                moved = _shifted(g, pieces, delta)
                assert (moved is not None) == inside, (ride.id, delta)
                if moved is not None:
                    assert [(p.segment, p.leg, p.station, p.start - delta, p.end - delta)
                            for p in moved] == [(p.segment, p.leg, p.station, p.start, p.end)
                                                for p in pieces]
                shared += not inside and all(
                    (p.from_base, p.start + delta) in g.node_at
                    and (p.to_base, p.end + delta) in g.node_at for p in pieces)
                checked += 1
    assert checked > 40_000 and via > 200 and shared > 500


def _graph_digest(g) -> str:
    """sha256 of graph_to_dict plus every index, each in its insertion order."""
    def entries(index):
        return [[list(k) if isinstance(k, tuple) else k, v] for k, v in index.items()]

    blob = {
        "graph": graph_to_dict(g),
        "indexes": {name: entries(getattr(g, name)) for name in (
            "node_at", "copies", "starts", "seg_direct", "seg_in", "seg_out", "steer_idx",
            "wait_next")},
    }
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name, policy", list(GRAPH_AND_INDEX_PINS))
def test_graph_and_indexes_are_pinned(name, policy):
    if name == "micro":
        insts = [inst for _, inst in micro_suite(100)]
    else:
        insts = [synthetic_instance(GeneratorConfig(*shape), 7) for shape in LADDER]
    h = hashlib.sha256()
    for inst in insts:
        h.update(_graph_digest(build_graph(replace(inst, exchange_policy=policy))).encode())
    assert h.hexdigest() == GRAPH_AND_INDEX_PINS[name, policy]
