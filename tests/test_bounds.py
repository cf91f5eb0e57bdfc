import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from drsync.bounds import (
    compute_bounds,
    lower_bound_parallel,
    lower_bound_steering,
    lower_bound_windows,
    upper_bound,
)
from drsync.fixtures import (
    MICRO_LIMIT_ARCS,
    MICRO_LIMIT_RIDES,
    dominance_lb1_fixture,
    dominance_lb2_fixture,
    micro_suite,
)
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.instance import POLICIES, Instance, LegalParams, Ride, check_instance
from drsync.oracle import brute_force
from drsync.search import ConstructionError, SearchConfig, construct, local_search
from drsync.solution import check_feasibility
from drsync.timegraph import build_graph

from conftest import customer_stops


def chain_ride(rid, segs, start=480, line="L"):
    deps = [start]
    for s in segs:
        deps.append(deps[-1] + s)
    stops = tuple(f"{rid}S{i}" for i in range(len(segs) + 1))
    return Ride(rid, line, stops, tuple(deps), tuple(segs),
                tuple(() for _ in segs)), customer_stops(*stops)


def build(*ride_specs, **kw):
    rides, stops = [], ()
    for spec in ride_specs:
        r, s = spec
        rides.append(r)
        stops += s
    return check_instance(Instance(rides=tuple(rides), stops=stops,
                                   theta_tw=10, zeta=0, ell=10, **kw))


def test_upper_bound_single_chunk():
    inst = build(chain_ride("a", [120]))
    ub, per = upper_bound(inst)
    assert (ub, per["a"]) == (1, 1)


def test_upper_bound_greedy_split():
    inst = build(chain_ride("a", [180, 240]))
    ub, per = upper_bound(inst)
    assert (ub, per["a"]) == (2, 2)


def test_upper_bound_sums_over_rides():
    inst = build(chain_ride("a", [180, 240]), chain_ride("b", [180, 240], start=900))
    assert upper_bound(inst)[0] == 4


def test_upper_bound_oversized_leg_chunks():
    # a 300-minute leg must count ceil(300/270) = 2 groups on its own
    inst = build(chain_ride("a", [100, 300]))
    assert upper_bound(inst)[0] == 3


def test_lb1_values():
    assert lower_bound_steering(build(chain_ride("a", [240, 240, 120]))) == 1
    long = build(chain_ride("a", [240, 240, 220], start=480),
                 chain_ride("b", [240, 240, 200], start=1600))
    assert lower_bound_steering(long) == 3   # ceil(1380/660)
    empty = Instance(rides=(), stops=(), theta_tw=10, zeta=0, ell=10)
    assert lower_bound_steering(empty) == 0


def test_lb2_parallel(parallel_triplet, sequential_pair):
    assert lower_bound_parallel(parallel_triplet) == 3
    assert lower_bound_parallel(sequential_pair) == 1


def test_lb2_empty_mandatory_interval_still_valid():
    # a 5-minute ride can be shifted out of any single minute: counts nowhere
    inst = build(chain_ride("a", [5]))
    lb2 = lower_bound_parallel(inst)
    assert lb2 == 0
    res = brute_force(inst)
    assert res.optimum == 1       # the bound stays valid: 0 <= 1


def test_combined():
    # the combined bound is the largest of lb1, lb2 and lb3, whichever binds
    a, a_stops = chain_ride("a", [200, 200], start=480)
    b, b_stops = chain_ride("b", [240], start=1920, line="M")
    windows_bind = build((a, a_stops), (b, b_stops))
    for inst in (dominance_lb1_fixture(), dominance_lb2_fixture(), windows_bind,
                 build(chain_ride("a", [5]))):
        rep = compute_bounds(inst)
        assert rep.lb == max(rep.lb1, rep.lb2, rep.lb3)
        assert rep.lb3 >= max(rep.lb1, rep.lb2)
    rep = compute_bounds(windows_bind)
    assert rep.lb == rep.lb3 > max(rep.lb1, rep.lb2)


def test_dominance_both_directions():
    a = compute_bounds(dominance_lb1_fixture())
    assert a.lb1 > a.lb2
    b = compute_bounds(dominance_lb2_fixture())
    assert b.lb2 > b.lb1
    assert a.lb == a.lb1 and b.lb == b.lb2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_monotone_under_ride_addition(seed):
    inst, _ = generate_synthetic(GeneratorConfig(n_lines=2, rides_per_line=2), seed)
    full = compute_bounds(inst)
    fewer = check_instance(replace(inst, rides=inst.rides[:-1]))
    part = compute_bounds(fewer)
    assert part.ub <= full.ub
    assert part.lb1 <= full.lb1
    assert part.lb2 <= full.lb2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 3000))
def test_bound_report_invariants(seed):
    inst, _ = generate_synthetic(GeneratorConfig(), seed)
    rep = compute_bounds(inst)
    assert rep.lb == max(rep.lb1, rep.lb2, rep.lb3)
    assert rep.lb3 >= max(rep.lb1, rep.lb2)
    assert rep.lb <= rep.ub
    assert rep.lb >= 1


# -- the time-window bound (lb3) ---------------------------------------------

MICRO_SHAPES = [
    GeneratorConfig(n_lines=1, rides_per_line=1, segments_per_ride=2,
                    drive_min=60, drive_max=260),
    GeneratorConfig(n_lines=1, rides_per_line=2, segments_per_ride=2,
                    drive_min=40, drive_max=200, overlap="sequential"),
    GeneratorConfig(n_lines=2, rides_per_line=1, segments_per_ride=2,
                    stations_per_segment=0, drive_min=60, drive_max=240,
                    overlap="parallel"),
    GeneratorConfig(n_lines=2, rides_per_line=2, segments_per_ride=1,
                    drive_min=30, drive_max=150),
    GeneratorConfig(n_lines=1, rides_per_line=3, segments_per_ride=1,
                    stations_per_segment=0, drive_min=90, drive_max=250,
                    overlap="sequential"),
    GeneratorConfig(n_lines=1, rides_per_line=2, segments_per_ride=3,
                    drive_min=30, drive_max=90, overlap="sequential"),
]
# shorter limits, so that micro instances also chain windows a working span apart
TIGHT = LegalParams(t_cs=150, t_b=30, t_ds=240, t_dw=360)


def _shape(cfg, policy, legal):
    if legal == TIGHT:
        cfg = replace(cfg, drive_min=min(cfg.drive_min, 60), drive_max=min(cfg.drive_max, 150))
    return replace(cfg, exchange_policy=policy, legal=legal)


def _naive_lb3(inst):
    """lb3 by listing every window and every instant of the horizon (small instances only)."""
    legal, half = inst.legal, inst.theta_tw // 2
    legs = [(r.departures[k] - half, r.departures[k + 1] + half, d)
            for r in inst.rides for k, d in enumerate(r.segment_minutes)]
    if not legs:
        return 0
    period = legal.t_cs + legal.t_b

    def cap(w):
        return min(legal.t_ds, w // period * legal.t_cs + min(w % period, legal.t_cs))

    windows = []
    for a in {s for s, _e, _d in legs}:
        for b in {e for _s, e, _d in legs}:
            if b > a:
                minutes = sum(max(0, min(d, e - s) - max(0, a - s) - max(0, e - b))
                              for s, e, d in legs)
                windows.append((a, b, -(-minutes // cap(b - a))))
    first = min(s for s, _e, _d in legs)
    last = max(e for _s, e, _d in legs)
    # (latest start, earliest end, crew) of each ride: its whole crew rides
    # along under "none", so it counts as many drivers as it needs at least
    underway = []
    for r in inst.rides:
        crew = 1
        if inst.exchange_policy == "none":
            span = r.departures[-1] - r.departures[0] + 2 * half
            crew = max(1, -(-sum(r.segment_minutes) // cap(span)))
        underway.append((r.departures[0] + half, r.departures[-1] - half, crew))
    for t in range(first, last + 1):
        level = sum(crew for start, end, crew in underway if start <= t < end)
        if level:
            windows.append((t, t, level))
    windows.sort(key=lambda w: w[1])
    ends = [b for _a, b, _n in windows]
    best = [0]          # best[i]: best chain over windows[:i]
    for a, b, need in windows:
        before = bisect_left(ends, a - legal.t_dw)
        best.append(max(best[-1], need + best[before]))
    total = sum(d for _s, _e, d in legs)
    return max(best[-1], -(-total // cap(last - first)))


SWEEP_SHAPES = [(2, 2, 2), (2, 2, 4), (3, 2, 3), (2, 3, 3)]


@pytest.mark.parametrize("shape", SWEEP_SHAPES)
def test_lb3_sweep_matches_naive_windows(shape):
    # the micro shapes are dealt out over the parameters: each instance once
    micro_shapes = MICRO_SHAPES[SWEEP_SHAPES.index(shape)::len(SWEEP_SHAPES)]
    for policy in POLICIES:
        for seed in range(8):
            inst = generate_synthetic(GeneratorConfig(*shape, exchange_policy=policy), seed)[0]
            assert lower_bound_windows(inst)[0] == _naive_lb3(inst)
        for cfg in micro_shapes:
            for seed in range(6):
                for legal in (LegalParams(), TIGHT):
                    inst = generate_synthetic(_shape(cfg, policy, legal), seed)[0]
                    assert lower_bound_windows(inst)[0] == _naive_lb3(inst)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shape=st.sampled_from(MICRO_SHAPES), policy=st.sampled_from(POLICIES),
       legal=st.sampled_from([LegalParams(), TIGHT]), seed=st.integers(0, 100_000))
def test_lb3_never_exceeds_the_oracle_optimum(shape, policy, legal, seed):
    inst, stats = generate_synthetic(_shape(shape, policy, legal), seed)
    assume(len(inst.rides) <= MICRO_LIMIT_RIDES and stats.n_arcs <= MICRO_LIMIT_ARCS)
    rep = compute_bounds(inst)
    assert rep.lb3 >= max(rep.lb1, rep.lb2)
    res = brute_force(inst)
    if res.optimum is not None:
        assert rep.lb3 <= res.optimum


@pytest.mark.parametrize("policy", POLICIES)
def test_lb3_never_exceeds_a_certified_search_objective(policy):
    seen = 0
    for shape in [(2, 2, 4), (3, 2, 3), (2, 3, 3), (3, 3, 3), (4, 4, 3)]:
        for seed in range(4):
            inst = generate_synthetic(GeneratorConfig(*shape, exchange_policy=policy), seed)[0]
            rep = compute_bounds(inst)
            assert rep.lb3 >= max(rep.lb1, rep.lb2)
            g = build_graph(inst)
            try:
                sol = local_search(construct(inst, g), inst, g, SearchConfig(seed=0))
            except ConstructionError:
                continue
            assert check_feasibility(sol, inst, g) == []
            assert rep.lb3 <= sol.objective
            seen += 1
    assert seen >= 10


def test_lb3_ignores_ride_order():
    for shape in [(3, 3, 3), (4, 4, 3), (6, 4, 4)]:
        inst = generate_synthetic(GeneratorConfig(*shape), 7)[0]
        want = lower_bound_windows(inst)
        rides = list(inst.rides)
        for seed in range(3):
            random.Random(seed).shuffle(rides)
            assert lower_bound_windows(replace(inst, rides=tuple(rides))) == want


def test_lb3_hand_built_windows():
    # day one: a 400-minute ride whose stop windows leave no room for a
    # break, so two drivers steer inside [475, 885]; day two, more than a
    # working span later: one 240-minute ride. cLB is 1, lb3 is 3.
    a, a_stops = chain_ride("a", [200, 200], start=480)
    b, b_stops = chain_ride("b", [240], start=1920, line="M")
    inst = build((a, a_stops), (b, b_stops))
    rep = compute_bounds(inst)
    assert (rep.lb1, rep.lb2, rep.lb3, rep.lb) == (1, 1, 3, 3)
    # the day-two ride is underway from 1925 on; that instant binds first
    assert rep.busiest_interval == ((475, 885, 2), (1925, 1925, 1))
    assert brute_force(inst).optimum == 3


def test_lb3_span_ends_chain_rides_a_working_span_apart():
    # two 100-minute rides on separate lines: their starts and their leg
    # windows lie less than a working span (780) apart, but the first
    # ride's earliest mandatory minute (485) and the second's latest (1274)
    # lie 789 apart. Only the instant at the end of the second ride's span
    # chains the two; at change points alone lb3 was 1.
    inst = build(chain_ride("a", [100], start=480),
                 chain_ride("b", [100], start=1180, line="M"))
    rep = compute_bounds(inst)
    assert (rep.lb1, rep.lb2, rep.lb3) == (1, 1, 2)
    assert rep.busiest_interval == ((485, 485, 1), (1274, 1274, 1))
    assert brute_force(inst).optimum == 2


def test_lb3_counts_whole_crews_under_no_exchange():
    # under "none" every crew member rides the whole ride, so an instant
    # counts each ride underway by its minimum crew; lb2 stays the plain count
    inst = generate_synthetic(GeneratorConfig(2, 2, 4, exchange_policy="none"), 1)[0]
    rep = compute_bounds(inst)
    assert (rep.lb1, rep.lb2, rep.lb3) == (2, 2, 5)
    assert rep.busiest_interval == ((365, 365, 3), (1156, 1156, 2))
    handover = compute_bounds(replace(inst, exchange_policy="regular_stops"))
    assert (handover.lb2, handover.lb3) == (2, 3)


@pytest.mark.parametrize("policy", POLICIES)
def test_lb_never_exceeds_the_oracle_on_the_micro_suite(policy):
    checked = 0
    for name, inst in micro_suite(300):
        inst = check_instance(replace(inst, exchange_policy=policy))
        res = brute_force(inst)
        if res.optimum is not None:
            assert compute_bounds(inst).lb <= res.optimum, name
            checked += 1
    assert checked >= 290


@pytest.mark.parametrize("policy", POLICIES)
def test_lb3_sweep_prunes_only_dominated_ends(policy):
    # a start whose chain value is unchanged skips only the ends the start
    # before it already tried with the saturated cap (module docstring).
    # A one-line day long enough that a window past the saturated cap sets
    # lb3: pruning every start that way gives 3
    inst = generate_synthetic(GeneratorConfig(1, 8, 3, exchange_policy=policy), 13)[0]
    assert lower_bound_windows(inst)[0] == _naive_lb3(inst) == 4
    # five one-leg rides in [300, 1049] (h = 190, so none is ever mandatorily
    # underway), one of them from 299: 1320 mandatory minutes in [299, 1049],
    # 1319 in [300, 1049]. The second start has the first's chain value 0, and
    # its window lasts 749 minutes, one short of the saturated cap: 659 minutes
    # there, so it needs ceil(1319 / 659) = 3 drivers where [299, 1049] and
    # lb1 need ceil(1320 / 660) = 2. Pruning that end too gives 2
    half = 190
    rides, stops = [], ()
    for i, s in enumerate((299, 300, 300, 300, 300)):
        ids = (f"r{i}a", f"r{i}b")
        rides.append(Ride(f"r{i}", "L", ids, (s + half, 1049 - half), (264,), ((),)))
        stops += customer_stops(*ids)
    inst = check_instance(Instance(rides=tuple(rides), stops=stops, theta_tw=2 * half,
                                   zeta=0, ell=10, exchange_policy=policy))
    assert lower_bound_windows(inst) == (3, ((300, 1049, 3),))
    assert _naive_lb3(inst) == 3


LB3_PINS = {
    "none": "a358896792ba323959fda7ee08ed07865834ea637812bfc7d4fc119522c0d82e",
    "regular_stops": "0df14f6f50c642dc196b285a99a2b55158b39290c0a8f37efad3df08252bea18",
    "regular_and_intermediate":
        "0df14f6f50c642dc196b285a99a2b55158b39290c0a8f37efad3df08252bea18",
}
LADDER = ((2, 2, 2), (3, 3, 3), (4, 4, 3), (6, 4, 4), (6, 6, 4), (8, 6, 4))


@pytest.mark.parametrize("policy", POLICIES)
def test_lb3_values_and_window_chains_are_pinned(policy):
    # the sweep's whole output, lb3 and the chain of windows that
    # `drsync bounds` prints, on micro_suite(300), the ladder at seeds 7-8
    # and the micro shapes under TIGHT. Only "none" weighs crews, so the two
    # exchange policies share a digest
    instances = [check_instance(replace(inst, exchange_policy=policy))
                 for _name, inst in micro_suite(300)]
    instances += [generate_synthetic(GeneratorConfig(*shape, exchange_policy=policy), seed)[0]
                  for shape in LADDER for seed in (7, 8)]
    instances += [generate_synthetic(_shape(cfg, policy, TIGHT), seed)[0]
                  for cfg in MICRO_SHAPES for seed in range(6)]
    h = hashlib.sha256()
    for inst in instances:
        h.update(json.dumps(lower_bound_windows(inst)).encode())
    assert h.hexdigest() == LB3_PINS[policy]
