from dataclasses import replace

from hypothesis import given, settings, strategies as st

from drsync.bounds import (
    combined_lower_bound,
    compute_bounds,
    lower_bound_parallel,
    lower_bound_steering,
    upper_bound,
)
from drsync.fixtures import dominance_lb1_fixture, dominance_lb2_fixture
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.instance import Instance, Ride, check_instance
from drsync.oracle import brute_force

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
    assert lower_bound_parallel(parallel_triplet)[0] == 3
    assert lower_bound_parallel(sequential_pair)[0] == 1


def test_lb2_empty_mandatory_interval_still_valid():
    # a 5-minute ride can be shifted out of any single minute: counts nowhere
    inst = build(chain_ride("a", [5]))
    lb2, busiest = lower_bound_parallel(inst)
    assert (lb2, busiest) == (0, None)
    res = brute_force(inst)
    assert res.optimum == 1       # the bound stays valid: 0 <= 1


def test_combined():
    assert combined_lower_bound(3, 5) == 5
    assert combined_lower_bound(5, 3) == 5
    assert combined_lower_bound(0, 0) == 0


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
    assert rep.lb == max(rep.lb1, rep.lb2)
    assert rep.lb <= rep.ub
    assert rep.lb >= 1
