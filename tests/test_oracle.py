import hashlib
import inspect
from dataclasses import replace

import pytest

from drsync.bounds import compute_bounds
from drsync.cli import build_parser
from drsync.fixtures import (
    MICRO_LIMIT_ARCS,
    MICRO_LIMIT_RIDES,
    exchange_fixture,
    micro_suite,
    station_exchange_fixture,
)
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.instance import Instance, Ride, check_instance
from drsync.oracle import OracleSizeError, brute_force
from drsync.solution import check_feasibility
from drsync.timegraph import build_graph, graph_stats

from conftest import customer_stops


def test_fig2_optimum(fig2):
    res = brute_force(fig2)
    assert res.optimum == 1
    assert res.explored > 0
    assert check_feasibility(res.witness, fig2, build_graph(fig2)) == []


def test_parallel_triplet(parallel_triplet):
    assert brute_force(parallel_triplet).optimum == 3


def test_infeasible_segment():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 780), (300,), ((),)),),
        stops=customer_stops("A", "B"),
        theta_tw=10, zeta=0, ell=10,
    ))
    res = brute_force(inst)
    assert res.optimum is None
    assert not res.feasible
    assert res.witness is None


def test_refusal_on_size(parallel_triplet):
    with pytest.raises(OracleSizeError, match="rides"):
        brute_force(parallel_triplet, max_rides=2)
    with pytest.raises(OracleSizeError, match="arcs"):
        brute_force(parallel_triplet, max_arcs=10)


def test_bounds_sandwich(fig2, sequential_pair, parallel_triplet):
    for inst in (fig2, sequential_pair, parallel_triplet):
        b = compute_bounds(inst)
        res = brute_force(inst)
        assert b.lb <= res.optimum <= b.ub


def test_policy_inclusion_chain():
    for inst in (exchange_fixture(), station_exchange_fixture()):
        full = brute_force(inst).optimum
        rs = brute_force(replace(inst, exchange_policy="regular_stops")).optimum
        none = brute_force(replace(inst, exchange_policy="none")).optimum
        big = 1 << 20
        assert (full if full is not None else big) <= (rs if rs is not None else big)
        assert (rs if rs is not None else big) <= (none if none is not None else big)


def test_exchange_fixture_direction():
    inst = exchange_fixture()
    assert brute_force(inst).optimum == 2
    assert brute_force(replace(inst, exchange_policy="none")).optimum == 3


def test_station_split_needs_full_policy():
    inst = station_exchange_fixture()
    assert brute_force(inst).optimum == 2
    assert brute_force(replace(inst, exchange_policy="regular_stops")).optimum is None


def test_window_widening_never_hurts():
    for seed in range(6):
        inst, stats = generate_synthetic(GeneratorConfig(
            n_lines=1, rides_per_line=2, segments_per_ride=2,
            stations_per_segment=0, drive_min=40, drive_max=200,
            overlap="sequential"), seed)
        narrow = brute_force(inst).optimum
        wide = brute_force(replace(inst, theta_tw=30), max_arcs=900).optimum
        if narrow is None:
            continue
        assert wide is not None and wide <= narrow


def test_empty_instance():
    inst = Instance(rides=(), stops=(), theta_tw=10, zeta=0, ell=10)
    res = brute_force(inst)
    assert res.optimum == 0
    assert res.witness.objective == 0


def test_micro_suite_stays_within_the_oracle_limits():
    # micro_suite filters nothing: its crafted instances and generated shapes
    # (at most 4 rides, graphs far below the arc limit) must be ones the
    # oracle accepts with its default limits, at the default master seed and
    # at the benchmark's micro set of seed 2027
    defaults = inspect.signature(brute_force).parameters
    assert MICRO_LIMIT_RIDES == defaults["max_rides"].default
    assert MICRO_LIMIT_ARCS == defaults["max_arcs"].default
    # and `drsync oracle` applies the same limits when given none
    args = build_parser().parse_args(["oracle", "instance.json"])
    assert (args.max_rides, args.max_arcs) == (MICRO_LIMIT_RIDES, MICRO_LIMIT_ARCS)
    for master_seed in (2026, 2027 * 100_000, 7):
        suite = micro_suite(1000, master_seed=master_seed)
        assert len(suite) == 1000
        assert sum(name.startswith("crafted-") for name, _ in suite) == 8
        for name, inst in suite:
            assert len(inst.rides) <= MICRO_LIMIT_RIDES, name
            assert graph_stats(build_graph(inst)).n_arcs <= MICRO_LIMIT_ARCS, name


# sha256 of the newline-joined names of the instances micro_suite(1000)
# admits, per master seed: the default and the benchmark's micro set at its
# seed 2027. A change to the size rule must not move either set
MICRO_SUITE_NAMES = {
    2026: "8d35c47ec8dca2c45485a013c085e5850b72ee948fd83b9e3cbe73fd4ad3fd9e",
    2027 * 100_000: "862f441ed937014224104eab63bbf23c2637f149977d7df0cc6f4e56a91f159f",
}


@pytest.mark.parametrize("master_seed", list(MICRO_SUITE_NAMES))
def test_micro_suite_admits_the_pinned_instances(master_seed):
    names = [name for name, _inst in micro_suite(1000, master_seed=master_seed)]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == MICRO_SUITE_NAMES[master_seed]
