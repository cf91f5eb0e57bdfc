import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drsync import pipeline
from drsync.bounds import compute_bounds
from drsync.fixtures import gap_fixture, postpone_fixture, station_exchange_fixture
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.instance import Instance, Ride, check_instance
from drsync.mip import build_model
from drsync.oracle import brute_force
from drsync.pipeline import (
    DbmhConfig,
    destructive_bound_improvement,
    run,
)
from drsync.search import construct
from drsync.solution import check_feasibility
from drsync.timegraph import build_graph

from conftest import customer_stops


def test_optimal_via_ch_ls(sequential_pair):
    rep = run(sequential_pair, DbmhConfig())
    assert rep.status == "optimal"
    assert rep.objective == 1
    assert rep.found_by == "ch_ls"
    assert "dbi" not in rep.phase_timings      # never entered
    assert rep.clb == rep.dlb == rep.final_lb == 1


def test_gap_instance_found_by_dbi():
    inst = gap_fixture(2)
    rep = run(inst, DbmhConfig())
    assert rep.status == "optimal"
    assert rep.objective == 2
    assert rep.found_by == "dbi"
    assert rep.clb == 1 and rep.dlb == 2
    assert rep.dlb == brute_force(inst).optimum


def test_dbi_unit_semantics():
    inst = gap_fixture(3)          # constructive lb 1, optimum 3
    g = build_graph(inst)
    model = build_model(g, compute_bounds(inst))
    start = construct(inst, g)
    lb, status, sol = destructive_bound_improvement(model, 1, start, eta_lb=60)
    assert (lb, status) == (3, "optimal")
    assert sol.objective == 3
    # early exit when the incumbent already meets the bound
    lb2, status2, sol2 = destructive_bound_improvement(model, sol.objective, sol, 60)
    assert (lb2, status2, sol2) == (3, "optimal", sol)
    # vanishing budget: the bound is returned unchanged and stays valid
    lb3, status3, sol3 = destructive_bound_improvement(model, 1, start, 1e-9)
    assert (lb3, status3, sol3) == (1, "bound_only", None)


def test_ch_only_variant(sequential_pair):
    cfg = DbmhConfig(use_ls=False, use_dbi=False, use_cb=False, use_mip=False)
    rep = run(sequential_pair, cfg)
    g = build_graph(sequential_pair)
    ch = construct(sequential_pair, g)
    assert rep.objective == ch.objective
    assert rep.status in ("optimal", "feasible")


def test_no_ch_variant_still_solves(sequential_pair):
    rep = run(sequential_pair, DbmhConfig(use_ch=False))
    assert rep.status == "optimal"
    assert rep.objective == 1
    assert rep.found_by in ("dbi", "mip", "ls_callback")


def test_infeasible_instance_reported():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 780), (300,), ((),)),),
        stops=customer_stops("A", "B"),
        theta_tw=10, zeta=0, ell=10,
    ))
    rep = run(inst, DbmhConfig())
    assert rep.status == "infeasible"
    assert rep.objective is None


def test_solution_attached_and_feasible():
    inst = station_exchange_fixture()
    rep = run(inst, DbmhConfig())
    assert rep.status == "optimal"
    g = rep.solution.graph
    assert check_feasibility(rep.solution, inst, g) == []


def test_report_serialization_deterministic(sequential_pair):
    a = run(sequential_pair, DbmhConfig(seed=4)).to_dict()
    b = run(sequential_pair, DbmhConfig(seed=4)).to_dict()
    assert a == b
    assert "phase_timings" not in a
    t = run(sequential_pair, DbmhConfig(seed=4)).timings_dict()
    assert "phase_timings" in t


def test_ablation_never_beats_full_pipeline():
    from drsync.harness import ABLATION_VARIANTS
    for inst in (gap_fixture(2), postpone_fixture()):
        base = run(inst, DbmhConfig()).objective
        for v, flags in ABLATION_VARIANTS.items():
            rep = run(inst, DbmhConfig(**flags))
            if rep.objective is not None:
                assert rep.objective >= base


def test_budget_validation():
    with pytest.raises(ValueError):
        DbmhConfig(eta_lb=0)
    with pytest.raises(ValueError):
        DbmhConfig(eta_mip=5000, global_limit=3600)


def test_incumbent_log_objectives_decrease(sequential_pair):
    rep = run(sequential_pair, DbmhConfig())
    objs = [f for _, f in rep.incumbent_log]
    assert all(a >= b for a, b in zip(objs, objs[1:]))


def test_ls_callback_deadline_stays_inside_the_run(monkeypatch):
    # a stand-in local search that improves nothing, so the warm B&B finds
    # better incumbents and calls back; eta_ls equals the global limit, so
    # only the time left can bound the callback's deadline
    calls = []

    def recording_local_search(sol, instance, graph, cfg):
        calls.append((time.monotonic(), cfg.deadline))
        return sol

    monkeypatch.setattr(pipeline, "local_search", recording_local_search)
    inst = generate_synthetic(GeneratorConfig(2, 2, 4), 0)[0]
    limit = 2.0
    start = time.monotonic()
    rep = run(inst, DbmhConfig(global_limit=limit, eta_lb=limit, eta_mip=0.001,
                               eta_ls=limit, use_dbi=False))
    assert len(calls) >= 2          # the LS stage, then at least one callback
    for called_at, deadline in calls:
        assert deadline <= start + limit - called_at + 0.01


def test_budget_run_on_48_rides():
    # the budget benchmark's largest rung, once past the recursion limit
    inst = generate_synthetic(GeneratorConfig(8, 6, 4), 7)[0]
    limit_before = sys.getrecursionlimit()
    rep = run(inst, DbmhConfig(global_limit=8.0, eta_lb=1.0, eta_mip=2.0, eta_ls=0.5))
    assert sys.getrecursionlimit() == limit_before
    assert rep.solution is not None
    assert check_feasibility(rep.solution, inst) == []
    assert rep.clb <= rep.final_lb <= rep.objective
    nodes = rep.timings_dict()["bb_nodes"]
    assert set(nodes) == {"dbi_caps", "cold", "warm"}
    assert nodes["dbi_caps"] and all(n > 0 for n in nodes["dbi_caps"])
    assert nodes["cold"] > 0 and nodes["warm"] > 0
    assert "bb_nodes" not in rep.to_dict()


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_lines=st.integers(1, 6), rides_per_line=st.integers(1, 5),
       segments=st.integers(1, 4),
       policy=st.sampled_from(["regular_and_intermediate", "regular_stops", "none"]),
       seed=st.integers(0, 10_000))
@example(n_lines=6, rides_per_line=5, segments=4, policy="regular_and_intermediate", seed=7)
@example(n_lines=6, rides_per_line=5, segments=3, policy="none", seed=7)
def test_short_runs_on_random_shapes(n_lines, rides_per_line, segments, policy, seed):
    cfg = GeneratorConfig(n_lines, rides_per_line, segments, exchange_policy=policy)
    inst = generate_synthetic(cfg, seed)[0]
    rep = run(inst, DbmhConfig(global_limit=0.2, eta_lb=0.2, eta_mip=0.2, eta_ls=0.2))
    assert rep.solution is not None, rep.status
    assert check_feasibility(rep.solution, inst) == []
    assert rep.clb <= rep.final_lb <= rep.objective
