"""Destructive bound improvement, step by step.

The constructive bounds say one driver might cover the gap fixture's
rides; in truth every ride strands its driver. In the hub variant all
rides leave one shared stop, so the instance does not split into one
component per ride, which would close at its bound of one driver by
construction alone. Capping the total driver
activations and refuting the capped problems raises the bound until a
feasible capped solution appears, which is then optimal by construction.
"""

from drsync import (
    DbmhConfig,
    brute_force,
    build_graph,
    build_model,
    compute_bounds,
    construct,
    restrict,
    run,
    solve,
)
from drsync.fixtures import gap_fixture
from drsync.mip import SolverConfig

instance = gap_fixture(3, hub=True)
graph = build_graph(instance)
bounds = compute_bounds(instance)
model = build_model(instance, graph, bounds)
start = construct(instance, graph)
print(f"constructive LB = {bounds.lb}, start solution uses {start.objective} drivers")

lb = bounds.lb
while True:
    outcome = solve(restrict(model, lb), SolverConfig(time_limit=30))
    print(f"  capped at {lb}: {outcome.status}")
    if outcome.status != "infeasible":
        break
    lb += 1
print(f"first feasible cap = {lb}; that solution is optimal "
      f"(oracle agrees: {brute_force(instance).optimum})")

report = run(instance, DbmhConfig(seed=0))
print(f"\nfull pipeline: status={report.status}, objective={report.objective}, "
      f"cLB={report.clb}, dLB={report.dlb}, stage={report.found_by}")
