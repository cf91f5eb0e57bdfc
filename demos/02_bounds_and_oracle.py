"""Driver-count bounds and the exhaustive reference optimum.

Two instances make the two lower bounds trade places: a single line of
long chained rides is constrained by total steering time, while three
simultaneous short rides are constrained by parallelism. The brute-force
oracle confirms both optima and always lands inside [LB, UB].
"""

from drsync import brute_force, compute_bounds
from drsync.fixtures import dominance_lb1_fixture, dominance_lb2_fixture, gap_fixture

for name, inst in (
    ("long chained rides", dominance_lb1_fixture()),
    ("three parallel rides", dominance_lb2_fixture()),
):
    bounds = compute_bounds(inst)
    result = brute_force(inst)
    print(f"{name}:")
    print(f"  UB={bounds.ub}  LB1={bounds.lb1}  LB2={bounds.lb2}  LB3={bounds.lb3}  "
          f"LB={bounds.lb}  optimum={result.optimum}")
    assert bounds.lb <= result.optimum <= bounds.ub

print("\nNeither LB1 nor LB2 dominates the other. LB3, the time-window bound,")
print("is never below either, and the solver uses the max of all three.")

inst = gap_fixture(3)
bounds = compute_bounds(inst)
result = brute_force(inst)
print(f"\ngap fixture: LB={bounds.lb} but optimum={result.optimum} "
      f"(three rides that strand their drivers at isolated stops).")
print("Constructive bounds cannot see this; demo 04 closes the gap.")
