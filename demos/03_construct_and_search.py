"""Greedy construction and the composite local search.

The postpone fixture is built so that the earliest-departure construction
just misses a handover: ride r2 leaves B five minutes before the r1 bus
gets there. Delaying r2 by one 10-minute grid step lets one driver cover
both rides; the local search finds that move. A ride's plan is its
steering arcs, the time graph's own, printed here as the located stops
they join.
"""

from drsync import SearchConfig, brute_force, build_graph, construct, local_search
from drsync.fixtures import postpone_fixture
from drsync.search import OPERATORS



def stops(pieces) -> str:
    """A ride's steering arcs as base@minute, from its first departure on."""
    return " -> ".join([f"{pieces[0].from_base}@{pieces[0].start}"]
                       + [f"{p.to_base}@{p.end}" for p in pieces])


instance = postpone_fixture()
graph = build_graph(instance)

start = construct(instance, graph)
print(f"construction: {start.objective} drivers, "
      f"remaining working time {start.theta()} min")
for rid in sorted(start.plan):
    print(f"  ride {rid}: {stops(start.plan[rid])}")

trace: list[tuple[int, int]] = []
best = local_search(start, instance, graph, SearchConfig(seed=1), trace=trace)
print(f"\nlocal search trajectory (drivers, remaining-working-time): {trace}")
print(f"after search: {best.objective} drivers")
for rid in sorted(best.plan):
    print(f"  ride {rid}: {stops(best.plan[rid])}")

print(f"\noracle optimum: {brute_force(instance).optimum}")
print("\nThe seven operators, for reference:")
for op in OPERATORS:
    print(f"  - {op.__name__}: {op.__doc__.strip().splitlines()[0]}")
