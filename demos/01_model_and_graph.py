"""A first look at the data model and the time-expanded graph.

We build the smallest interesting instance by hand: one ride segment from
stop i to stop j (60 minutes of driving) and one service station s on the
way (30 minutes in, 35 minutes out, so a 5-minute detour). Departure
windows are 10 minutes wide and discretized in 10-minute steps, which
gives every customer stop exactly two timed copies.
"""

from drsync import Instance, Ride, StationAccess, Stop, build_graph, graph_stats
from drsync.instance import check_instance
from drsync.timegraph import graph_to_dot

instance = check_instance(Instance(
    rides=(Ride("r1", "L1", ("i", "j"), (480, 540), (60,),
                ((StationAccess("s", 30, 35),),)),),
    stops=(Stop("i", "customer"), Stop("j", "customer"), Stop("s", "station")),
    theta_tw=10, zeta=10, ell=10,
))

print("Departure windows (minutes from midnight):")
half = instance.theta_tw // 2
for ride in instance.rides:
    for stop, tau in zip(ride.stops, ride.departures):
        print(f"  {stop}: scheduled {tau}, window [{tau - half}, {tau + half}]")

graph = build_graph(instance)
print("\nTimed node copies:")
for node in graph.nodes:
    print(f"  {node.base}@{node.time}")

print("\nArcs by family:")
for family in ("steering", "deadhead", "waiting"):
    arcs = [a for a in graph.arcs if a.family == family]
    print(f"  {family}: {len(arcs)}")
    if family == "steering":
        for a in arcs:   # each arc carries its located ends
            print(f"    {a.from_base}@{a.start} -> {a.to_base}@{a.end} "
                  f"({a.duration} min steering)")

print(f"  depot: {2 * len(graph.nodes)} implicit (source -> every node -> sink)")

print("\nNote the station: its single copy sits at 505 (= 475 + 30), and it")
print("can only reach the later copy of j, exactly because a detour always")
print("costs time relative to driving direct.")

print("\n", graph_stats(graph))
print("\nGraphviz view (paste into dot):\n")
print(graph_to_dot(graph))
