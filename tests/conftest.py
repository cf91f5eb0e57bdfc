import dataclasses
import logging

import pytest

from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.instance import Instance, Ride, StationAccess, Stop, check_instance

logging.getLogger("drsync").setLevel(logging.ERROR)


def customer_stops(*names):
    return tuple(Stop(n, "customer") for n in names)


def ride_chain(graph, ride, times, stations):
    """`ride`'s steering arcs at the departure `times` via `stations` (None
    for a direct leg), looked up in `graph`; KeyError where it has none."""
    idx, arcs = graph.steer_idx, graph.arcs
    chain = []
    for k, station in enumerate(stations):
        t0, t1 = times[k], times[k + 1]
        if station is None:
            chain.append(arcs[idx[(ride.id, k, "direct", None, t0, t1)]])
        else:
            acc = next(a for a in ride.stations[k] if a.station_id == station)
            ts = t0 + acc.minutes_in
            chain += [arcs[idx[(ride.id, k, "in", station, t0, ts)]],
                      arcs[idx[(ride.id, k, "out", station, ts, t1)]]]
    return tuple(chain)


def plan_of(graph, spec):
    """A hand-made plan over `graph` from ride id -> (times, stations)."""
    rides = {r.id: r for r in graph.instance.rides}
    return {rid: ride_chain(graph, rides[rid], times, stations)
            for rid, (times, stations) in spec.items()}


def ride_times(pieces):
    """A ride's departure minutes read off its steering arcs, as
    ``Solution.to_dict`` writes them: an in-leg ends at a station."""
    return (pieces[0].start, *[p.end for p in pieces if p.leg != "in"])


def ride_stations(pieces):
    """Each segment's station, None on a direct leg."""
    return tuple(p.station for p in pieces if p.leg != "out")


def shared_terminal(shape, seed):
    """A generated two-line instance whose lines end at the same stop."""
    inst = synthetic_instance(GeneratorConfig(*shape), seed)
    old, new = f"L1S{shape[2]}", f"L0S{shape[2]}"
    rides = tuple(dataclasses.replace(r, stops=tuple(new if s == old else s for s in r.stops))
                  for r in inst.rides)
    stops = tuple(s for s in inst.stops if s.id != old)
    return check_instance(dataclasses.replace(inst, rides=rides, stops=stops))


def long_ride_none():
    """Legs of 260, 260 and 250 minutes under policy ``none``.

    The first driver steers the first leg, rests aboard through the second
    (a recruit steers it) and steers the third. Delaying the last stop by 20
    minutes takes the span past t_dw, too long for a crew that stays aboard.
    """
    return check_instance(Instance(
        rides=(
            Ride("x", "L1", ("A", "B", "C", "D"), (480, 740, 1000, 1250), (260, 260, 250),
                 ((), (), ())),
            Ride("y", "L2", ("D", "A"), (500, 600), (100,), ((),)),
        ),
        stops=customer_stops("A", "B", "C", "D"),
        theta_tw=20, zeta=0, ell=10, exchange_policy="none",
    ))


@pytest.fixture
def fig2():
    """One segment i->j (60 min) with one station (30 in / 35 out, detour 5)."""
    return check_instance(Instance(
        rides=(Ride("r1", "L1", ("i", "j"), (480, 540), (60,),
                    ((StationAccess("s", 30, 35),),)),),
        stops=customer_stops("i", "j") + (Stop("s", "station"),),
        theta_tw=10, zeta=10, ell=10,
    ))


@pytest.fixture
def sequential_pair():
    """Two rides meeting at one terminal with an hour between them."""
    return check_instance(Instance(
        rides=(
            Ride("a", "L1", ("P", "Q"), (480, 600), (120,), ((),)),
            Ride("b", "L1", ("Q", "R"), (660, 780), (120,), ((),)),
        ),
        stops=customer_stops("P", "Q", "R"),
        theta_tw=10, zeta=0, ell=10,
    ))


@pytest.fixture
def parallel_triplet():
    rides = tuple(
        Ride(f"p{i}", f"L{i}", (f"U{i}", f"V{i}"), (480, 600), (120,), ((),))
        for i in range(3)
    )
    stops = customer_stops(*(f"{c}{i}" for i in range(3) for c in "UV"))
    return check_instance(Instance(rides=rides, stops=stops,
                                   theta_tw=10, zeta=0, ell=10))
