"""Hand-crafted instances with known structure, plus the micro benchmark suite.

These shapes pin down behaviors that random generation hits only by luck:
bound-dominance in both directions, constructive-bound gaps that only the
destructive improvement closes, the value of mid-route handovers, and a
departure-shift win the greedy construction cannot see.
"""

from __future__ import annotations

from .generator import GeneratorConfig, synthetic_instance
from .instance import Instance, Ride, StationAccess, Stop, check_instance


def _customer(*names: str) -> tuple[Stop, ...]:
    return tuple(Stop(n, "customer") for n in names)


def exchange_fixture() -> Instance:
    """Handover at a shared stop saves a driver; forbidding exchanges costs one.

    Ride r1 runs A->B->C with two 200-minute legs; ride r2 leaves B shortly
    after r1 passes. With exchanges, the r1 driver hands over at B, rests,
    and takes r2 (2 drivers). Without exchanges the r1 crew is stuck aboard
    to C, so r2 needs a third driver.
    """
    return check_instance(Instance(
        rides=(
            Ride("r1", "L1", ("A", "B", "C"), (480, 680, 880), (200, 200), ((), ())),
            Ride("r2", "L2", ("B", "D"), (730, 930), (200,), ((),)),
        ),
        stops=_customer("A", "B", "C", "D"),
        theta_tw=10, zeta=10, ell=10,
    ))


def station_exchange_fixture() -> Instance:
    """A 300-minute leg that only a station handover can make legal."""
    return check_instance(Instance(
        rides=(
            Ride("r1", "L1", ("X", "Y"), (480, 780), (300,),
                 ((StationAccess("S", 150, 155),),)),
        ),
        stops=_customer("X", "Y") + (Stop("S", "station"),),
        theta_tw=10, zeta=10, ell=10,
    ))


def gap_fixture(n_rides: int = 2, hub: bool = False) -> Instance:
    """Sequential but unchainable rides: constructive bounds say 1 driver.

    The rides never overlap (parallel bound 1) and total steering is far
    below a day (steering bound 1), yet each ride strands its driver at an
    isolated stop, so the optimum is n_rides. Each ride is its own
    component, whose bound of 1 is its optimum. With `hub`, every ride
    leaves one shared stop P instead, so the instance does not split and
    only refuting the capped problems proves the optimum.
    """
    rides = []
    stops: list[Stop] = list(_customer("P")) if hub else []
    start = 480
    for i in range(n_rides):
        a, b = ("P" if hub else f"P{i}"), f"Q{i}"
        stops.extend(_customer(b) if hub else _customer(a, b))
        rides.append(Ride(f"g{i}", f"L{i}", (a, b), (start, start + 120), (120,), ((),)))
        start += 180
    return check_instance(Instance(
        rides=tuple(rides), stops=tuple(stops), theta_tw=10, zeta=0, ell=10))


def dominance_lb1_fixture() -> Instance:
    """Steering-time bound dominates: one line, three long chained rides."""
    rides = []
    start = 480
    for i in range(3):
        fwd = i % 2 == 0
        seq = ("A", "B") if fwd else ("B", "A")
        rides.append(Ride(f"r{i}", "L0", seq, (start, start + 240), (240,), ((),)))
        start += 240 + 60
    return check_instance(Instance(
        rides=tuple(rides), stops=_customer("A", "B"), theta_tw=10, zeta=0, ell=10))


def dominance_lb2_fixture() -> Instance:
    """Parallel bound dominates: three simultaneous short rides."""
    rides = tuple(
        Ride(f"r{i}", f"L{i}", (f"A{i}", f"B{i}"), (480, 600), (120,), ((),))
        for i in range(3)
    )
    stops = _customer(*(f"{c}{i}" for i in range(3) for c in "AB"))
    return check_instance(Instance(
        rides=rides, stops=stops, theta_tw=10, zeta=0, ell=10))


def postpone_fixture() -> Instance:
    """Greedy earliest departures split what one driver could chain.

    At the earliest schedule, r2 leaves B five minutes before r1 arrives;
    delaying r2 by one grid step lets the r1 driver take it over.
    """
    return check_instance(Instance(
        rides=(
            Ride("r1", "L1", ("A", "B"), (480, 610), (130,), ((),)),
            Ride("r2", "L2", ("B", "C"), (600, 720), (120,), ((),)),
        ),
        stops=_customer("A", "B", "C"),
        theta_tw=10, zeta=0, ell=10,
    ))


def redundant_station_fixture() -> Instance:
    """A short leg where a station visit is legal but never necessary."""
    return check_instance(Instance(
        rides=(
            Ride("r1", "L1", ("A", "B"), (480, 610), (120,),
                 ((StationAccess("S", 60, 65),),)),
        ),
        stops=_customer("A", "B") + (Stop("S", "station"),),
        theta_tw=10, zeta=10, ell=10,
    ))


# the generated shapes of micro_suite, drawn in turn
MICRO_SHAPES = (
    GeneratorConfig(n_lines=1, rides_per_line=1, segments_per_ride=2,
                    stations_per_segment=1, drive_min=60, drive_max=260),
    GeneratorConfig(n_lines=1, rides_per_line=2, segments_per_ride=2,
                    stations_per_segment=1, drive_min=40, drive_max=200,
                    overlap="sequential"),
    GeneratorConfig(n_lines=2, rides_per_line=1, segments_per_ride=2,
                    stations_per_segment=0, drive_min=60, drive_max=240,
                    overlap="parallel"),
    GeneratorConfig(n_lines=2, rides_per_line=2, segments_per_ride=1,
                    stations_per_segment=1, drive_min=30, drive_max=150,
                    overlap="mixed"),
    GeneratorConfig(n_lines=1, rides_per_line=3, segments_per_ride=1,
                    stations_per_segment=0, drive_min=90, drive_max=250,
                    overlap="sequential"),
    GeneratorConfig(n_lines=2, rides_per_line=2, segments_per_ride=2,
                    stations_per_segment=0, drive_min=30, drive_max=120,
                    overlap="mixed"),
    GeneratorConfig(n_lines=1, rides_per_line=2, segments_per_ride=3,
                    stations_per_segment=1, drive_min=30, drive_max=90,
                    overlap="sequential"),
    GeneratorConfig(n_lines=4, rides_per_line=1, segments_per_ride=1,
                    stations_per_segment=0, drive_min=60, drive_max=260,
                    overlap="parallel"),
)


def micro_suite(count: int = 100, master_seed: int = 2026) -> list[tuple[str, Instance]]:
    """Oracle-solvable micro instances, crafted shapes first, generated fill.

    Contains at least one instance where each lower bound dominates the
    other and at least two constructive-bound gap instances. Every
    instance, crafted or generated, is within ``oracle.brute_force``'s
    default limits, 4 rides and 300 arcs of its time graph (``graph_stats``):
    the generated shapes have at most 4 rides and stay far below the arc
    limit, which the tests check over several master seeds. Generation
    builds no time graph; the oracle and the run build their own.
    """
    out: list[tuple[str, Instance]] = [
        ("crafted-lb1-dominant", dominance_lb1_fixture()),
        ("crafted-lb2-dominant", dominance_lb2_fixture()),
        ("crafted-gap-2", gap_fixture(2)),
        ("crafted-gap-3", gap_fixture(3)),
        ("crafted-exchange", exchange_fixture()),
        ("crafted-station-split", station_exchange_fixture()),
        ("crafted-postpone", postpone_fixture()),
        ("crafted-redundant-station", redundant_station_fixture()),
    ]
    seed = master_seed
    si = 0
    while len(out) < count:
        cfg = MICRO_SHAPES[si % len(MICRO_SHAPES)]
        si += 1
        inst = synthetic_instance(cfg, seed)
        seed += 1
        out.append((f"gen-{seed - 1:05d}", inst))
    return out[:count]
