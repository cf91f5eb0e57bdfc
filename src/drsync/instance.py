"""Problem data model: rides, stops, legal limits, JSON persistence and decomposition.

All times are integer minutes from midnight of the planning day. Travel
times are given explicitly per ride segment and per station detour; there
is no geometry anywhere in the model.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

log = logging.getLogger("drsync")

SCHEMA_TAG = "drsync/1"

POLICY_NONE = "none"
POLICY_REGULAR = "regular_stops"
POLICY_FULL = "regular_and_intermediate"
POLICIES = (POLICY_NONE, POLICY_REGULAR, POLICY_FULL)


class InstanceError(Exception):
    """Base class for instance loading/validation problems."""


class InstanceFormatError(InstanceError):
    """Raised when a file is not parseable as the drsync/1 schema."""


class InstanceValidationError(InstanceError):
    """Raised with the full list of violated invariants."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid instance: " + "; ".join(violations))


@dataclass(frozen=True)
class LegalParams:
    """Daily hours-of-service limits, minutes.

    t_cs: max continuous steering between breaks
    t_b:  minimum break duration
    t_ds: max total daily steering
    t_dw: max daily working span (return minus start)
    """

    t_cs: int = 270
    t_b: int = 45
    t_ds: int = 660
    t_dw: int = 780


@dataclass(frozen=True)
class Stop:
    id: str
    kind: str  # "customer" | "station"


@dataclass(frozen=True)
class StationAccess:
    """Reachability of one service station from one ride segment."""

    station_id: str
    minutes_in: int
    minutes_out: int

    def detour(self, direct: int) -> int:
        return self.minutes_in + self.minutes_out - direct


@dataclass(frozen=True)
class Ride:
    id: str
    line_id: str
    stops: tuple[str, ...]                       # customer stop ids, visit order
    departures: tuple[int, ...]                  # scheduled departure per stop
    segment_minutes: tuple[int, ...]             # direct drive time per consecutive pair
    stations: tuple[tuple[StationAccess, ...], ...]  # admissible stations per segment

    @property
    def n_segments(self) -> int:
        return len(self.stops) - 1


@dataclass(frozen=True)
class Instance:
    rides: tuple[Ride, ...]
    stops: tuple[Stop, ...]
    legal: LegalParams = LegalParams()
    theta_tw: int = 10
    zeta: int = 10
    ell: int = 10
    exchange_policy: str = POLICY_FULL

    def stop_map(self) -> dict[str, Stop]:
        return {s.id: s for s in self.stops}


def validate_instance(inst: Instance) -> list[str]:
    """Return every violated invariant (empty list when valid)."""
    bad: list[str] = []
    lg = inst.legal
    if lg.t_b <= 0:
        bad.append(f"t_b must be positive, got {lg.t_b}")
    if not (0 < lg.t_cs <= lg.t_ds <= lg.t_dw):
        bad.append(f"need 0 < t_cs <= t_ds <= t_dw, got ({lg.t_cs}, {lg.t_ds}, {lg.t_dw})")
    if inst.theta_tw < 0:
        bad.append(f"theta_tw must be >= 0, got {inst.theta_tw}")
    if inst.theta_tw % 2 != 0:
        bad.append(f"theta_tw must be even (windows are centered), got {inst.theta_tw}")
    if inst.zeta < 0:
        bad.append(f"zeta must be >= 0, got {inst.zeta}")
    if inst.theta_tw < inst.zeta:
        bad.append(f"detour limit exceeds window: zeta {inst.zeta} > theta_tw {inst.theta_tw}")
    if inst.ell <= 0:
        bad.append(f"ell must be positive, got {inst.ell}")
    elif inst.theta_tw % inst.ell != 0:
        bad.append(f"ell {inst.ell} does not divide theta_tw {inst.theta_tw}")
    if inst.exchange_policy not in POLICIES:
        bad.append(f"unknown exchange_policy {inst.exchange_policy!r}")

    seen_stop_ids = set()
    for s in inst.stops:
        if s.id in seen_stop_ids:
            bad.append(f"duplicate stop id {s.id!r}")
        seen_stop_ids.add(s.id)
        if s.kind not in ("customer", "station"):
            bad.append(f"stop {s.id}: unknown kind {s.kind!r}")
    stops = inst.stop_map()

    half = inst.theta_tw // 2
    seen_ride_ids = set()
    for r in inst.rides:
        if r.id in seen_ride_ids:
            bad.append(f"duplicate ride id {r.id!r}")
        seen_ride_ids.add(r.id)
        if len(r.stops) < 2:
            bad.append(f"ride {r.id}: needs at least 2 stops")
            continue
        n_seg = r.n_segments
        if len(r.departures) != len(r.stops):
            bad.append(f"ride {r.id}: {len(r.departures)} departures for {len(r.stops)} stops")
            continue
        if len(r.segment_minutes) != n_seg or len(r.stations) != n_seg:
            bad.append(f"ride {r.id}: segment arrays must have length {n_seg}")
            continue
        for sid in r.stops:
            if sid not in stops:
                bad.append(f"ride {r.id}: unknown stop {sid!r}")
            elif stops[sid].kind != "customer":
                bad.append(f"ride {r.id}: stop {sid!r} is not a customer stop")
        for a, b in zip(r.departures, r.departures[1:]):
            if b <= a:
                bad.append(f"ride {r.id}: departures not strictly increasing ({a} -> {b})")
                break
        for tau in r.departures:
            if tau - half < 0:
                bad.append(f"ride {r.id}: window [{tau - half}, {tau + half}] underflows start of day")
        for k, direct in enumerate(r.segment_minutes):
            if direct <= 0:
                bad.append(f"ride {r.id} segment {k}: drive time must be positive")
            for acc in r.stations[k]:
                if acc.station_id not in stops:
                    bad.append(f"ride {r.id} segment {k}: unknown station {acc.station_id!r}")
                elif stops[acc.station_id].kind != "station":
                    bad.append(f"ride {r.id} segment {k}: {acc.station_id!r} is not a station")
                if acc.minutes_in <= 0 or acc.minutes_out <= 0:
                    bad.append(f"ride {r.id} segment {k}: station {acc.station_id} drive times must be positive")
                elif acc.minutes_in + acc.minutes_out < direct:
                    bad.append(
                        f"ride {r.id} segment {k}: via-station time "
                        f"{acc.minutes_in + acc.minutes_out} below direct {direct}"
                    )
    return bad


def check_instance(inst: Instance) -> Instance:
    """Validate, warn about provably uncoverable segments, and return the instance."""
    bad = validate_instance(inst)
    if bad:
        raise InstanceValidationError(bad)
    t_cs = inst.legal.t_cs
    if all(direct <= t_cs for r in inst.rides for direct in r.segment_minutes):
        return inst   # no leg needs a station, and filtering costs more than this
    for r in filter_stations(inst).rides:
        for k, direct in enumerate(r.segment_minutes):
            if direct > t_cs and not r.stations[k]:   # no usable station splits it
                log.warning(
                    "ride %s segment %d: direct drive %d exceeds t_cs=%d and no admissible "
                    "station can split it; the instance is likely infeasible",
                    r.id, k, direct, t_cs,
                )
    return inst


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

_TOP_KEYS = {"schema", "legal", "params", "stops", "rides"}
_LEGAL_KEYS = {"t_cs", "t_b", "t_ds", "t_dw"}
_PARAM_KEYS = {"theta_tw", "zeta", "ell", "exchange_policy"}
_STOP_KEYS = {"id", "kind"}
_RIDE_KEYS = {"id", "line_id", "stops", "departures", "segment_minutes", "stations"}
_ACCESS_KEYS = {"id", "in_minutes", "out_minutes"}


def _reject_unknown(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceFormatError(f"{where}: unknown keys {sorted(unknown)}")


def instance_to_dict(inst: Instance) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "legal": {
            "t_cs": inst.legal.t_cs,
            "t_b": inst.legal.t_b,
            "t_ds": inst.legal.t_ds,
            "t_dw": inst.legal.t_dw,
        },
        "params": {
            "theta_tw": inst.theta_tw,
            "zeta": inst.zeta,
            "ell": inst.ell,
            "exchange_policy": inst.exchange_policy,
        },
        "stops": [{"id": s.id, "kind": s.kind} for s in inst.stops],
        "rides": [
            {
                "id": r.id,
                "line_id": r.line_id,
                "stops": list(r.stops),
                "departures": list(r.departures),
                "segment_minutes": list(r.segment_minutes),
                "stations": [
                    [
                        {"id": a.station_id, "in_minutes": a.minutes_in, "out_minutes": a.minutes_out}
                        for a in seg
                    ]
                    for seg in r.stations
                ],
            }
            for r in inst.rides
        ],
    }


_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _typed(value, kind: type, where: str):
    """`value`, whose JSON type must be `kind`: nothing is converted, and a
    bool, which Python counts as an int, is no integer."""
    if type(value) is not kind:
        raise InstanceFormatError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _each(kind: type, value, where: str) -> tuple:
    """The entries of the list `value`, each of type `kind`."""
    return tuple(_typed(x, kind, f"{where}[{n}]")
                 for n, x in enumerate(_typed(value, list, where)))


def instance_from_dict(data: dict) -> Instance:
    """The checked instance a drsync/1 dict describes. An entry of another
    JSON type than the schema's raises ``InstanceFormatError`` naming it."""
    _reject_unknown(data, _TOP_KEYS, "top level")
    if data.get("schema") != SCHEMA_TAG:
        raise InstanceFormatError(f"schema must be {SCHEMA_TAG!r}, got {data.get('schema')!r}")
    try:
        legal_d, params_d = data["legal"], data["params"]
        _reject_unknown(legal_d, _LEGAL_KEYS, "legal")
        _reject_unknown(params_d, _PARAM_KEYS, "params")
        legal = LegalParams(**{key: _typed(legal_d[key], int, f"legal.{key}")
                               for key in ("t_cs", "t_b", "t_ds", "t_dw")})
        stops = []
        for i, sd in enumerate(_typed(data["stops"], list, "stops")):
            where = f"stops[{i}]"
            _reject_unknown(sd, _STOP_KEYS, where)
            stops.append(Stop(_typed(sd["id"], str, f"{where}.id"),
                              _typed(sd["kind"], str, f"{where}.kind")))
        rides = []
        for i, rd in enumerate(_typed(data["rides"], list, "rides")):
            where = f"rides[{i}]"
            _reject_unknown(rd, _RIDE_KEYS, where)
            segs = []
            for k, seg in enumerate(_typed(rd["stations"], list, f"{where}.stations")):
                accs = []
                for j, ad in enumerate(_typed(seg, list, f"{where}.stations[{k}]")):
                    at = f"{where}.stations[{k}][{j}]"
                    _reject_unknown(ad, _ACCESS_KEYS, at)
                    accs.append(StationAccess(_typed(ad["id"], str, f"{at}.id"),
                                              _typed(ad["in_minutes"], int, f"{at}.in_minutes"),
                                              _typed(ad["out_minutes"], int, f"{at}.out_minutes")))
                segs.append(tuple(accs))
            rides.append(Ride(
                id=_typed(rd["id"], str, f"{where}.id"),
                line_id=_typed(rd["line_id"], str, f"{where}.line_id"),
                stops=_each(str, rd["stops"], f"{where}.stops"),
                departures=_each(int, rd["departures"], f"{where}.departures"),
                segment_minutes=_each(int, rd["segment_minutes"], f"{where}.segment_minutes"),
                stations=tuple(segs),
            ))
        inst = Instance(
            rides=tuple(rides),
            stops=tuple(stops),
            legal=legal,
            theta_tw=_typed(params_d["theta_tw"], int, "params.theta_tw"),
            zeta=_typed(params_d["zeta"], int, "params.zeta"),
            ell=_typed(params_d["ell"], int, "params.ell"),
            exchange_policy=_typed(params_d["exchange_policy"], str, "params.exchange_policy"),
        )
    except KeyError as exc:
        raise InstanceFormatError(f"missing key {exc}") from exc
    return check_instance(inst)


def load_instance(path: str) -> Instance:
    """Load and validate a drsync/1 instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Station filtering and decomposition
# ---------------------------------------------------------------------------

def filter_stations(inst: Instance) -> Instance:
    """Drop every (segment, station) access the time graph cannot use, then
    the stations no ride reaches any more. An access is usable only under
    full exchange, with a detour within the limit and in- and out-drives
    each within continuous steering.

    Pure: a ride that keeps every station comes back as the same object, and
    so does the instance when nothing is dropped. One walk over the accesses
    finds both the usable ones and the stations they reach.
    """
    zeta, t_cs = inst.zeta, inst.legal.t_cs
    full = inst.exchange_policy == POLICY_FULL

    def usable(acc: StationAccess, direct: int) -> bool:
        return (full and acc.detour(direct) <= zeta
                and acc.minutes_in <= t_cs and acc.minutes_out <= t_cs)

    rides, reached, changed = [], set(), False
    for r in inst.rides:
        reached.update(r.stops)
        keep = True     # every access of r is usable
        for d, seg in zip(r.segment_minutes, r.stations):
            for a in seg:
                if usable(a, d):
                    reached.add(a.station_id)
                else:
                    keep = False
        if not keep:
            r, changed = replace(r, stations=tuple(
                tuple(a for a in seg if usable(a, d))
                for d, seg in zip(r.segment_minutes, r.stations))), True
        rides.append(r)
    stops = tuple([s for s in inst.stops if s.kind == "customer" or s.id in reached])
    if not changed and len(stops) == len(inst.stops):
        return inst
    return replace(inst, rides=tuple(rides), stops=stops)


def _ride_footprint(ride: Ride) -> set[str]:
    ids = set(ride.stops)
    for seg in ride.stations:
        for a in seg:
            ids.add(a.station_id)
    return ids


def _sub_instance(inst: Instance, rides: list[Ride], used: set[str]) -> Instance:
    """`inst` cut down to `rides` and the stops and stations in `used`."""
    return replace(inst, rides=tuple(rides), stops=tuple(s for s in inst.stops if s.id in used))


def decompose(inst: Instance) -> list[Instance]:
    """Split into connected components of the ride/stop sharing graph.

    Components are independent problems: a driver moves only by waiting at
    a stop or station or by riding along a scheduled ride (deadheading),
    and every ride visits only its component's stops and stations, so no
    driver can serve rides of two components. An optimum of the instance
    is the union of optima of its components, and the components' lower
    bounds add up. The order of the components is a pure function of the
    instance, and each keeps its rides in instance order.
    """
    parent = list(range(len(inst.rides)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    footprints = [_ride_footprint(r) for r in inst.rides]
    owner: dict[str, int] = {}
    for idx, ids in enumerate(footprints):
        for sid in ids:
            first = owner.setdefault(sid, idx)
            if first != idx:
                ra, rb = find(first), find(idx)
                if ra != rb:
                    parent[rb] = ra

    groups: dict[int, tuple[list[Ride], set[str]]] = {}
    for idx, (r, ids) in enumerate(zip(inst.rides, footprints)):
        root = find(idx)
        if root in groups:
            rides, used = groups[root]
            rides.append(r)
            used |= ids
        else:
            groups[root] = ([r], ids)
    return [_sub_instance(inst, rides, used) for _, (rides, used) in sorted(groups.items())]


def split_by_line(inst: Instance) -> list[Instance]:
    """One sub-instance per line, in order of first appearance."""
    by_line: dict[str, list[Ride]] = {}
    for r in inst.rides:
        by_line.setdefault(r.line_id, []).append(r)
    return [_sub_instance(inst, rides, set().union(*map(_ride_footprint, rides)))
            for rides in by_line.values()]
