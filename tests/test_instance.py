import json
import logging
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from drsync.generator import GeneratorConfig, GeneratorConfigError, generate_synthetic
from drsync.instance import (
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    Ride,
    StationAccess,
    Stop,
    check_instance,
    decompose,
    filter_stations,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    split_by_line,
)

from conftest import customer_stops

MINIMAL = {
    "schema": "drsync/1",
    "legal": {"t_cs": 270, "t_b": 45, "t_ds": 660, "t_dw": 780},
    "params": {"theta_tw": 10, "zeta": 10, "ell": 10,
               "exchange_policy": "regular_and_intermediate"},
    "stops": [{"id": "A", "kind": "customer"}, {"id": "B", "kind": "customer"}],
    "rides": [{"id": "r1", "line_id": "L1", "stops": ["A", "B"],
               "departures": [480, 540], "segment_minutes": [60],
               "stations": [[]]}],
}


def test_minimal_file_loads(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(MINIMAL))
    inst = load_instance(str(path))
    assert len(inst.rides) == 1
    assert len(inst.rides[0].stops) == 2


def test_round_trip_identity(tmp_path, fig2):
    path = tmp_path / "x.json"
    save_instance(fig2, str(path))
    assert load_instance(str(path)) == fig2


def test_unknown_keys_rejected():
    data = dict(MINIMAL)
    data["extra"] = 1
    with pytest.raises(InstanceFormatError, match="unknown keys"):
        instance_from_dict(data)


def _with(path, value):
    """MINIMAL with the entry at `path` (keys and list positions) set to `value`."""
    data = json.loads(json.dumps(MINIMAL))
    *head, last = path
    obj = data
    for key in head:
        obj = obj[key]
    obj[last] = value
    return data


NOT_OBJECTS = [
    (("legal",), 5, "legal must be an object"),
    (("params",), [], "params must be an object"),
    (("stops", 1), "B", r"stops\[1\] must be an object"),
    (("rides", 0), ["a"], r"rides\[0\] must be an object"),
    (("rides", 0, "stations", 0), [7], r"rides\[0\]\.stations\[0\]\[0\] must be an object"),
]


@pytest.mark.parametrize("path, value, message", NOT_OBJECTS)
def test_entries_that_are_not_objects_rejected(path, value, message):
    with pytest.raises(InstanceFormatError, match=f"^{message}$"):
        instance_from_dict(_with(path, value))


def test_infinite_minute_rejected():
    # JSON's 1e400 loads as float("inf"), a float like any other
    with pytest.raises(InstanceFormatError,
                       match=r"^rides\[0\]\.departures\[0\] must be an integer, got inf$"):
        instance_from_dict(_with(("rides", 0, "departures", 0), float("inf")))


WRONG_TYPES = [
    (("rides", 0, "departures", 0), 480.7,
     r"rides\[0\]\.departures\[0\] must be an integer, got 480\.7"),
    (("rides", 0, "departures", 0), "480",
     r"rides\[0\]\.departures\[0\] must be an integer, got '480'"),
    (("rides", 0, "departures", 1), 540.0,
     r"rides\[0\]\.departures\[1\] must be an integer, got 540\.0"),
    (("rides", 0, "segment_minutes", 0), True,
     r"rides\[0\]\.segment_minutes\[0\] must be an integer, got True"),
    (("legal", "t_cs"), True, r"legal\.t_cs must be an integer, got True"),
    (("params", "ell"), "10", r"params\.ell must be an integer, got '10'"),
    (("rides", 0, "stations", 0), [{"id": "S", "in_minutes": 30.5, "out_minutes": 40}],
     r"rides\[0\]\.stations\[0\]\[0\]\.in_minutes must be an integer, got 30\.5"),
    (("rides", 0, "id"), 1, r"rides\[0\]\.id must be a string, got 1"),
    (("rides", 0, "line_id"), None, r"rides\[0\]\.line_id must be a string, got None"),
    (("rides", 0, "stops", 1), 2, r"rides\[0\]\.stops\[1\] must be a string, got 2"),
    (("stops", 0, "id"), 7, r"stops\[0\]\.id must be a string, got 7"),
    (("rides", 0, "stations", 0), [{"id": 3, "in_minutes": 30, "out_minutes": 40}],
     r"rides\[0\]\.stations\[0\]\[0\]\.id must be a string, got 3"),
    (("rides", 0, "departures"), "480", r"rides\[0\]\.departures must be a list, got '480'"),
    (("rides",), {}, r"rides must be a list, got \{\}"),
]


@pytest.mark.parametrize("path, value, message", WRONG_TYPES)
def test_values_of_the_wrong_type_rejected(path, value, message):
    # nothing is converted: a float, a string or a bool where the schema
    # writes an integer, and a non-string id, are format errors at their place
    with pytest.raises(InstanceFormatError, match=f"^{message}$"):
        instance_from_dict(_with(path, value))


def test_cli_names_a_value_of_the_wrong_type(tmp_path, capsys):
    from drsync.cli import main
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with(("legal", "t_cs"), True)))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: legal.t_cs must be an integer, got True\n"


def test_cli_names_an_entry_that_is_not_an_object(tmp_path, capsys):
    from drsync.cli import main
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with(("rides", 0), ["a"])))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: rides[0] must be an object\n"


def test_bad_schema_tag():
    data = dict(MINIMAL)
    data["schema"] = "drsync/999"
    with pytest.raises(InstanceFormatError, match="schema"):
        instance_from_dict(data)


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        load_instance(str(path))


def test_detour_limit_exceeds_window():
    data = json.loads(json.dumps(MINIMAL))
    data["params"]["theta_tw"] = 10
    data["params"]["zeta"] = 20
    with pytest.raises(InstanceValidationError, match="detour limit exceeds window"):
        instance_from_dict(data)


def test_every_violation_reported():
    inst = Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 470), (0,), ((),)),),
        stops=customer_stops("A", "B"),
        theta_tw=7, zeta=0, ell=10,
    )
    with pytest.raises(InstanceValidationError) as err:
        check_instance(inst)
    text = str(err.value)
    assert "even" in text                 # odd window width
    assert "not strictly increasing" in text
    assert "drive time must be positive" in text


def test_window_underflow():
    inst = Instance(rides=(Ride("r", "L", ("A", "B"), (4, 540), (60,), ((),)),),
                    stops=customer_stops("A", "B"), theta_tw=10, zeta=0)
    with pytest.raises(InstanceValidationError, match="underflow"):
        check_instance(inst)


def _with_station(direct, m_in, m_out, zeta):
    return check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 480 + max(direct, 60)), (direct,),
                    ((StationAccess("S", m_in, m_out),),)),),
        stops=customer_stops("A", "B") + (Stop("S", "station"),),
        theta_tw=max(10, zeta + zeta % 2), zeta=zeta, ell=10 if max(10, zeta) % 10 == 0 else 1,
    ))


def test_filter_stations_keeps_small_detour():
    inst = _with_station(60, 30, 35, 10)   # detour 5
    kept = filter_stations(inst)
    assert len(kept.rides[0].stations[0]) == 1


def test_filter_stations_drops_large_detour():
    inst = _with_station(60, 40, 35, 10)   # detour 15
    kept = filter_stations(inst)
    assert kept.rides[0].stations[0] == ()


def test_filter_stations_zeta_zero():
    inst = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 540), (60,),
                    ((StationAccess("S0", 30, 30), StationAccess("S1", 30, 35)),)),),
        stops=customer_stops("A", "B") + (Stop("S0", "station"), Stop("S1", "station")),
        theta_tw=10, zeta=0, ell=10,
    ))
    kept = filter_stations(inst)
    assert [a.station_id for a in kept.rides[0].stations[0]] == ["S0"]


@pytest.mark.parametrize("policy, m_in, m_out, kept", [
    ("regular_and_intermediate", 150, 155, True),   # detour 5, drives within t_cs
    ("regular_and_intermediate", 275, 30, False),   # in-drive above t_cs
    ("regular_and_intermediate", 30, 275, False),   # out-drive above t_cs
    ("regular_stops", 150, 155, False),             # stations unused but under
    ("none", 150, 155, False),                      # full exchange
])
def test_filter_stations_keeps_only_what_the_graph_can_use(policy, m_in, m_out, kept):
    inst = replace(_with_station(m_in + m_out - 5, m_in, m_out, 10), exchange_policy=policy)
    out = filter_stations(inst)
    assert bool(out.rides[0].stations[0]) == kept
    # with nothing to drop the instance comes back as the same object
    assert (out is inst) == kept
    # a station stop that no access reaches is dropped all the same
    idle = replace(inst, stops=inst.stops + (Stop("T", "station"),))
    assert [s.id for s in filter_stations(idle).stops] == ["A", "B"] + ["S"] * kept


@pytest.mark.parametrize("policy, m_in, warned", [
    ("regular_and_intermediate", 150, False),
    ("regular_and_intermediate", 275, True),
    ("regular_stops", 150, True),
])
def test_uncoverable_segment_warning_reads_filter_stations(caplog, policy, m_in, warned):
    # a 300-minute leg needs a usable station to be split within t_cs = 270
    inst = replace(_with_station(300, m_in, 305 - m_in, 10), exchange_policy=policy)
    with caplog.at_level(logging.WARNING, logger="drsync"):
        check_instance(inst)
    assert ("likely infeasible" in caplog.text) == warned


def test_filter_stations_idempotent(fig2):
    once = filter_stations(fig2)
    assert filter_stations(once) == once


def test_filter_stations_keeps_the_objects_it_does_not_change():
    kept = _with_station(60, 30, 35, 10)   # detour 5: nothing to drop
    assert filter_stations(kept) is kept
    other = Ride("q", "L", ("A", "B"), (600, 660), (60,), ((StationAccess("S", 40, 35),),))
    mixed = replace(kept, rides=kept.rides + (other,))   # q's detour is 15
    out = filter_stations(mixed)
    assert out is not mixed
    assert out.rides[0] is mixed.rides[0]
    assert out.rides[1].stations == ((),)
    # S is still reached from r, so it stays; without r it goes
    assert [s.id for s in out.stops] == ["A", "B", "S"]
    alone = filter_stations(replace(kept, rides=(other,)))
    assert [s.id for s in alone.stops] == ["A", "B"]


def test_decompose_shared_terminal(sequential_pair):
    assert len(decompose(sequential_pair)) == 1


def test_decompose_disjoint(parallel_triplet):
    parts = decompose(parallel_triplet)
    assert len(parts) == 3
    assert sum(len(p.rides) for p in parts) == 3
    seen = set()
    for p in parts:
        ids = {s.id for s in p.stops}
        assert not (ids & seen)
        seen |= ids


def test_decompose_empty():
    inst = Instance(rides=(), stops=(), theta_tw=10, zeta=10, ell=10)
    assert decompose(inst) == []


def test_split_by_line(parallel_triplet, sequential_pair):
    assert len(split_by_line(parallel_triplet)) == 3
    same_line = split_by_line(sequential_pair)
    assert len(same_line) == 1
    assert same_line[0].rides == sequential_pair.rides


def test_generator_deterministic(tmp_path):
    cfg = GeneratorConfig()
    a, _ = generate_synthetic(cfg, 1)
    b, _ = generate_synthetic(cfg, 1)
    assert a == b
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(a, str(pa))
    save_instance(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    c, _ = generate_synthetic(cfg, 2)
    assert c != a


def test_generator_minimal_config():
    inst, stats = generate_synthetic(GeneratorConfig(
        n_lines=1, rides_per_line=1, segments_per_ride=1,
        stations_per_segment=0), 0)
    assert len(inst.stops) == 2
    assert stats.size_class == "small"


def test_generator_medium_class():
    cfg = GeneratorConfig(n_lines=4, rides_per_line=3, segments_per_ride=3,
                          stations_per_segment=1, theta_tw=30, ell=10)
    inst, stats = generate_synthetic(cfg, 0)
    assert 1000 <= stats.n_arcs < 5000
    assert stats.size_class == "medium"


def test_generator_rejects_bad_drive_range():
    with pytest.raises(GeneratorConfigError):
        generate_synthetic(GeneratorConfig(drive_min=2, drive_max=100), 0)
    with pytest.raises(GeneratorConfigError):
        generate_synthetic(GeneratorConfig(drive_min=30, drive_max=400), 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generator_round_trip_any_seed(seed):
    inst, _ = generate_synthetic(GeneratorConfig(), seed)
    assert instance_from_dict(instance_to_dict(inst)) == inst
