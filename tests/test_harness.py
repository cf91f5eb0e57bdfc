import dataclasses
import json
import os

import pytest

from drsync import cli
from drsync.bounds import compute_bounds
from drsync.cli import main
from drsync.fixtures import (
    dominance_lb1_fixture,
    dominance_lb2_fixture,
    exchange_fixture,
    gap_fixture,
    postpone_fixture,
)
from drsync.generator import GeneratorConfig, synthetic_instance
from drsync.harness import (
    cmd_bench,
    cmd_compare_bounds,
    cmd_fit,
    cmd_sweep,
    config_from_dict,
    config_to_dict,
    run_suite,
    tabulate_rows,
)
from drsync.instance import Instance, Ride, check_instance, load_instance, save_instance
from drsync.oracle import brute_force
from drsync.pipeline import DbmhConfig
from drsync.timegraph import build_graph, graph_stats

from conftest import customer_stops


def make_suite(tmp_path, instances, meta=None):
    d = tmp_path / "suite"
    d.mkdir(exist_ok=True)
    for name, inst in instances:
        save_instance(inst, str(d / f"{name}.json"))
    if meta:
        (d / "suite.json").write_text(json.dumps(meta))
    return str(d)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cmd_solve_exit_codes(tmp_path, capsys, sequential_pair):
    inst_path = tmp_path / "inst.json"
    save_instance(sequential_pair, str(inst_path))
    out = tmp_path / "out"
    assert main(["solve", str(inst_path), "--out", str(out), "--seed", "1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "optimal"
    solution = json.loads((out / "solution.json").read_text())
    assert solution["objective"] == report["objective"] == len(solution["drivers"])

    bad = check_instance(Instance(
        rides=(Ride("r", "L", ("A", "B"), (480, 780), (300,), ((),)),),
        stops=customer_stops("A", "B"), theta_tw=10, zeta=0, ell=10))
    bad_path = tmp_path / "bad.json"
    save_instance(bad, str(bad_path))
    assert main(["solve", str(bad_path), "--out", str(tmp_path / "o2")]) == 2

    assert main(["solve", str(tmp_path / "missing.json")]) == 1

    # with construction, DBI and the exact solve off no stage can find a solution
    none_path = tmp_path / "none.json"
    none_path.write_text(json.dumps({"use_ch": False, "use_dbi": False, "use_mip": False}))
    out3 = tmp_path / "o3"
    assert main(["solve", str(inst_path), "--config", str(none_path), "--out", str(out3)]) == 3
    assert json.loads((out3 / "report.json").read_text())["status"] == "no_solution"
    assert not (out3 / "solution.json").exists()

    # usage errors exit 1 with argparse's message on one line: 2 means infeasible
    capsys.readouterr()
    for argv in (["solve", str(inst_path), "--bogus", "x"], ["solve"],
                 ["compare-bounds", str(tmp_path), "--lp-cmd", "x"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err
    assert main(["solve", "--help"]) == 0
    assert "usage: drsync solve" in capsys.readouterr().out


def test_cmd_solve_writes_the_bounds_to_the_sidecar_only(tmp_path, sequential_pair):
    inst_path = tmp_path / "inst.json"
    save_instance(sequential_pair, str(inst_path))
    out = tmp_path / "out"
    assert main(["solve", str(inst_path), "--out", str(out)]) == 0
    timings = json.loads((out / "report_timings.json").read_text())
    assert set(timings["bounds"]) == {"lb1", "lb2", "lb3", "clb_set_by",
                                      "graph_nodes", "graph_arcs"}
    assert "bounds" not in json.loads((out / "report.json").read_text())


def test_internal_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                sequential_pair):
    def failing_run(*args, **kwargs):
        raise RuntimeError("report objective does not match the solution")

    monkeypatch.setattr(cli, "run", failing_run)
    inst_path = tmp_path / "inst.json"
    save_instance(sequential_pair, str(inst_path))
    assert main(["solve", str(inst_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: report objective does not match the solution\n"
    assert "Traceback" not in err


def test_cmd_solve_byte_identical(tmp_path, sequential_pair):
    inst_path = tmp_path / "inst.json"
    save_instance(sequential_pair, str(inst_path))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["solve", str(inst_path), "--out", str(out), "--seed", "7"]) == 0
        outs.append((read(out / "solution.json"), read(out / "report.json")))
    assert outs[0] == outs[1]


def test_bench_deterministic_and_consistent(tmp_path):
    suite = make_suite(tmp_path, [
        ("gap2", gap_fixture(2)),
        ("postpone", postpone_fixture()),
    ])
    cfg = DbmhConfig(seed=0)
    p1 = cmd_bench(suite, str(tmp_path / "o1"), cfg, runs=2,
                   methods=["dbmh", "ch_ls"])
    p2 = cmd_bench(suite, str(tmp_path / "o2"), cfg, runs=2,
                   methods=["dbmh", "ch_ls"])
    for name in ("bench.csv", "bench_aggregate.csv"):
        assert read(tmp_path / "o1" / name) == read(tmp_path / "o2" / name)
    rows = (tmp_path / "o1" / "bench.csv").read_text().splitlines()
    dbmh_rows = [r for r in rows if r.startswith("dbmh")]
    assert all(",optimal," in r for r in dbmh_rows)
    # ch_ls never reports a smaller objective than the full pipeline
    def objs(label):
        out = {}
        for r in rows[1:]:
            parts = r.split(",")
            if parts[0] == label and parts[5]:
                out.setdefault(parts[2], int(parts[5]))
        return out
    full, heur = objs("dbmh"), objs("ch_ls")
    assert all(heur[k] >= full[k] for k in full)


def test_bench_empty_suite(tmp_path):
    suite = make_suite(tmp_path, [])
    cmd_bench(suite, str(tmp_path / "out"), DbmhConfig(), runs=1, methods=["dbmh"])
    lines = (tmp_path / "out" / "bench.csv").read_text().splitlines()
    assert len(lines) == 1    # header only


def test_a_run_that_fails_validation_is_an_error_row():
    # one stations entry too many, and one departure too few: validation
    # rejects both, and no time graph of either can be built to size it
    ok = Ride("r", "L", ("A", "B"), (480, 540), (60,), ((),))
    malformed = [
        ("extra-stations", dataclasses.replace(ok, stations=((), ()))),
        ("short-departures", dataclasses.replace(ok, departures=(480,))),
    ]
    instances = [(iid, Instance(rides=(ride,), stops=customer_stops("A", "B")))
                 for iid, ride in malformed]
    rows, proven = run_suite(instances, {"dbmh": DbmhConfig()}, [0])
    assert [(r["instance"], r["size_class"], r["status"]) for r in rows] == [
        ("extra-stations", "", "error"), ("short-departures", "", "error")]
    assert proven == {}
    (_header, detail), _agg, _timing, _agg_timing = tabulate_rows(rows, {})
    assert [row[:5] for row in detail] == [
        ["dbmh", "", "extra-stations", 0, "error"],
        ["dbmh", "", "short-departures", 0, "error"]]


def test_best_known_only_updated_by_proven(tmp_path):
    suite = make_suite(tmp_path, [("gap2", gap_fixture(2))])
    cmd_bench(suite, str(tmp_path / "out"), DbmhConfig(), runs=1, methods=["dbmh"])
    best = json.loads((tmp_path / "suite" / "best_known.json").read_text())
    assert best == {"gap2": 2}


def test_ablation_consistency(tmp_path):
    suite = make_suite(tmp_path, [("gap2", gap_fixture(2)),
                                  ("postpone", postpone_fixture())])
    from drsync.harness import cmd_ablate
    cmd_ablate(suite, str(tmp_path / "abl"), DbmhConfig(), runs=1)
    rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()[1:]
    by_variant = {}
    for r in rows:
        parts = r.split(",")
        by_variant.setdefault(parts[0], {})[parts[2]] = int(parts[5])
    for variant, objs in by_variant.items():
        for iid, obj in objs.items():
            assert obj >= by_variant["variant0"][iid]


def test_compare_bounds(tmp_path):
    # six lines that share no stop: the components' own bounds sum to more
    # than the whole instance's lb, so its dLB exceeds lb whatever DBI refutes
    split = synthetic_instance(GeneratorConfig(
        n_lines=6, rides_per_line=4, segments_per_ride=4), 7)
    suite = make_suite(tmp_path, [
        ("lb1dom", dominance_lb1_fixture()),
        ("lb2dom", dominance_lb2_fixture()),
        ("gap2", gap_fixture(2)),
        ("split", split),
    ])
    cmd_compare_bounds(suite, str(tmp_path / "cb"), DbmhConfig(eta_lb=1))
    rows = (tmp_path / "cb" / "bounds.csv").read_text().splitlines()
    header, data = rows[0].split(","), [r.split(",") for r in rows[1:]]
    assert header == ["instance", "size_class", "lb1", "lb2", "lb3", "lb", "dlb"]
    col = {name: i for i, name in enumerate(header)}
    lb_dlb = {}
    for r in data:
        lb1, lb2, lb3, lb, dlb = (int(r[col[c]]) for c in ("lb1", "lb2", "lb3", "lb", "dlb"))
        assert lb == max(lb1, lb2, lb3)
        assert dlb >= lb
        lb_dlb[r[col["instance"]]] = (lb, dlb)
    lb, dlb = lb_dlb["split"]
    assert dlb > lb
    summary = dict(r.split(",") for r in
                   (tmp_path / "cb" / "bounds_summary.csv").read_text().splitlines()[1:])
    assert float(summary["share_lb1_dominates_pct"]) > 0
    assert float(summary["share_lb2_dominates_pct"]) > 0


def test_sweep_exchange_policy(tmp_path):
    suite = make_suite(tmp_path, [("exchange", exchange_fixture())])
    cmd_sweep(suite, str(tmp_path / "sw"), DbmhConfig(), "exchange_policy")
    rows = [r.split(",") for r in
            (tmp_path / "sw" / "sweep_exchange_policy.csv").read_text().splitlines()[1:]]
    objs = {r[2]: int(r[4]) for r in rows if r[3] == "optimal"}
    assert objs["regular_and_intermediate"] < objs["none"]
    assert objs["regular_and_intermediate"] <= objs["regular_stops"] <= objs["none"]


def test_sweep_theta(tmp_path, sequential_pair):
    suite = make_suite(tmp_path, [("pair", sequential_pair)])
    cmd_sweep(suite, str(tmp_path / "sw"), DbmhConfig(), "theta_tw", values=[10, 30])
    rows = [r.split(",") for r in
            (tmp_path / "sw" / "sweep_theta_tw.csv").read_text().splitlines()[1:]]
    objs = {int(r[2]): int(r[4]) for r in rows if r[3] == "optimal"}
    assert objs[30] <= objs[10]


def test_sweep_decomposition(tmp_path, parallel_triplet):
    suite = make_suite(tmp_path, [("par", parallel_triplet)])
    cmd_sweep(suite, str(tmp_path / "sw"), DbmhConfig(), "decomposition")
    rows = [r.split(",") for r in
            (tmp_path / "sw" / "sweep_decomposition.csv").read_text().splitlines()[1:]]
    got = {r[2]: (r[3], r[4], r[6]) for r in rows}
    assert got["line"][0] == "optimal" and got["whole"][0] == "optimal"
    assert int(got["line"][1]) >= int(got["whole"][1])
    assert int(got["line"][2]) == 3


def test_sweep_decomposition_of_coupled_lines(tmp_path):
    # both exchange lines use stop B, so solving them apart gives 3 drivers
    # where the optimum is 2: the line row is feasible, under the whole bound;
    # the hub gap lines share stop P, and the whole row keeps DBI's optimum
    exchange, hub = exchange_fixture(), gap_fixture(2, hub=True)
    suite = make_suite(tmp_path, [("exchange", exchange), ("hub", hub)])
    cmd_sweep(suite, str(tmp_path / "sw"), DbmhConfig(), "decomposition")
    rows = [r.split(",") for r in
            (tmp_path / "sw" / "sweep_decomposition.csv").read_text().splitlines()[1:]]
    got = {(r[0], r[2]): (r[3], int(r[4]), int(r[5])) for r in rows}
    assert brute_force(exchange).optimum == compute_bounds(exchange).lb == 2
    assert got["exchange", "whole"] == ("optimal", 2, 2)
    assert got["exchange", "line"] == ("feasible", 3, 2)
    assert compute_bounds(hub).lb == 1
    assert got["hub", "whole"] == ("optimal", 2, 2)
    assert got["hub", "line"] == ("feasible", 2, 1)


def test_fit_singleton_and_determinism(tmp_path):
    suite = make_suite(tmp_path, [("postpone", postpone_fixture())],
                       meta={"seeds": [0]})
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"p": [3.0]}))
    f1 = cmd_fit(suite, str(grid), str(tmp_path / "fit1.json"), DbmhConfig())
    f2 = cmd_fit(suite, str(grid), str(tmp_path / "fit2.json"), DbmhConfig())
    assert f1["search"]["p"] == 3.0
    a = json.loads((tmp_path / "fit1.json").read_text())
    b = json.loads((tmp_path / "fit2.json").read_text())
    assert a == b


def test_config_round_trip():
    # every field but eta_mip, which no run reads, set away from its default
    changed = {"eta_lb": 30.0, "eta_ls": 4.0, "global_limit": 90.0, "p": 2.0,
               "use_ch": False, "use_ls": False, "use_dbi": False,
               "use_cb": False, "use_mip": False, "extend_time_on_disable": True,
               "seed": 9}
    assert set(changed) == {f.name for f in dataclasses.fields(DbmhConfig)} - {"eta_mip"}
    cfg = DbmhConfig(**changed)
    assert all(getattr(cfg, k) != getattr(DbmhConfig(), k) for k in changed)
    data = config_to_dict(cfg)
    assert set(data) == set(changed) - {"p"} | {"search"}
    assert data["search"] == {"p": 2.0}
    assert config_from_dict(data) == cfg


def test_config_round_trip_drops_the_search_seed():
    # every run overrides the search seed with its own, so a config file
    # written before that still loads, and writing it back drops the key
    cfg = config_from_dict({"seed": 9, "search": {"p": 2.0, "seed": 5}})
    assert cfg == DbmhConfig(seed=9, p=2.0)
    out = config_to_dict(cfg)
    assert "seed" not in out["search"]
    assert out["seed"] == 9 and out["search"]["p"] == 2.0


def test_cli_seed_and_mode_set_only_their_fields():
    args = cli.build_parser().parse_args(["solve", "inst.json", "--seed", "9"])
    assert cli._build_config(args) == dataclasses.replace(DbmhConfig(), seed=9)
    # local search has one strategy, so there is no flag to pick one
    assert main(["solve", "inst.json", "--mode", "composite"]) == 1


def test_config_rejects_an_unknown_search_mode(tmp_path, capsys, sequential_pair):
    # files written before local search had one strategy name it: that one
    # still loads and is dropped; any other, or another spelling, is an error
    assert config_from_dict({"search": {"mode": "composite"}}) == DbmhConfig()
    assert "mode" not in config_to_dict(DbmhConfig())["search"]
    for mode in ("vnd", "Composite"):
        with pytest.raises(ValueError, match="search.mode"):
            config_from_dict({"search": {"mode": mode}})
    inst_path = tmp_path / "inst.json"
    save_instance(sequential_pair, str(inst_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"search": {"mode": "Composite"}}))
    capsys.readouterr()
    argv = ["solve", str(inst_path), "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: search.mode must be")
    assert not (tmp_path / "o").exists()


def test_cli_bounds_and_oracle(tmp_path, capsys, fig2):
    path = tmp_path / "fig2.json"
    save_instance(fig2, str(path))
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    assert "combined bound (LB)" in out
    assert main(["oracle", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimum"] == 1


def test_cli_generate(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--out", str(out), "--count", "2", "--seed", "3"]) == 0
    files = sorted(os.listdir(out))
    assert files == ["gen-0003.json", "gen-0004.json"]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(files)
    for line, name in zip(printed, files):
        stats = graph_stats(build_graph(load_instance(str(out / name))))
        assert line == (f"{name[:-5]}: nodes={stats.n_nodes} arcs={stats.n_arcs} "
                        f"class={stats.size_class}")
