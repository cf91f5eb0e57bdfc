import json
import os

from drsync import cli
from drsync.cli import main
from drsync.fixtures import (
    dominance_lb1_fixture,
    dominance_lb2_fixture,
    exchange_fixture,
    gap_fixture,
    postpone_fixture,
)
from drsync.harness import (
    cmd_bench,
    cmd_compare_bounds,
    cmd_fit,
    cmd_sweep,
    config_from_dict,
    config_to_dict,
)
from drsync.instance import Instance, Ride, check_instance, save_instance
from drsync.pipeline import DbmhConfig

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


def test_cmd_solve_exit_codes(tmp_path, sequential_pair):
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
    suite = make_suite(tmp_path, [
        ("lb1dom", dominance_lb1_fixture()),
        ("lb2dom", dominance_lb2_fixture()),
        ("gap2", gap_fixture(2)),
    ])
    cmd_compare_bounds(suite, str(tmp_path / "cb"), DbmhConfig())
    rows = (tmp_path / "cb" / "bounds.csv").read_text().splitlines()
    header, data = rows[0].split(","), [r.split(",") for r in rows[1:]]
    col = {name: i for i, name in enumerate(header)}
    for r in data:
        lb1, lb2, lb, dlb = (int(r[col[c]]) for c in ("lb1", "lb2", "lb", "dlb"))
        assert lb == max(lb1, lb2)
        assert dlb >= lb
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
    cfg = DbmhConfig(eta_lb=30, seed=9)
    assert config_from_dict(config_to_dict(cfg)) == cfg


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
    assert "class=" in capsys.readouterr().out
