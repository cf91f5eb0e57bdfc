"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import random
import time
from dataclasses import replace

import pytest

from drsync.bounds import compute_bounds
from drsync.cli import main
from drsync.fixtures import exchange_fixture, gap_fixture, micro_suite
from drsync.generator import GeneratorConfig, generate_synthetic
from drsync.harness import cmd_bench, cmd_sweep
from drsync.instance import save_instance
from drsync.oracle import brute_force
from drsync.pipeline import DbmhConfig, run
from drsync.search import OPERATORS, SearchConfig, construct, local_search
from drsync.solution import check_feasibility
from drsync.timegraph import build_graph


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    return micro_suite(100)


@pytest.fixture(scope="module")
def oracle_results(suite):
    return {name: brute_force(inst) for name, inst in suite}


@pytest.fixture(scope="module")
def dbmh_reports(suite):
    t0 = time.monotonic()
    reports = {name: run(inst, DbmhConfig(seed=0), instance_id=name)
               for name, inst in suite}
    return reports, time.monotonic() - t0


def test_criterion_1_oracle_equivalence(suite, oracle_results, dbmh_reports):
    reports, elapsed = dbmh_reports
    mismatches = []
    for name, _inst in suite:
        res, rep = oracle_results[name], reports[name]
        if res.optimum is None:
            if rep.status != "infeasible":
                mismatches.append(name)
        elif rep.status != "optimal" or rep.objective != res.optimum:
            mismatches.append(name)
    report("criterion 1: oracle equivalence on 100 micro instances",
           not mismatches and elapsed < 120.0,
           f"{100 - len(mismatches)}/100 exact, dbmh suite time {elapsed:.1f}s < 120s")


def test_criterion_2_bound_sandwich(suite, oracle_results, dbmh_reports):
    reports, _ = dbmh_reports
    bad = []
    lb1_dom = lb2_dom = lb3_dom = 0
    for name, inst in suite:
        b = compute_bounds(inst)
        lb1_dom += b.lb1 > b.lb2
        lb2_dom += b.lb2 > b.lb1
        lb3_dom += b.lb3 > max(b.lb1, b.lb2)
        if b.lb != max(b.lb1, b.lb2, b.lb3):
            bad.append(name)
            continue
        res, rep = oracle_results[name], reports[name]
        if res.optimum is None:
            continue
        if not (b.lb <= rep.dlb <= res.optimum <= b.ub):
            bad.append(name)
    report("criterion 2: LB <= dLB <= optimum <= UB with non-dominance pair",
           not bad and lb1_dom >= 1 and lb2_dom >= 1 and lb3_dom >= 1,
           f"0 exceptions, LB1-dominant: {lb1_dom}, LB2-dominant: {lb2_dom}, "
           f"LB3 above both: {lb3_dom}")


def test_criterion_3_destructive_improvement():
    closed = []
    ratios = []
    for k in (2, 3, 4):
        inst = gap_fixture(k, hub=True)     # one component: no split closes it
        res = brute_force(inst)
        rep = run(inst, DbmhConfig(seed=0))
        clb = rep.clb
        closed.append(rep.status == "optimal" and rep.dlb == res.optimum == k
                      and bool(rep.dbi_log))
        ratios.append(rep.dlb / clb)
    report("criterion 3: gap family closed by destructive improvement",
           all(closed) and max(ratios) >= 1.2,
           f"dLB = optimum on {sum(closed)}/3 fixtures, max dLB/cLB = {max(ratios):.2f}")


def test_criterion_4_exchange_benefit(tmp_path):
    inst = exchange_fixture()
    full = brute_force(inst).optimum
    none = brute_force(replace(inst, exchange_policy="none")).optimum
    direction = full is not None and none is not None and full < none
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    save_instance(inst, str(suite_dir / "exchange.json"))
    cmd_sweep(str(suite_dir), str(tmp_path / "sw"), DbmhConfig(), "exchange_policy")
    rows = [r.split(",") for r in
            (tmp_path / "sw" / "sweep_exchange_policy.csv").read_text().splitlines()[1:]]
    objs = {r[2]: int(r[4]) for r in rows if r[4]}
    endpoints = objs.get("regular_and_intermediate") == full and objs.get("none") == none
    report("criterion 4: exchange benefit direction and sweep endpoints",
           direction and endpoints,
           f"optimum(full)={full} < optimum(none)={none}; sweep matches")


def test_criterion_5_feasibility_closure(suite):
    rng = random.Random(99)
    cfg = SearchConfig(seed=1)
    pool = []
    for name, inst in suite:
        g = build_graph(inst)
        try:
            sol = construct(inst, g)
        except Exception:
            continue
        pool.append((inst, g, sol))
    applications = 0
    violations = 0
    states = [list(p) for p in pool]
    while applications < 10_000:
        inst, g, sol = states[rng.randrange(len(states))]
        op = OPERATORS[rng.randrange(len(OPERATORS))]
        cands = op(sol, inst, g, cfg, rng.randrange(1 << 30))
        applications += 1
        for c in cands:
            if check_feasibility(c, inst, g):
                violations += 1
        if cands:
            si = rng.randrange(len(states))
            if states[si][0] is inst:
                states[si][2] = cands[rng.randrange(len(cands))]
    monotone = True
    for inst, g, sol in pool[:10]:
        trace = []
        local_search(construct(inst, g), inst, g, SearchConfig(seed=2), trace=trace)
        for (fa, ta), (fb, tb) in zip(trace, trace[1:]):
            if not (fb < fa or (fb == fa and tb > ta)):
                monotone = False
    report("criterion 5: feasibility closure under randomized operators",
           violations == 0 and monotone,
           f"{applications} applications, {violations} violations, traces monotone")


def test_criterion_6_window_monotonicity():
    shapes = [
        GeneratorConfig(n_lines=1, rides_per_line=2, segments_per_ride=1,
                        stations_per_segment=0, drive_min=60, drive_max=240,
                        overlap="sequential"),
        GeneratorConfig(n_lines=2, rides_per_line=1, segments_per_ride=1,
                        stations_per_segment=1, drive_min=60, drive_max=200,
                        overlap="mixed"),
    ]
    checked = 0
    bad = []
    seed = 500
    while checked < 20:
        inst, stats = generate_synthetic(shapes[checked % 2], seed)
        seed += 1
        narrow = brute_force(inst, max_arcs=900)
        if narrow.optimum is None:
            continue
        wide = brute_force(replace(inst, theta_tw=30), max_arcs=2000)
        checked += 1
        if wide.optimum is None or wide.optimum > narrow.optimum:
            bad.append(seed - 1)
    report("criterion 6: widening windows never needs more drivers",
           not bad, f"20/20 instances satisfy optimum(30) <= optimum(10)")


def test_criterion_7_determinism(tmp_path, suite):
    inst = dict(suite)["crafted-exchange"]
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["solve", str(path), "--out", str(out), "--seed", "11"]) == 0
        blobs.append(((out / "solution.json").read_bytes(),
                      (out / "report.json").read_bytes()))
    solve_same = blobs[0] == blobs[1]

    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    for name, sinst in suite[:8]:
        save_instance(sinst, str(suite_dir / f"{name}.json"))
    csvs = []
    for sub in ("b1", "b2"):
        (suite_dir / "best_known.json").unlink(missing_ok=True)
        cmd_bench(str(suite_dir), str(tmp_path / sub), DbmhConfig(seed=3),
                  runs=2, methods=["dbmh", "ch_ls"])
        csvs.append(((tmp_path / sub / "bench.csv").read_bytes(),
                     (tmp_path / sub / "bench_aggregate.csv").read_bytes()))
    bench_same = csvs[0] == csvs[1]
    report("criterion 7: byte-identical outputs for fixed seeds",
           solve_same and bench_same,
           f"solve identical: {solve_same}, bench identical: {bench_same}")


def test_criterion_8_ablation_sanity(tmp_path, suite):
    from drsync.harness import cmd_ablate
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    for name, inst in suite:
        save_instance(inst, str(suite_dir / f"{name}.json"))
    cmd_ablate(str(suite_dir), str(tmp_path / "abl"), DbmhConfig(seed=0), runs=1)
    rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()[1:]
    objective: dict[tuple[str, str], int | None] = {}
    for r in rows:
        parts = r.split(",")
        objective[(parts[0], parts[2])] = int(parts[5]) if parts[5] else None
    worse = []
    n = 0
    for (variant, iid), obj in objective.items():
        if variant == "variant0":
            continue
        n += 1
        base = objective[("variant0", iid)]
        if obj is not None and base is not None and obj < base:
            worse.append((iid, variant))
    report("criterion 8: the full pipeline is never beaten by an ablation",
           not worse, f"{n} variant rows vs variant0, 0 strictly better")
