"""Command-line front door: drsync {solve,bounds,oracle,generate,bench,...}."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import harness
from .bounds import compute_bounds
from .generator import GeneratorConfig
from .instance import (
    Instance,
    POLICY_FULL,
    POLICY_NONE,
    POLICY_REGULAR,
    load_instance,
)
from .oracle import OracleSizeError, brute_force
from .pipeline import DbmhConfig, run
from .timegraph import build_graph, graph_stats

POLICY_FLAG = {"none": POLICY_NONE, "regular": POLICY_REGULAR, "full": POLICY_FULL}


def _build_config(args) -> DbmhConfig:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = harness.config_from_dict(json.load(fh))
    else:
        cfg = DbmhConfig()
    if getattr(args, "time_limit", None) is not None:
        cfg = replace(cfg, global_limit=args.time_limit,
                      eta_lb=min(cfg.eta_lb, args.time_limit),
                      eta_ls=min(cfg.eta_ls, args.time_limit))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed,
                      search=replace(cfg.search, seed=args.seed))
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, search=replace(cfg.search, mode=args.mode))
    return cfg


def _load(args) -> Instance:
    inst = load_instance(args.instance)
    if getattr(args, "policy", None) is not None:
        inst = replace(inst, exchange_policy=POLICY_FLAG[args.policy])
    return inst


def _write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_solve(args) -> int:
    inst = _load(args)
    cfg = _build_config(args)
    rep = run(inst, cfg, instance_id=os.path.basename(args.instance))
    out = args.out or "."
    if rep.solution is not None:
        sol_dict = rep.solution.to_dict()
        if sol_dict["objective"] != len(sol_dict["drivers"]):
            raise RuntimeError("objective does not match the serialized routes")
        if rep.objective != sol_dict["objective"]:
            raise RuntimeError("report objective does not match the solution")
        _write_json(os.path.join(out, "solution.json"), sol_dict)
    _write_json(os.path.join(out, "report.json"), rep.to_dict())
    _write_json(os.path.join(out, "report_timings.json"), rep.timings_dict())
    trace_path = os.path.join(out, "trace.csv")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("time_s,objective,bound\n")
        for t, f in rep.incumbent_log:
            fh.write(f"{t:.6f},{f},{rep.final_lb}\n")
    print(f"status={rep.status} objective={rep.objective} lb={rep.final_lb} "
          f"found_by={rep.found_by}")
    if rep.status in ("optimal", "feasible"):
        return 0
    if rep.status == "infeasible":
        return 2
    return 3


def _cmd_bounds(args) -> int:
    inst = _load(args)
    graph = build_graph(inst)
    report = compute_bounds(inst)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    stats = graph_stats(graph)
    rows = [
        ("upper bound (UB)", report.ub),
        ("steering-time bound (LB1)", report.lb1),
        ("parallel-rides bound (LB2)", report.lb2),
        ("combined bound (LB)", report.lb),
        ("busiest minute", report.busiest_interval),
        ("graph nodes", stats.n_nodes),
        ("graph arcs", stats.n_arcs),
        ("size class", stats.size_class),
    ]
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args)
    try:
        res = brute_force(inst, max_rides=args.max_rides, max_arcs=args.max_arcs)
    except OracleSizeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    data = res.to_dict()
    data["elapsed_s"] = round(res.elapsed, 6)
    if not args.witness:
        data.pop("witness", None)
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0 if res.feasible else 2


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n_lines=args.lines, rides_per_line=args.rides_per_line,
        segments_per_ride=args.segments, stations_per_segment=args.stations,
        drive_min=args.drive_min, drive_max=args.drive_max,
        overlap=args.overlap, theta_tw=args.theta, zeta=args.zeta,
        ell=args.ell, exchange_policy=POLICY_FLAG[args.policy],
    )
    made = harness.cmd_generate(args.out, cfg, args.seed or 0, args.count)
    for name, stats in made:
        print(f"{name}: nodes={stats.n_nodes} arcs={stats.n_arcs} "
              f"class={stats.size_class}")
    return 0


def _cmd_bench(args) -> int:
    path = harness.cmd_bench(args.suite, args.out, _build_config(args),
                             runs=args.runs, methods=args.methods)
    print(path)
    return 0


def _cmd_ablate(args) -> int:
    path = harness.cmd_ablate(args.suite, args.out, _build_config(args),
                              runs=args.runs)
    print(path)
    return 0


def _cmd_compare_bounds(args) -> int:
    path = harness.cmd_compare_bounds(args.suite, args.out, _build_config(args),
                                      lp_cmd=args.lp_cmd)
    print(path)
    return 0


def _cmd_sweep(args) -> int:
    values = args.values
    if values and args.axis in ("theta_tw", "zeta", "ell"):
        values = [int(v) for v in values]
    path = harness.cmd_sweep(args.suite, args.out, _build_config(args),
                             args.axis, values)
    print(path)
    return 0


def _cmd_fit(args) -> int:
    fitted = harness.cmd_fit(args.suite, args.grid, args.out_file,
                             _build_config(args))
    print(json.dumps({k: v for k, v in fitted.items() if k != "_fit_trace"},
                     indent=2, sort_keys=True))
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the run settings")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, dest="time_limit")
    p.add_argument("--mode", choices=["composite", "vnd"], default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drsync",
        description="Minimize bus drivers for a day of rides with mid-route "
                    "handovers under EU hours-of-service rules.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance end to end")
    sp.add_argument("instance")
    sp.add_argument("--out", default=".")
    sp.add_argument("--policy", choices=sorted(POLICY_FLAG))
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("bounds", help="print the constructive bounds")
    sp.add_argument("instance")
    sp.add_argument("--policy", choices=sorted(POLICY_FLAG))
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("oracle", help="exhaustive optimum for micro instances")
    sp.add_argument("instance")
    sp.add_argument("--policy", choices=sorted(POLICY_FLAG))
    sp.add_argument("--max-rides", type=int, default=4)
    sp.add_argument("--max-arcs", type=int, default=300)
    sp.add_argument("--witness", action="store_true",
                    help="include the witness routes in the output")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("generate", help="write synthetic instances")
    sp.add_argument("--out", required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lines", type=int, default=2)
    sp.add_argument("--rides-per-line", type=int, default=2)
    sp.add_argument("--segments", type=int, default=2)
    sp.add_argument("--stations", type=int, default=1)
    sp.add_argument("--drive-min", type=int, default=30)
    sp.add_argument("--drive-max", type=int, default=120)
    sp.add_argument("--overlap", choices=["parallel", "sequential", "mixed"],
                    default="mixed")
    sp.add_argument("--theta", type=int, default=10)
    sp.add_argument("--zeta", type=int, default=10)
    sp.add_argument("--ell", type=int, default=10)
    sp.add_argument("--policy", choices=sorted(POLICY_FLAG), default="full")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("bench", help="run methods over a suite directory")
    sp.add_argument("suite")
    sp.add_argument("--out", default="bench_out")
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--methods", nargs="+", choices=list(harness.METHODS))
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("ablate", help="component ablation variants 0-6")
    sp.add_argument("suite")
    sp.add_argument("--out", default="ablate_out")
    sp.add_argument("--runs", type=int, default=None)
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_ablate)

    sp = sub.add_parser("compare-bounds", help="constructive vs destructive bounds")
    sp.add_argument("suite")
    sp.add_argument("--out", default="bounds_out")
    sp.add_argument("--lp-cmd", default=None,
                    help="external LP solver command; receives the .lp path")
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_compare_bounds)

    sp = sub.add_parser("sweep", help="re-solve a suite along a parameter axis")
    sp.add_argument("suite")
    sp.add_argument("--axis", required=True, choices=sorted(harness.SWEEP_DEFAULTS))
    sp.add_argument("--values", nargs="+")
    sp.add_argument("--out", default="sweep_out")
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("fit", help="one-at-a-time parameter fitting")
    sp.add_argument("suite")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--out-file", default="fitted_config.json")
    _add_config_flags(sp)
    sp.set_defaults(fn=_cmd_fit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # input errors and internal failures alike: one line, exit 1
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
