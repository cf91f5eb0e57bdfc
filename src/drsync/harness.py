"""Experiment harness: benchmark suites, ablations, bound comparisons, sweeps.

A suite is a directory of instance files plus an optional ``suite.json``
({"seeds": [...], "runs": n, "methods": [...]}) and a ``best_known.json``
map that only proven-optimal results may update. All primary CSV/JSON
outputs are deterministic for fixed seeds; wall-clock measurements go to
``*_timings`` sidecar files so byte-identity survives reruns.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import tempfile
from dataclasses import replace

from .bounds import compute_bounds
from .generator import GeneratorConfig, generate_synthetic
from .instance import (
    Instance,
    InstanceError,
    load_instance,
    save_instance,
    split_by_line,
)
from .mip import build_model, export_model
from .pipeline import DbmhConfig, RunReport, destructive_bound_improvement, run
from .search import SearchConfig, ConstructionError, construct, local_search
from .timegraph import build_graph, graph_stats

METHOD_DBMH = "dbmh"
METHOD_CH_LS = "ch_ls"
METHOD_MIP = "mip"
METHODS = (METHOD_MIP, METHOD_CH_LS, METHOD_DBMH)

ABLATION_VARIANTS: dict[int, dict] = {
    0: {},
    1: {"use_dbi": False},
    2: {"use_ch": False},
    3: {"use_ls": False},
    4: {"use_cb": False},
    5: {"use_mip": False, "use_cb": False, "extend_time_on_disable": True},
    6: {"use_mip": False, "use_cb": False, "extend_time_on_disable": False},
}

FIT_ORDER = ("eta_lb", "eta_ls", "p")


def method_config(method: str, base: DbmhConfig) -> DbmhConfig:
    if method == METHOD_DBMH:
        return base
    if method == METHOD_CH_LS:
        return replace(base, use_dbi=False, use_mip=False, use_cb=False)
    if method == METHOD_MIP:
        return replace(base, use_ch=False, use_ls=False, use_dbi=False, use_cb=False)
    raise ValueError(f"unknown method {method!r}")


def config_from_dict(data: dict) -> DbmhConfig:
    data = dict(data)
    search = data.pop("search", {})
    known_search = {"p", "mode", "seed"}
    known = {"eta_lb", "eta_mip", "eta_ls", "global_limit", "seed",
             "use_ch", "use_ls", "use_dbi", "use_cb", "use_mip",
             "extend_time_on_disable"}
    bad = (set(data) - known) | (set(search) - known_search)
    if bad:
        raise ValueError(f"unknown config keys {sorted(bad)}")
    return DbmhConfig(search=SearchConfig(**search), **data)


def config_to_dict(cfg: DbmhConfig) -> dict:
    return {
        "eta_lb": cfg.eta_lb, "eta_ls": cfg.eta_ls,
        "global_limit": cfg.global_limit, "seed": cfg.seed,
        "use_ch": cfg.use_ch, "use_ls": cfg.use_ls, "use_dbi": cfg.use_dbi,
        "use_cb": cfg.use_cb, "use_mip": cfg.use_mip,
        "extend_time_on_disable": cfg.extend_time_on_disable,
        "search": {"p": cfg.search.p, "mode": cfg.search.mode,
                   "seed": cfg.search.seed},
    }


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def load_suite(suite_dir: str) -> tuple[list[tuple[str, Instance]], dict]:
    meta = {}
    meta_path = os.path.join(suite_dir, "suite.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    rows = []
    for name in sorted(os.listdir(suite_dir)):
        if not name.endswith(".json") or name in ("suite.json", "best_known.json"):
            continue
        rows.append((name[:-5], load_instance(os.path.join(suite_dir, name))))
    return rows, meta


def _best_known_path(suite_dir: str) -> str:
    return os.path.join(suite_dir, "best_known.json")


def load_best_known(suite_dir: str) -> dict[str, int]:
    path = _best_known_path(suite_dir)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return {k: int(v) for k, v in json.load(fh).items()}
    return {}


def update_best_known(suite_dir: str, proven: dict[str, int]) -> dict[str, int]:
    """Merge proven-optimal objectives into best_known.json."""
    best = load_best_known(suite_dir)
    for k, v in proven.items():
        if k not in best or v < best[k]:
            best[k] = v
    with open(_best_known_path(suite_dir), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(best.items())), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return best


def _size_class(inst: Instance) -> str:
    return graph_stats(build_graph(inst)).size_class


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


# ---------------------------------------------------------------------------
# bench / ablate
# ---------------------------------------------------------------------------

def run_suite(
    instances: list[tuple[str, Instance]],
    configs: dict[str, DbmhConfig],
    seeds: list[int],
    best_known: dict[str, int],
) -> tuple[list[dict], dict[str, int]]:
    """One row per (config label, instance, seed); returns rows and proven optima."""
    rows = []
    proven: dict[str, int] = {}
    for label in sorted(configs):
        cfg = configs[label]
        for iid, inst in instances:
            size = _size_class(inst)
            for seed in seeds:
                try:
                    rep = run(inst, replace(cfg, seed=seed), instance_id=iid)
                except (InstanceError, ValueError) as exc:
                    rows.append({
                        "label": label, "instance": iid, "size_class": size,
                        "seed": seed, "status": "error", "error": str(exc),
                        "report": None,
                    })
                    continue
                rows.append({
                    "label": label, "instance": iid, "size_class": size,
                    "seed": seed, "status": rep.status, "report": rep,
                })
                if rep.status == "optimal":
                    cur = proven.get(iid)
                    if cur is None or rep.objective < cur:
                        proven[iid] = rep.objective
    return rows, proven


def _delta_z(objective, best) -> float | None:
    if objective is None or best in (None, 0):
        return None
    return 100.0 * (objective - best) / best


def tabulate_rows(rows: list[dict], best_known: dict[str, int]):
    detail_header = ["label", "size_class", "instance", "seed", "status",
                     "objective", "clb", "dlb", "final_lb", "found_by",
                     "gap_pct", "delta_z_pct"]
    detail, timing_detail = [], []
    agg: dict[tuple[str, str], dict] = {}
    for row in sorted(rows, key=lambda r: (r["label"], r["size_class"],
                                           r["instance"], r["seed"])):
        rep: RunReport | None = row["report"]
        best = best_known.get(row["instance"])
        if rep is None:
            detail.append([row["label"], row["size_class"], row["instance"],
                           row["seed"], row["status"], "", "", "", "", "", "", ""])
            continue
        dz = _delta_z(rep.objective, best)
        gap = 100.0 * rep.gap
        detail.append([
            row["label"], row["size_class"], row["instance"], row["seed"],
            rep.status, _fmt(rep.objective), rep.clb, rep.dlb, rep.final_lb,
            rep.found_by or "", _fmt(gap), _fmt(dz),
        ])
        timing_detail.append([
            row["label"], row["size_class"], row["instance"], row["seed"],
            _fmt(sum(rep.phase_timings.values())),
        ])
        key = (row["label"], row["size_class"])
        a = agg.setdefault(key, {"n": 0, "opt": 0, "feas": 0, "gaps": [],
                                 "dzs": [], "times": []})
        a["n"] += 1
        a["opt"] += rep.status == "optimal"
        a["feas"] += rep.status in ("optimal", "feasible")
        if rep.status in ("optimal", "feasible"):
            a["gaps"].append(gap)
            if dz is not None:
                a["dzs"].append(dz)
        a["times"].append(sum(rep.phase_timings.values()))

    agg_header = ["label", "size_class", "n", "solved_pct", "opt_solved_pct",
                  "mean_gap_pct", "mean_delta_z_pct"]
    agg_rows, agg_timing = [], []
    for (label, size), a in sorted(agg.items()):
        mean = lambda xs: sum(xs) / len(xs) if xs else None
        agg_rows.append([
            label, size, a["n"],
            _fmt(100.0 * a["feas"] / a["n"]),
            _fmt(100.0 * a["opt"] / a["n"]),
            _fmt(mean(a["gaps"])), _fmt(mean(a["dzs"])),
        ])
        agg_timing.append([label, size, a["n"], _fmt(mean(a["times"]))])
    return (detail_header, detail), (agg_header, agg_rows), (
        ["label", "size_class", "instance", "seed", "time_s"], timing_detail), (
        ["label", "size_class", "n", "mean_time_s"], agg_timing)


def cmd_bench(suite_dir: str, out_dir: str, base: DbmhConfig,
              runs: int | None = None, methods: list[str] | None = None) -> str:
    instances, meta = load_suite(suite_dir)
    seeds = meta.get("seeds")
    if seeds is None:
        seeds = list(range(runs if runs is not None else meta.get("runs", 1)))
    methods = methods or meta.get("methods", list(METHODS))
    configs = {m: method_config(m, base) for m in methods}
    rows, proven = run_suite(instances, configs, seeds, {})
    best = update_best_known(suite_dir, proven)
    (dh, drows), (ah, arows), (th, trows), (tah, tarows) = tabulate_rows(rows, best)
    _write_csv(os.path.join(out_dir, "bench.csv"), dh, drows)
    _write_csv(os.path.join(out_dir, "bench_aggregate.csv"), ah, arows)
    _write_csv(os.path.join(out_dir, "bench_timings.csv"), th, trows)
    _write_csv(os.path.join(out_dir, "bench_aggregate_timings.csv"), tah, tarows)
    return os.path.join(out_dir, "bench_aggregate.csv")


def cmd_ablate(suite_dir: str, out_dir: str, base: DbmhConfig,
               runs: int | None = None) -> str:
    instances, meta = load_suite(suite_dir)
    seeds = meta.get("seeds")
    if seeds is None:
        seeds = list(range(runs if runs is not None else meta.get("runs", 1)))
    configs = {
        f"variant{v}": replace(base, **flags) for v, flags in ABLATION_VARIANTS.items()
    }
    rows, proven = run_suite(instances, configs, seeds, {})
    best = update_best_known(suite_dir, proven)
    (dh, drows), (ah, arows), (th, trows), (tah, tarows) = tabulate_rows(rows, best)
    _write_csv(os.path.join(out_dir, "ablation.csv"), dh, drows)
    _write_csv(os.path.join(out_dir, "ablation_aggregate.csv"), ah, arows)
    _write_csv(os.path.join(out_dir, "ablation_timings.csv"), th, trows)
    _write_csv(os.path.join(out_dir, "ablation_aggregate_timings.csv"), tah, tarows)
    return os.path.join(out_dir, "ablation_aggregate.csv")


# ---------------------------------------------------------------------------
# compare-bounds
# ---------------------------------------------------------------------------

def _lp_bound(inst: Instance, lp_cmd: str) -> float | None:
    """Export the model and ask an external solver for its LP bound."""
    graph = build_graph(inst)
    model = build_model(graph, compute_bounds(inst))
    with tempfile.NamedTemporaryFile(suffix=".lp", delete=False) as fh:
        path = fh.name
    try:
        export_model(model, path)
        out = subprocess.run(lp_cmd.split() + [path], capture_output=True,
                             text=True, timeout=600, check=False)
        for tok in reversed(out.stdout.split()):
            try:
                return float(tok)
            except ValueError:
                continue
        return None
    finally:
        os.unlink(path)


def cmd_compare_bounds(suite_dir: str, out_dir: str, base: DbmhConfig,
                       lp_cmd: str | None = None) -> str:
    instances, _meta = load_suite(suite_dir)
    header = ["instance", "size_class", "lb1", "lb2", "lb", "dlb", "lp"]
    rows = []
    n = dom1 = dom2 = equal = 0
    for iid, inst in instances:
        graph = build_graph(inst)
        bounds = compute_bounds(inst)
        model = build_model(graph, bounds)
        try:
            start = local_search(construct(inst, graph), inst, graph,
                                 replace(base.search, seed=base.seed))
        except ConstructionError:
            start = None
        dlb, _status, _sol = destructive_bound_improvement(
            model, bounds.lb, start, base.eta_lb)
        lp = _lp_bound(inst, lp_cmd) if lp_cmd else None
        rows.append([iid, _size_class(inst), bounds.lb1, bounds.lb2,
                     bounds.lb, dlb, _fmt(lp)])
        n += 1
        dom1 += bounds.lb1 > bounds.lb2
        dom2 += bounds.lb2 > bounds.lb1
        equal += bounds.lb1 == bounds.lb2
    summary = [
        ["share_lb1_dominates_pct", _fmt(100.0 * dom1 / n if n else 0.0)],
        ["share_lb2_dominates_pct", _fmt(100.0 * dom2 / n if n else 0.0)],
        ["share_equal_pct", _fmt(100.0 * equal / n if n else 0.0)],
    ]
    _write_csv(os.path.join(out_dir, "bounds.csv"), header, rows)
    _write_csv(os.path.join(out_dir, "bounds_summary.csv"), ["metric", "value"], summary)
    return os.path.join(out_dir, "bounds.csv")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_DEFAULTS = {
    "theta_tw": (10, 30),
    "zeta": (5, 10, 30),
    "ell": (5, 10),
    "exchange_policy": ("none", "regular_stops", "regular_and_intermediate"),
    "decomposition": ("line", "whole"),
}


def _with_axis(inst: Instance, axis: str, value):
    if axis == "theta_tw":
        return replace(inst, theta_tw=int(value))
    if axis == "zeta":
        return replace(inst, zeta=int(value))
    if axis == "ell":
        return replace(inst, ell=int(value))
    if axis == "exchange_policy":
        return replace(inst, exchange_policy=str(value))
    raise ValueError(f"unknown sweep axis {axis!r}")


def cmd_sweep(suite_dir: str, out_dir: str, base: DbmhConfig, axis: str,
              values=None) -> str:
    instances, _meta = load_suite(suite_dir)
    values = tuple(values) if values else SWEEP_DEFAULTS[axis]
    header = ["instance", "axis", "value", "status", "objective", "final_lb", "parts"]
    rows = []
    timing_rows = []
    for iid, inst in instances:
        for value in values:
            if axis == "decomposition":
                parts = split_by_line(inst) if value == "line" else [inst]
                total = 0
                status = "optimal"
                elapsed = 0.0
                lbsum = 0
                for part in parts:
                    rep = run(part, base, instance_id=iid)
                    elapsed += sum(rep.phase_timings.values())
                    if rep.status in ("optimal", "feasible") and rep.objective is not None:
                        total += rep.objective
                        lbsum += rep.final_lb
                        if rep.status != "optimal":
                            status = "feasible"
                    else:
                        status = rep.status
                        total = None
                        break
                rows.append([iid, axis, value, status, _fmt(total),
                             lbsum if total is not None else "", len(parts)])
                timing_rows.append([iid, axis, value, _fmt(elapsed)])
                continue
            try:
                variant = _with_axis(inst, axis, value)
                rep = run(variant, base, instance_id=iid)
            except (InstanceError, ValueError, ConstructionError) as exc:
                rows.append([iid, axis, value, "error", "", "", ""])
                timing_rows.append([iid, axis, value, ""])
                continue
            rows.append([iid, axis, value, rep.status, _fmt(rep.objective),
                         rep.final_lb, ""])
            timing_rows.append([iid, axis, value,
                                _fmt(sum(rep.phase_timings.values()))])
    _write_csv(os.path.join(out_dir, f"sweep_{axis}.csv"), header, rows)
    _write_csv(os.path.join(out_dir, f"sweep_{axis}_timings.csv"),
               ["instance", "axis", "value", "time_s"], timing_rows)
    return os.path.join(out_dir, f"sweep_{axis}.csv")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(suite_dir: str, grid_path: str, out_path: str, base: DbmhConfig) -> dict:
    """One-at-a-time parameter fitting against the best objective seen."""
    with open(grid_path, encoding="utf-8") as fh:
        grid = json.load(fh)
    bad = set(grid) - set(FIT_ORDER)
    if bad:
        raise ValueError(f"unknown fit parameters {sorted(bad)}")
    instances, meta = load_suite(suite_dir)
    seeds = meta.get("seeds", [0])
    current = base
    best_seen: dict[str, int] = {}
    evaluations: list[tuple[str, object, float]] = []

    def apply(cfg: DbmhConfig, name: str, value) -> DbmhConfig:
        if name == "p":
            return replace(cfg, search=replace(cfg.search, p=value))
        return replace(cfg, **{name: value})

    def evaluate(cfg: DbmhConfig) -> list[tuple[str, int | None]]:
        outs = []
        for iid, inst in instances:
            for seed in seeds:
                rep = run(inst, replace(cfg, seed=seed), instance_id=iid)
                obj = rep.objective if rep.status in ("optimal", "feasible") else None
                outs.append((iid, obj))
                if obj is not None:
                    if iid not in best_seen or obj < best_seen[iid]:
                        best_seen[iid] = obj
        return outs

    trials: dict[tuple[str, int], list] = {}
    for name in FIT_ORDER:
        if name not in grid:
            continue
        for vi, value in enumerate(grid[name]):
            trials[(name, vi)] = evaluate(apply(current, name, value))
        best_value = None
        best_score = None
        for vi, value in enumerate(grid[name]):
            outs = trials.pop((name, vi))
            dzs = [
                _delta_z(obj, best_seen.get(iid))
                for iid, obj in outs
            ]
            dzs = [d for d in dzs if d is not None]
            score = sum(dzs) / len(dzs) if dzs else float("inf")
            evaluations.append((name, value, score))
            if best_score is None or score < best_score:
                best_score, best_value = score, value
        if best_value is not None:
            current = apply(current, name, best_value)

    fitted = config_to_dict(current)
    fitted["_fit_trace"] = [
        {"param": n, "value": v, "mean_delta_z_pct": round(s, 4)}
        for n, v, s in evaluations
    ]
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(fitted, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return fitted


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(out_dir: str, config: GeneratorConfig, seed: int, count: int = 1):
    os.makedirs(out_dir, exist_ok=True)
    made = []
    for i in range(count):
        inst, stats = generate_synthetic(config, seed + i)
        name = f"gen-{seed + i:04d}"
        save_instance(inst, os.path.join(out_dir, f"{name}.json"))
        made.append((name, stats))
    return made
