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
from dataclasses import fields, replace

from .bounds import compute_bounds
from .generator import GeneratorConfig, generate_synthetic
from .instance import (
    Instance,
    InstanceError,
    decompose,
    filter_stations,
    load_instance,
    save_instance,
    split_by_line,
)
from .pipeline import DbmhConfig, RunReport, run
from .search import ConstructionError
from .timegraph import size_class

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


# the DbmhConfig fields a config file keeps in its "search" object
_SEARCH_KEYS = ("p",)


def config_from_dict(data: dict) -> DbmhConfig:
    data = dict(data)
    search = dict(data.pop("search", {}))
    search.pop("seed", None)   # older files carry it; the run's seed sets it
    # older files also name local search's one strategy
    mode = search.pop("mode", "composite")
    if mode != "composite":
        raise ValueError(
            f"search.mode must be 'composite', local search's one strategy, got {mode!r}")
    top = {f.name for f in fields(DbmhConfig)} - set(_SEARCH_KEYS)
    bad = (set(data) - top) | (set(search) - set(_SEARCH_KEYS))
    if bad:
        raise ValueError(f"unknown config keys {sorted(bad)}")
    return DbmhConfig(**data, **search)


def config_to_dict(cfg: DbmhConfig) -> dict:
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "eta_mip"}
    out["search"] = {k: out.pop(k) for k in _SEARCH_KEYS}
    return out


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
) -> tuple[list[dict], dict[str, int]]:
    """One row per (config label, instance, seed); returns rows and proven optima."""
    rows = []
    proven: dict[str, int] = {}
    for label in sorted(configs):
        cfg = configs[label]
        for iid, inst in instances:
            for seed in seeds:
                try:
                    rep = run(inst, replace(cfg, seed=seed), instance_id=iid)
                except (InstanceError, ValueError):
                    # no graph of an instance that failed: no size class either
                    rows.append({
                        "label": label, "instance": iid, "size_class": "",
                        "seed": seed, "status": "error", "report": None,
                    })
                    continue
                rows.append({
                    "label": label, "instance": iid,
                    "size_class": size_class(rep.bounds["graph_arcs"]),
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


def _run_and_write(suite_dir: str, out_dir: str, prefix: str,
                   instances: list[tuple[str, Instance]], meta: dict,
                   configs: dict[str, DbmhConfig], runs: int | None) -> str:
    """Run the suite under each config, record proven optima, write the four CSVs."""
    seeds = meta.get("seeds")
    if seeds is None:
        seeds = list(range(runs if runs is not None else meta.get("runs", 1)))
    rows, proven = run_suite(instances, configs, seeds)
    best = update_best_known(suite_dir, proven)
    (dh, drows), (ah, arows), (th, trows), (tah, tarows) = tabulate_rows(rows, best)
    _write_csv(os.path.join(out_dir, f"{prefix}.csv"), dh, drows)
    _write_csv(os.path.join(out_dir, f"{prefix}_aggregate.csv"), ah, arows)
    _write_csv(os.path.join(out_dir, f"{prefix}_timings.csv"), th, trows)
    _write_csv(os.path.join(out_dir, f"{prefix}_aggregate_timings.csv"), tah, tarows)
    return os.path.join(out_dir, f"{prefix}_aggregate.csv")


def cmd_bench(suite_dir: str, out_dir: str, base: DbmhConfig,
              runs: int | None = None, methods: list[str] | None = None) -> str:
    instances, meta = load_suite(suite_dir)
    methods = methods or meta.get("methods", list(METHODS))
    configs = {m: method_config(m, base) for m in methods}
    return _run_and_write(suite_dir, out_dir, "bench", instances, meta, configs, runs)


def cmd_ablate(suite_dir: str, out_dir: str, base: DbmhConfig,
               runs: int | None = None) -> str:
    instances, meta = load_suite(suite_dir)
    configs = {
        f"variant{v}": replace(base, **flags) for v, flags in ABLATION_VARIANTS.items()
    }
    return _run_and_write(suite_dir, out_dir, "ablation", instances, meta, configs, runs)


# ---------------------------------------------------------------------------
# compare-bounds
# ---------------------------------------------------------------------------

def cmd_compare_bounds(suite_dir: str, out_dir: str, base: DbmhConfig) -> str:
    """Constructive bounds per instance beside the dLB a bound-only run proves.

    The dLB is ``run``'s own: CH+LS, then DBI on each independent component
    within ``eta_lb``, with the exact solve and its callback switched off.
    """
    instances, _meta = load_suite(suite_dir)
    header = ["instance", "size_class", "lb1", "lb2", "lb3", "lb", "dlb"]
    bound_only = replace(base, use_mip=False, use_cb=False, extend_time_on_disable=False)
    rows = []
    n = dom1 = dom2 = dom3 = equal = 0
    for iid, inst in instances:
        rep = run(inst, bound_only, instance_id=iid)
        b = rep.bounds
        lb1, lb2, lb3 = b["lb1"], b["lb2"], b["lb3"]
        rows.append([iid, size_class(b["graph_arcs"]), lb1, lb2, lb3, rep.clb, rep.dlb])
        n += 1
        dom1 += lb1 > lb2
        dom2 += lb2 > lb1
        dom3 += lb3 > max(lb1, lb2)
        equal += lb1 == lb2
    summary = [
        ["share_lb1_dominates_pct", _fmt(100.0 * dom1 / n if n else 0.0)],
        ["share_lb2_dominates_pct", _fmt(100.0 * dom2 / n if n else 0.0)],
        ["share_lb3_dominates_pct", _fmt(100.0 * dom3 / n if n else 0.0)],
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
                if value == "line" and total is not None and any(
                        len({r.line_id for r in comp.rides}) > 1
                        for comp in decompose(filter_stations(inst))):
                    # lines that share a stop or usable station are not
                    # independent: their bounds do not add up, only the
                    # whole instance's holds
                    lbsum = compute_bounds(inst).lb
                    status = "optimal" if total == lbsum else "feasible"
                rows.append([iid, axis, value, status, _fmt(total),
                             lbsum if total is not None else "", len(parts)])
                timing_rows.append([iid, axis, value, _fmt(elapsed)])
                continue
            try:
                variant = _with_axis(inst, axis, value)
                rep = run(variant, base, instance_id=iid)
            except (InstanceError, ValueError, ConstructionError):
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

    for name in FIT_ORDER:
        if name not in grid:
            continue
        # every value runs before any is scored, so all are scored against
        # the same best objectives
        trials = [evaluate(replace(current, **{name: value})) for value in grid[name]]
        best_value = None
        best_score = None
        for value, outs in zip(grid[name], trials):
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
            current = replace(current, **{name: best_value})

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
