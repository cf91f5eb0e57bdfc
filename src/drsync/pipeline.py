"""End-to-end solve pipeline with destructive bound improvement.

Stages: constructive bounds, greedy construction, local search, then, if a
gap remains, destructive bound improvement (refute driver counts from the
lower bound upward on objective-capped restricted problems) and finally
one exact solve for the rest of the budget, seeded with the best incumbent,
that runs local search on every new incumbent it finds. Each stage can be
toggled off for component studies.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from .bounds import compute_bounds
from .instance import Instance, check_instance
from .mip import Model, SolverConfig, build_model, restrict, solve
from .search import (
    ConstructionError,
    SearchConfig,
    construct,
    local_search,
)
from .solution import Solution
from .timegraph import build_graph

FOUND_CH_LS = "ch_ls"
FOUND_CALLBACK = "ls_callback"
FOUND_DBI = "dbi"
FOUND_MIP = "mip"

DBI_OPTIMAL = "optimal"
DBI_BOUND_ONLY = "bound_only"
DBI_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class DbmhConfig:
    eta_lb: float = 600.0       # destructive-improvement budget
    eta_mip: float = 60.0       # ignored; kept until the benchmark stops passing it
    eta_ls: float = 10.0        # local-search budget per incumbent callback
    global_limit: float = 3600.0  # the exact solve gets whatever is left of it
    search: SearchConfig = field(default_factory=SearchConfig)
    use_ch: bool = True
    use_ls: bool = True
    use_dbi: bool = True
    use_cb: bool = True
    use_mip: bool = True
    extend_time_on_disable: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("eta_lb", "eta_ls", "global_limit"):
            v = getattr(self, name)
            if v <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("eta_lb", "eta_ls"):
            if getattr(self, name) > self.global_limit:
                raise ValueError(f"{name} exceeds the global limit")


@dataclass
class RunReport:
    status: str                       # optimal | feasible | infeasible | no_solution
    objective: int | None
    final_lb: int
    clb: int
    dlb: int
    phase_timings: dict[str, float]
    found_by: str | None
    incumbent_log: list[tuple[float, int]]
    solution: Solution | None = None
    instance_id: str | None = None
    seed: int = 0
    # B&B nodes per phase that ran: "dbi_caps" (one count per cap), "mip"
    bb_nodes: dict[str, int | list[int]] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        if self.objective in (None, 0) or self.status == "optimal":
            return 0.0
        return (self.objective - self.final_lb) / self.objective

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "status": self.status,
            "objective": self.objective,
            "final_lb": self.final_lb,
            "clb": self.clb,
            "dlb": self.dlb,
            "found_by": self.found_by,
            "incumbent_objectives": [f for _, f in self.incumbent_log],
            "seed": self.seed,
        }
        if self.instance_id is not None:
            out["instance"] = self.instance_id
        if include_timings:
            out["phase_timings"] = {k: round(v, 6) for k, v in self.phase_timings.items()}
            out["incumbent_log"] = [[round(t, 6), f] for t, f in self.incumbent_log]
        return out

    def timings_dict(self) -> dict:
        return {
            "phase_timings": {k: round(v, 6) for k, v in self.phase_timings.items()},
            "incumbent_log": [[round(t, 6), f] for t, f in self.incumbent_log],
            "bb_nodes": self.bb_nodes,
        }


def destructive_bound_improvement(
    model: Model,
    lb: int,
    s: Solution | None,
    eta_lb: float,
    cap_nodes: list[int] | None = None,
) -> tuple[int, str, Solution | None]:
    """Raise lb by refuting P(lb) until one is feasible (then it is optimal).

    Requires lb to be a valid lower bound on entry; every increment is
    justified by an exhausted search, so it stays valid throughout. The
    B&B node count of each cap's solve is appended to `cap_nodes` if given.
    """
    deadline = _time.monotonic() + eta_lb
    while True:
        if s is not None and s.objective == lb:
            return lb, DBI_OPTIMAL, s
        if lb > model.driver_count:
            return lb, DBI_INFEASIBLE, None
        remaining = deadline - _time.monotonic()
        if remaining <= 0:
            return lb, DBI_BOUND_ONLY, None
        restricted = replace(restrict(model, lb), objective_floor=lb)
        out = solve(restricted, SolverConfig(time_limit=remaining))
        if cap_nodes is not None:
            cap_nodes.append(out.nodes)
        if out.status == "optimal":
            return lb, DBI_OPTIMAL, out.best_solution
        if out.status == "infeasible":
            lb += 1
            continue
        return lb, DBI_BOUND_ONLY, None   # timeout inside the restricted solve


def run(instance: Instance, config: DbmhConfig | None = None,
        instance_id: str | None = None) -> RunReport:
    """Full pipeline; honors component toggles and the global time limit."""
    config = config or DbmhConfig()
    t0 = _time.monotonic()
    deadline = t0 + config.global_limit
    timings: dict[str, float] = {}
    bb_nodes: dict[str, int | list[int]] = {}
    log: list[tuple[float, int]] = []

    def clock(name, since):
        timings[name] = timings.get(name, 0.0) + (_time.monotonic() - since)

    def remaining():
        return deadline - _time.monotonic()

    t = _time.monotonic()
    instance = check_instance(instance)
    graph = build_graph(instance)
    bounds = compute_bounds(instance)
    model = build_model(graph, bounds)
    clock("prep", t)
    clb = bounds.lb
    dlb = clb

    best: Solution | None = None
    found_by: str | None = None
    proven_infeasible = False

    if config.use_ch:
        t = _time.monotonic()
        try:
            best = construct(instance, graph)
            found_by = FOUND_CH_LS
            log.append((_time.monotonic() - t0, best.objective))
        except ConstructionError:
            best = None
        clock("ch", t)

    if best is not None and config.use_ls:
        t = _time.monotonic()
        ls_budget = max(remaining(), 0.01)
        cfg = replace(config.search, deadline=ls_budget, seed=config.seed)
        improved = local_search(best, instance, graph, cfg)
        if improved.objective < best.objective:
            log.append((_time.monotonic() - t0, improved.objective))
        best = improved
        clock("ls", t)

    def finish(status):
        objective = best.objective if best is not None else None
        final_lb = objective if status == "optimal" else dlb
        return RunReport(
            status=status, objective=objective,
            final_lb=final_lb if final_lb is not None else dlb,
            clb=clb, dlb=dlb, phase_timings=timings, found_by=found_by,
            incumbent_log=log, solution=best, instance_id=instance_id,
            seed=config.seed, bb_nodes=bb_nodes,
        )

    if best is not None and best.objective == clb:
        return finish("optimal")

    if config.use_dbi and remaining() > 0:
        t = _time.monotonic()
        budget = config.eta_lb
        if config.extend_time_on_disable and not config.use_mip:
            budget = config.global_limit
        budget = min(budget, max(remaining(), 0.01))
        cap_nodes: list[int] = []
        bb_nodes["dbi_caps"] = cap_nodes
        dlb, dbi_status, dbi_sol = destructive_bound_improvement(
            model, clb, best, budget, cap_nodes)
        clock("dbi", t)
        if dbi_status == DBI_INFEASIBLE:
            proven_infeasible = True
        elif dbi_status == DBI_OPTIMAL:
            # optimality was established here, whichever object carries it
            found_by = FOUND_DBI
            if dbi_sol is not None and (best is None or dbi_sol.objective <= best.objective):
                if dbi_sol is not best:
                    best = dbi_sol
                    log.append((_time.monotonic() - t0, best.objective))
            return finish("optimal")

    if proven_infeasible:
        return finish("infeasible")

    if config.use_mip and remaining() > 0:
        t = _time.monotonic()
        offset = t - t0
        floor_model = replace(model, objective_floor=max(model.objective_floor, dlb))
        stage_origin: dict[int, str] = {}

        def callback(sol: Solution) -> Solution | None:
            # the callback runs inside the solve: it must not outlast the run
            cfg = replace(config.search, deadline=min(config.eta_ls, max(remaining(), 0.01)),
                          seed=config.seed)
            better = local_search(sol, instance, graph, cfg)
            if better.objective < sol.objective:
                stage_origin[id(better)] = FOUND_CALLBACK
                return better
            return None

        # one solve for the rest of the budget, from the best incumbent if there is one
        out = solve(floor_model, SolverConfig(
            time_limit=max(remaining(), 0.01),
            start_solution=best,
            incumbent_callback=callback if config.use_cb else None,
        ))
        bb_nodes["mip"] = out.nodes
        for dt, f in out.incumbent_log:
            log.append((offset + dt, f))
        clock("mip", t)
        if out.status == "infeasible":
            return finish("infeasible")
        # the solve only ever adopts strictly better incumbents than its start
        if out.best_solution is not None and out.best_solution is not best:
            found_by = stage_origin.get(id(out.best_solution), FOUND_MIP)
            best = out.best_solution
        if out.status == "optimal":
            return finish("optimal")

    if best is not None:
        return finish("optimal" if best.objective == dlb else "feasible")
    return finish("no_solution")
