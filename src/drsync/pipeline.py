"""End-to-end solve pipeline with destructive bound improvement.

Stages: greedy construction, local search, constructive bounds, then, if a
gap remains, destructive bound improvement (refute driver counts from the
lower bound upward on objective-capped restricted problems) and finally
one exact solve for the rest of the budget, seeded with the best incumbent,
that runs local search on every new incumbent it finds. Each stage can be
toggled off for component studies.

The two cheap bounds, lb1 and lb2, come with the graph; the time-window
sweep lb3 (``compute_bounds``) runs after CH+LS, and only if there is no
incumbent or it misses max(lb1, lb2). lb3 is at least that maximum and at
most the optimum, so an incumbent that meets it fixes lb3 there and the
sweep could change no output. The rule holds for each component too.

Right after the whole instance's graph, the instance the graph was built
from (the one ``instance.filter_stations`` leaves) is split into its
independent components (``instance.decompose``): groups of rides that
share no stop or usable station, which no driver can move between. Every
stage works on each component in turn over the one time graph:
construction, then local search, DBI and the exact solve, each with
an equal share of the stage's time left, so time one leaves unused rolls on
to the next. The run's solution joins the components' routes and plans. If
it meets the whole instance's constructive bound the run stops there.
Otherwise a component whose incumbent meets its own max(lb1, lb2) is
closed at that value, with no sweep and no model; every other component
gets its own constructive bounds and model, and one whose incumbent meets
its bound is closed. dLB is the larger of the whole instance's
constructive bound and the sum of the components' dLBs.
An instance that does not split is one component, which differs from the
instance only in the stops no ride uses and the station accesses no arc
uses.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from .bounds import compute_bounds, lower_bound_parallel, lower_bound_steering
from .instance import Instance, check_instance, decompose
from .mip import Model, SolverConfig, build_model, restrict, solve
from .search import ConstructionError, SearchConfig, construct, local_search
from .solution import Solution
from .timegraph import TimeGraph, build_graph, graph_stats

FOUND_CH_LS = "ch_ls"
FOUND_CALLBACK = "ls_callback"
FOUND_DBI = "dbi"
FOUND_MIP = "mip"

DBI_OPTIMAL = "optimal"
DBI_BOUND_ONLY = "bound_only"
DBI_INFEASIBLE = "infeasible"

# what a DBI cap's solve concluded, by its status; any other is a timeout
CAP_OUTCOMES = {"infeasible": "refuted", "optimal": "optimal"}


@dataclass(frozen=True)
class DbmhConfig:
    eta_lb: float = 600.0       # destructive-improvement budget
    eta_mip: float = 60.0       # ignored; kept until the benchmark stops passing it
    eta_ls: float = 10.0        # local-search budget per incumbent callback
    global_limit: float = 3600.0  # the exact solve gets whatever is left of it
    p: float = SearchConfig.p     # local search's one setting: its selection skew
    use_ch: bool = True
    use_ls: bool = True
    use_dbi: bool = True
    use_cb: bool = True
    use_mip: bool = True
    extend_time_on_disable: bool = False
    seed: int = 0

    def __post_init__(self):
        SearchConfig(p=self.p)   # checks p
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
    # per component DBI and the B&B worked on: rides, dlb, objective and the
    # stage that closed it (ch_ls, dbi, mip) or "open"
    parts: list[dict] = field(default_factory=list)
    # per DBI cap tried, in order: part index, cap, outcome (refuted,
    # optimal, timeout), B&B nodes, children the identical-ride rule dropped
    # and seconds
    dbi_log: list[dict] = field(default_factory=list)
    # per final solve, parts in order: part index, outcome (optimal,
    # infeasible, timeout), B&B nodes, children the identical-ride rule
    # dropped and seconds
    mip_log: list[dict] = field(default_factory=list)
    # the whole instance's constructive bounds, which of them set clb (the
    # first to reach it) and the size of the time graph
    bounds: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        if self.objective in (None, 0) or self.status == "optimal":
            return 0.0
        return (self.objective - self.final_lb) / self.objective

    def to_dict(self) -> dict:
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
        return out

    def timings_dict(self) -> dict:
        return {
            "phase_timings": {k: round(v, 6) for k, v in self.phase_timings.items()},
            "incumbent_log": [[round(t, 6), f] for t, f in self.incumbent_log],
            "parts": self.parts,
            "bounds": self.bounds,
            "dbi_log": self.dbi_log,
            "mip_log": self.mip_log,
        }


def destructive_bound_improvement(
    model: Model,
    lb: int,
    s: Solution | None,
    eta_lb: float,
    cap_log: list[dict] | None = None,
) -> tuple[int, str, Solution | None]:
    """Raise lb by refuting P(lb) until one is feasible (then it is optimal).

    Requires lb to be a valid lower bound on entry; every increment is
    justified by an exhausted search, so it stays valid throughout. Each
    cap's solve is appended to `cap_log`, if given, as its cap, outcome
    (refuted, optimal or timeout), B&B nodes, children the identical-ride
    rule dropped and seconds.
    """
    deadline = _time.monotonic() + eta_lb
    while True:
        if s is not None and s.objective == lb:
            return lb, DBI_OPTIMAL, s
        if lb > model.bounds.ub:
            return lb, DBI_INFEASIBLE, None
        remaining = deadline - _time.monotonic()
        if remaining <= 0:
            return lb, DBI_BOUND_ONLY, None
        restricted = replace(restrict(model, lb), objective_floor=lb)
        t = _time.monotonic()
        out = solve(restricted, SolverConfig(time_limit=remaining))
        if cap_log is not None:
            cap_log.append({
                "cap": lb, "outcome": CAP_OUTCOMES.get(out.status, "timeout"),
                "nodes": out.nodes, "symmetry_drops": out.symmetry_drops,
                "seconds": round(_time.monotonic() - t, 6)})
        if out.status == "optimal":
            return lb, DBI_OPTIMAL, out.best_solution
        if out.status == "infeasible":
            lb += 1
            continue
        return lb, DBI_BOUND_ONLY, None   # timeout inside the restricted solve


@dataclass
class _Part:
    """One independent component of the instance and its share of the run."""

    instance: Instance
    floor: int = 0             # its max(lb1, lb2), which local search stops at
    best: Solution | None = None
    model: Model | None = None  # built past the whole clb, unless max(lb1, lb2) closes it
    lb: int = 0                # its constructive bound, raised by DBI
    closed: str | None = None  # the stage that proved `best` optimal

    def report(self) -> dict:
        return {
            "rides": len(self.instance.rides),
            "dlb": self.lb,
            "objective": self.best.objective if self.best is not None else None,
            "closed": self.closed or "open",
        }


def _join(graph: TimeGraph, parts: list[_Part]) -> Solution | None:
    """The whole instance's solution made of the parts' incumbents, if each has one."""
    if any(p.best is None for p in parts):
        return None
    return Solution(graph, [r for p in parts for r in p.best.routes],
                    {rid: rp for p in parts for rid, rp in p.best.plan.items()})


def _shares(parts: list[_Part], end: float):
    """Each part with an equal share of the time left until `end`.

    Shares are taken in turn, so time a part leaves unused rolls on to the
    next ones; parts reached after `end` are not yielded.
    """
    for i, part in enumerate(parts):
        left = end - _time.monotonic()
        if left <= 0:
            return
        yield part, left / (len(parts) - i)


def run(instance: Instance, config: DbmhConfig | None = None,
        instance_id: str | None = None) -> RunReport:
    """Full pipeline; honors component toggles and the global time limit."""
    config = config or DbmhConfig()
    t0 = _time.monotonic()
    deadline = t0 + config.global_limit
    timings: dict[str, float] = {}
    dbi_log: list[dict] = []
    mip_log: list[dict] = []
    log: list[tuple[float, int]] = []

    def search_config(t_end):
        return SearchConfig(p=config.p, seed=config.seed, t_end=t_end)

    def clock(name, since):
        timings[name] = timings.get(name, 0.0) + (_time.monotonic() - since)

    def remaining():
        return deadline - _time.monotonic()

    t = _time.monotonic()
    instance = check_instance(instance)
    graph = build_graph(instance)
    lb1 = lower_bound_steering(instance)
    lb2 = lower_bound_parallel(instance)
    # split what the graph can use: a station no arc reaches ties no rides.
    # An instance with no rides has no components; it is one empty part
    parts = [_Part(c, max(lower_bound_steering(c), lower_bound_parallel(c)))
             for c in decompose(graph.instance)] or [_Part(graph.instance)]
    clock("prep", t)

    best: Solution | None = None
    found_by: str | None = None
    bounded = False     # the parts are bounded, and reported, past the whole clb

    if config.use_ch:
        t = _time.monotonic()
        for part in parts:
            try:
                part.best = construct(part.instance, graph)
            except ConstructionError:
                pass
        best = _join(graph, parts)
        if best is not None:
            found_by = FOUND_CH_LS
            log.append((_time.monotonic() - t0, best.objective))
        clock("ch", t)

    if best is not None and config.use_ls:
        t = _time.monotonic()
        ls_end = max(deadline, t + 0.01)    # local search gets at least 0.01 s
        for part, share in _shares(parts, ls_end):
            part.best = local_search(part.best, part.instance, graph,
                                     search_config(_time.monotonic() + share), lb=part.floor)
        improved = _join(graph, parts)
        if improved.objective < best.objective:
            log.append((_time.monotonic() - t0, improved.objective))
        best = improved
        clock("ls", t)

    # lb3 is swept only if it can matter (module docstring)
    t = _time.monotonic()
    if best is not None and best.objective == max(lb1, lb2):
        clb = lb3 = best.objective
    else:
        bounds = compute_bounds(instance)
        clb, lb3 = bounds.lb, bounds.lb3
    clock("prep", t)
    bound_values = {"lb1": lb1, "lb2": lb2, "lb3": lb3}
    stats = graph_stats(graph)
    bound_info = {
        **bound_values,
        "clb_set_by": next(k for k, v in bound_values.items() if v == clb),
        "graph_nodes": stats.n_nodes,
        "graph_arcs": stats.n_arcs,
    }

    def lower_bounds():
        """dLB, and the best bound proven: a closed part adds its optimum."""
        dlb = max(clb, sum(p.lb for p in parts))
        return dlb, max(dlb, sum(p.best.objective if p.closed else p.lb for p in parts))

    def finish(status):
        objective = best.objective if best is not None else None
        dlb, proven = lower_bounds()
        return RunReport(
            status=status, objective=objective,
            final_lb=objective if status == "optimal" else proven,
            clb=clb, dlb=dlb, phase_timings=timings, found_by=found_by,
            incumbent_log=log, solution=best, instance_id=instance_id,
            seed=config.seed,
            parts=[p.report() for p in parts] if bounded else [],
            bounds=bound_info, dbi_log=dbi_log, mip_log=mip_log,
        )

    if best is not None and best.objective == clb:
        return finish("optimal")

    t = _time.monotonic()
    bounded = True
    for part in parts:
        # lb3 is swept only if it can matter, here as for the whole instance
        if part.best is not None and part.best.objective == part.floor:
            part.lb, part.closed = part.best.objective, FOUND_CH_LS
            continue
        part.model = build_model(part.instance, graph, compute_bounds(part.instance))
        part.lb = part.model.bounds.lb
        if part.best is not None and part.best.objective == part.lb:
            part.closed = FOUND_CH_LS
    clock("prep", t)
    if all(p.closed for p in parts):
        return finish("optimal")

    index = {id(p): i for i, p in enumerate(parts)}
    if config.use_dbi and remaining() > 0:
        t = _time.monotonic()
        budget = config.eta_lb
        if config.extend_time_on_disable and not config.use_mip:
            budget = config.global_limit
        phase_end = t + min(budget, max(remaining(), 0.01))
        for part, share in _shares([p for p in parts if not p.closed], phase_end):
            caps: list[dict] = []
            part.lb, dbi_status, dbi_sol = destructive_bound_improvement(
                part.model, part.lb, part.best, share, caps)
            dbi_log += [{"part": index[id(part)], **c} for c in caps]
            if dbi_status == DBI_INFEASIBLE:
                clock("dbi", t)
                return finish("infeasible")
            if dbi_status == DBI_OPTIMAL:
                part.closed = FOUND_DBI
                if dbi_sol is not part.best:
                    found_by = FOUND_DBI
                    part.best = dbi_sol
                    best = _join(graph, parts)
                    if best is not None:
                        log.append((_time.monotonic() - t0, best.objective))
        clock("dbi", t)
        if all(p.closed for p in parts):
            # optimality was established here, whichever object carries it
            found_by = FOUND_DBI
            return finish("optimal")

    if config.use_mip and remaining() > 0:
        t = _time.monotonic()
        for part, share in _shares([p for p in parts if not p.closed], deadline):
            start = _time.monotonic()
            limit = max(share, 0.01)
            part_end = start + limit
            floor_model = replace(part.model, objective_floor=part.lb)
            stage_origin: dict[int, str] = {}

            def callback(sol: Solution) -> Solution | None:
                # the callback runs inside the solve: it must not outlast the part's share
                now = _time.monotonic()
                cfg = search_config(min(now + config.eta_ls, max(part_end, now + 0.01)))
                better = local_search(sol, part.instance, graph, cfg, lb=part.floor)
                if better.objective < sol.objective:
                    stage_origin[id(better)] = FOUND_CALLBACK
                    return better
                return None

            # one solve per part, from its share of the best incumbent if there is one
            out = solve(floor_model, SolverConfig(
                time_limit=limit,
                start_solution=part.best,
                incumbent_callback=callback if config.use_cb else None,
            ))
            mip_log.append({
                "part": index[id(part)],
                "outcome": out.status if out.status in ("optimal", "infeasible") else "timeout",
                "nodes": out.nodes, "symmetry_drops": out.symmetry_drops,
                "seconds": round(_time.monotonic() - start, 6)})
            others = [p.best.objective for p in parts if p is not part and p.best is not None]
            if len(others) == len(parts) - 1:
                for dt, f in out.incumbent_log:
                    log.append((start - t0 + dt, sum(others) + f))
            if out.status == "infeasible":
                clock("mip", t)
                return finish("infeasible")
            # the solve only ever adopts strictly better incumbents than its start
            if out.best_solution is not None and out.best_solution is not part.best:
                found_by = stage_origin.get(id(out.best_solution), FOUND_MIP)
                part.best = out.best_solution
                best = _join(graph, parts)
            if out.status == "optimal":
                part.closed = FOUND_MIP
        clock("mip", t)

    if best is None:
        return finish("no_solution")
    return finish("optimal" if best.objective == lower_bounds()[1] else "feasible")
