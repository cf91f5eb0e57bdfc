"""Per-layer spans and counters, recorded from outside the solver.

The tracer replaces the names that ``drsync`` looks up at call time with
timing wrappers and puts the originals back afterwards; no file under
``src/`` knows it exists:

- ``pipeline.<stage>`` for the eight stages ``pipeline.run`` calls;
- the entries of ``search.OPERATORS`` (``local_search`` reads the tuple on
  every iteration);
- ``search.check_feasibility`` (the candidate filter of the operators);
- ``solution.ConnectionPlanner.connect`` (the relocation BFS of local search).

Stage and operator calls become spans (id, parent id, name, start, end)
kept in memory; ``take`` turns them into per-layer times and call counts.
A ``local_search`` span whose parent is the warm ``mip.solve`` is the
incumbent callback. The two hot leaves, ``check_feasibility`` and
``connect``, run tens of thousands of times per instance, so they only add
to counters; that keeps the tracing overhead (``trace.overhead_s``) small.

Every layer time is inclusive: a span's duration covers its children.
"""

from __future__ import annotations

import time
from collections import defaultdict

OPERATOR_NAMES = (
    "reassign_segments", "postpone", "prepone", "insert_stop_random",
    "insert_stop_shortest_detour", "insert_stop_highest_sync", "remove_stop",
)

# pipeline module attribute -> span name
STAGES = {
    "check_instance": "instance.check_instance",
    "build_graph": "timegraph.build_graph",
    "compute_bounds": "bounds.compute_bounds",
    "build_model": "mip.build_model",
    "construct": "search.construct",
    "local_search": "search.local_search",
    "destructive_bound_improvement": "pipeline.dbi",
    "solve": "mip.solve",
}

SOLVE_TIMEOUT = ("feasible", "timeout_no_solution")

# Every per-layer metric with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "pipeline.run.s": "s",
    "timegraph.build_graph.s": "s",
    "timegraph.arcs": "count",
    "bounds.compute_bounds.s": "s",
    "mip.build_model.s": "s",
    "instance.check_instance.s": "s",
    "search.construct.s": "s",
    "search.local_search.s": "s",
    "search.local_search.calls": "count",
}
for _op in OPERATOR_NAMES:
    LAYER_METRICS.update({
        f"search.op.{_op}.s": "s",
        f"search.op.{_op}.calls": "count",
        f"search.op.{_op}.candidates": "count",
        f"search.op.{_op}.improving": "count",
    })
LAYER_METRICS.update({
    "solution.check_feasibility.s": "s",
    "solution.check_feasibility.calls": "count",
    "solution.check_feasibility.rejected": "count",
    "solution.connect.s": "s",
    "solution.connect.calls": "count",
    "solution.connect.unreachable": "count",
    "mip.solve.cap.s": "s",
    "mip.solve.cap.calls": "count",
    "mip.solve.cap.infeasible": "count",
    "pipeline.dbi.s": "s",
    "pipeline.dbi.caps_tried": "count",
    "pipeline.dbi.caps_refuted": "count",
    "mip.solve.cold.s": "s",
    "mip.solve.cold.calls": "count",
    "mip.solve.warm.s": "s",
    "mip.solve.warm.calls": "count",
    "mip.solve.timeouts": "count",
    "pipeline.callback_ls.s": "s",
    "pipeline.callback_ls.calls": "count",
    "pipeline.callback_ls.improved": "count",
    "oracle.brute_force.s": "s",
    "trace.overhead_s": "s",
})


def _improves(candidate, f0: int, th0: int) -> bool:
    # the acceptance test of search.local_search
    f = candidate.objective
    return f < f0 or (f == f0 and candidate.theta() > th0)


class Tracer:
    """Wraps the layer entry points of one ``drsync`` import; use as a context."""

    def __init__(self, pipeline, search, solution):
        self._pipeline = pipeline
        self._search = search
        self._planner = solution.ConnectionPlanner
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._solves_in_run = 0

    # -- spans --------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def run_instance(self, fn, *args, **kwargs):
        """Root span for one ``pipeline.run`` call."""
        self._solves_in_run = 0
        return self._call("pipeline.run", fn, args, kwargs)

    def take(self) -> dict[str, float]:
        """The per-layer values recorded since the last call, then reset."""
        v = self.values
        names = {sid: name for sid, _, name, _, _ in self.spans}
        for _, parent, name, start, end in self.spans:
            v[name + ".s"] += end - start
            v[name + ".calls"] += 1
            if name == "search.local_search" and names.get(parent) == "mip.solve.warm":
                v["pipeline.callback_ls.s"] += end - start
                v["pipeline.callback_ls.calls"] += 1
        out = {name: float(v.get(name, 0.0)) for name in LAYER_METRICS}
        self.values.clear()
        self.spans.clear()
        return out

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _stage(self, attr, name):
        original = getattr(self._pipeline, attr)
        v = self.values

        if attr == "build_graph":
            def wrapper(*args, **kwargs):
                graph = self._call(name, original, args, kwargs)
                v["timegraph.arcs"] += len(graph.arcs)
                return graph
        elif attr == "local_search":
            def wrapper(solution, *args, **kwargs):
                in_callback = self._parent_name() == "mip.solve.warm"
                out = self._call(name, original, (solution,) + args, kwargs)
                if in_callback:
                    v["pipeline.callback_ls.improved"] += out.objective < solution.objective
                return out
        elif attr == "solve":
            def wrapper(model, config=None):
                if self._parent_name() == "pipeline.dbi":
                    kind = "cap"
                else:
                    kind = "cold" if self._solves_in_run == 0 else "warm"
                    self._solves_in_run += 1
                v["pipeline.dbi.caps_tried"] += kind == "cap"
                out = self._call(f"mip.solve.{kind}", original, (model, config), {})
                if kind == "cap" and out.status == "infeasible":
                    v["mip.solve.cap.infeasible"] += 1
                    v["pipeline.dbi.caps_refuted"] += 1
                v["mip.solve.timeouts"] += out.status in SOLVE_TIMEOUT
                return out
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, original, args, kwargs)
        return wrapper

    def _operator(self, op, short):
        name = f"search.op.{short}"
        v = self.values

        def wrapper(solution, *args, **kwargs):
            cands = self._call(name, op, (solution,) + args, kwargs)
            f0, th0 = solution.objective, solution.theta()
            v[name + ".candidates"] += len(cands)
            v[name + ".improving"] += sum(_improves(c, f0, th0) for c in cands)
            return cands
        return wrapper

    def __enter__(self):
        for attr, name in STAGES.items():
            self._patch(self._pipeline, attr, self._stage(attr, name))
        ops = self._search.OPERATORS
        short = [op.__name__.removeprefix("operator_") for op in ops]
        if tuple(short) != OPERATOR_NAMES:
            raise RuntimeError(f"search.OPERATORS changed: {short}")
        self._patch(self._search, "OPERATORS",
                    tuple(self._operator(op, s) for op, s in zip(ops, short)))

        v = self.values
        check = self._search.check_feasibility

        def check_feasibility(*args, **kwargs):
            start = time.perf_counter()
            violations = check(*args, **kwargs)
            v["solution.check_feasibility.s"] += time.perf_counter() - start
            v["solution.check_feasibility.calls"] += 1
            v["solution.check_feasibility.rejected"] += bool(violations)
            return violations
        self._patch(self._search, "check_feasibility", check_feasibility)

        connect = self._planner.connect

        def timed_connect(planner, *args, **kwargs):
            start = time.perf_counter()
            out = connect(planner, *args, **kwargs)
            v["solution.connect.s"] += time.perf_counter() - start
            v["solution.connect.calls"] += 1
            v["solution.connect.unreachable"] += not out[0]
            return out
        self._patch(self._planner, "connect", timed_connect)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def entry_points(pipeline, search, solution) -> dict[str, object]:
    """Every name a ``Tracer`` replaces, mapped to the object it holds now."""
    out = {f"pipeline.{a}": getattr(pipeline, a) for a in STAGES}
    out["search.OPERATORS"] = search.OPERATORS
    out["search.check_feasibility"] = search.check_feasibility
    out["ConnectionPlanner.connect"] = solution.ConnectionPlanner.__dict__["connect"]
    return out
