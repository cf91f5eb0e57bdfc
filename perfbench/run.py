#!/usr/bin/env python3
"""Benchmark of the drsync solver, end to end and per layer.

Run from the root of a drsync checkout:

    python3 perfbench/run.py --workload micro --seed 1 --seconds 20 --trace 0

One run generates the workload's instances from ``--seed``, then solves them
one after another with ``pipeline.run`` (one pass), pass after pass, until
the next pass would end after ``--seconds``; at least one pass always runs.
Times are in nominal seconds. On the shared 2-core machine this was written
on, one and the same pass ran up to twice as fast in one minute as in the
next, so between solves the benchmark times a fixed pure-Python loop
(``reference_s``) and scales each solve by ``REFERENCE_NOMINAL_S`` over the
loop's time around it: the result reads as seconds on that machine when
nothing else loads it. Over five identical ``large`` runs this cut the
spread of the summed time from 29% to 6%. A run that reaches its time limit
took the limit whatever the machine's speed, so it keeps its wall-clock
time. Each instance's time is then its median over the passes.
Every answer is checked (see ``check``). The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count instance
runs over all passes, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of ``tracing.LAYER_METRICS``
(``--trace 1``). The lines before it print every metric with its unit.

A failed instance run (it raised, returned no solution or failed a check)
is charged its time limit, its trivial upper bound as objective and no
lower bound, so fixing a crash can never read as a regression.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_NOMINAL_S = 0.006   # the loop's time on the quiet 2-core machine
REFERENCE_EVERY_S = 0.1       # of solving between two reference timings

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "solve_s_tail": ("s", "lower"),
    "drivers_total": ("drivers", "lower"),
    "lb_total": ("drivers", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed for every workload but not graded: the median lands on a different
# instance from seed to seed on bimodal workloads, and the others can be 0
REPORTED = {
    "solve_s_p50": ("s", "lower"),
    "wall_clock_s": ("s", "lower"),
    "optimal_share": ("ratio", "higher"),
    "gap_total": ("drivers", "lower"),
    "failed_share": ("ratio", "lower"),
}


@dataclass
class Outcome:
    name: str
    wall: float             # measured wall-clock seconds
    seconds: float          # nominal; the time limit for a failed run
    objective: int          # charged: the upper bound for a failed run
    lower_bound: int        # charged: 0 for a failed run
    optimal: bool
    key: tuple              # primary output, compared across passes
    problems: list[str]     # why the run failed; empty when it passed
    wrong: bool             # it returned an answer that failed a check


def reference_s() -> float:
    """Wall time of a fixed loop of dict and tuple work, like the solver's."""
    start = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = (i, i * 3)
        total += len(table)
    return time.perf_counter() - start


def nominal(wall: float, before: float, after: float) -> float:
    """``wall`` scaled by the machine's speed, from the references around it."""
    return wall * REFERENCE_NOMINAL_S * 2 / (before + after)


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would be under the median, so the
    maximum stands in for the tail.
    """
    return n - 10 if n >= 20 else n


def check(report, instance, ub: int, optimum: int | None, check_feasibility) -> list[str]:
    """Correctness gate for one returned report; empty means it passed."""
    if report.solution is None:
        return [f"no solution (status {report.status})"]
    problems = []
    violations = check_feasibility(report.solution, instance)
    if violations:
        problems.append(f"{len(violations)} feasibility violations, first {violations[0]}")
    if not report.clb <= report.final_lb <= report.objective <= ub:
        problems.append(
            f"bound order: clb {report.clb} <= final_lb {report.final_lb} <= "
            f"objective {report.objective} <= ub {ub} fails")
    if optimum is not None and report.objective != optimum:
        problems.append(f"objective {report.objective} != oracle optimum {optimum}")
    return problems


class Bench:
    def __init__(self, workload, instances, optima):
        from drsync import pipeline
        from drsync.bounds import upper_bound
        from drsync.solution import check_feasibility
        self.workload = workload
        self.instances = instances
        self.optima = optima
        self.ubs = [upper_bound(inst)[0] for _, inst in instances]
        self._pipeline = pipeline
        self._check_feasibility = check_feasibility

    def solve_pass(self, tracer=None) -> tuple[list[Outcome], float]:
        """Solve every instance once; returns the checked outcomes and the pass time."""
        config = self.workload.config
        limit = config.global_limit
        outcomes = []
        pending: list[Outcome] = []     # solved since the last reference
        before = reference_s()
        t_pass = time.perf_counter()
        for (name, inst), ub, optimum in zip(self.instances, self.ubs, self.optima):
            start = time.perf_counter()
            try:
                if tracer is None:
                    report = self._pipeline.run(inst, config)
                else:
                    report = tracer.run_instance(self._pipeline.run, inst, config)
            except Exception as exc:  # one instance's crash must not end the pass
                report, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    problems = check(report, inst, ub, optimum, self._check_feasibility)
                except Exception as exc:  # a malformed answer can break the checker
                    problems = [f"checking raised {type(exc).__name__}: {exc}"]
                key = (report.status, report.objective, report.final_lb)
                wrong = bool(problems) and report.solution is not None
            else:
                problems = [error]
                key = ("error", error.split(":")[0])
                wrong = False
            ok = not problems
            outcomes.append(Outcome(
                name=name,
                wall=elapsed,
                seconds=elapsed if ok else max(elapsed, limit),
                objective=report.objective if ok else ub,
                lower_bound=report.final_lb if ok else 0,
                optimal=ok and report.status == "optimal",
                key=key,
                problems=problems,
                wrong=wrong,
            ))
            pending.append(outcomes[-1])
            last = len(outcomes) == len(self.instances)
            if last or sum(o.wall for o in pending) >= REFERENCE_EVERY_S:
                after = reference_s()
                for o in pending:
                    if o.seconds < limit:
                        o.seconds = nominal(o.seconds, before, after)
                before, pending = after, []
        return outcomes, time.perf_counter() - t_pass


def summarize(passes: list[list[Outcome]]) -> dict[str, float]:
    """Times from each instance's median over the passes; outputs from the first."""
    first = passes[0]
    times = sorted(statistics.median(o.seconds for o in runs) for runs in zip(*passes))
    n = len(first)
    return {
        "wall_s": sum(times),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": times[tail_rank(n) - 1],
        "wall_clock_s": statistics.median(sum(o.wall for o in p) for p in passes),
        "drivers_total": sum(o.objective for o in first),
        "lb_total": sum(o.lower_bound for o in first),
        "optimal_share": sum(o.optimal for o in first) / n,
        "gap_total": sum(o.objective - o.lower_bound for o in first),
        "failed_share": sum(bool(o.problems) for o in first) / n,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("micro", "exact", "large", "budget"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "drsync" / "__init__.py").is_file():
        print(f"error: no drsync sources under {src}; run from a drsync checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    start_ref = reference_s()
    t = time.perf_counter()
    import workloads
    from drsync import oracle, pipeline, search, solution
    from tracing import LAYER_METRICS, Tracer, entry_points
    import_wall = time.perf_counter() - t
    before = reference_s()
    import_s = nominal(import_wall, start_ref, before)

    workload = workloads.WORKLOADS[args.workload]
    generation = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        instances = workload.instances(args.seed)
        wall = time.perf_counter() - t
        after = reference_s()
        generation.append(nominal(wall, before, after))
        before = after
    setup_s = import_s + statistics.median(generation)

    # the oracle runs once, outside every timed section
    optima = [None] * len(instances)
    oracle_s = 0.0
    if workload.oracle:
        t = time.perf_counter()
        optima = [oracle.brute_force(inst).optimum for _, inst in instances]
        oracle_s = time.perf_counter() - t

    bench = Bench(workload, instances, optima)
    tracer = Tracer(pipeline, search, solution) if args.trace else None
    before = entry_points(pipeline, search, solution)

    plain: list[tuple[list[Outcome], float]] = []
    traced: list[tuple[list[Outcome], float, dict[str, float]]] = []
    t_window = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                outcomes, secs = bench.solve_pass(tracer)
            traced.append((outcomes, secs, tracer.take()))
        else:
            outcomes, secs = bench.solve_pass()
            plain.append((outcomes, secs))
            if len(plain) == 1:
                # later passes add allocator fragmentation, and their number
                # depends on speed; the first pass fixes the high-water mark
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - t_window
        if (tracer is None or traced) and elapsed + secs > args.seconds:
            break

    first = plain[0][0]
    all_passes = [p[0] for p in plain] + [p[0] for p in traced]
    attempted = sum(len(p) for p in all_passes)
    failures = [(i, o) for i, p in enumerate(all_passes) for o in p if o.problems]
    # a crash or an empty result is a failure; a returned answer that fails
    # a check is also wrong, and makes the whole run incorrect
    wrong = any(o.wrong for _, o in failures)

    # primary outputs must repeat in every pass, traced or not
    differing = sorted({o.name for p in all_passes[1:]
                        for o, o0 in zip(p, first) if o.key != o0.key})
    self_check = []
    if differing and not workload.clock_bound:
        self_check.append(f"primary outputs differ between passes: {differing[:5]}")
    stale = [k for k, v in entry_points(pipeline, search, solution).items()
             if v is not before[k]]
    if stale:
        self_check.append(f"names not restored after tracing: {stale}")

    summary = summarize([p[0] for p in plain])
    summary["setup_s"] = setup_s
    summary["peak_rss_mb"] = peak_rss_mb

    n = len(instances)
    rank = tail_rank(n)
    print(f"workload {workload.name}, seed {args.seed}: {n} instances per pass, "
          f"{len(plain)} plain and {len(traced)} traced passes")
    print(f"  solve_s_tail is p{100 * rank / n:.4g} of {n} runs per pass "
          f"({n - rank} beyond it)")
    print(f"  setup_s is import {import_s:.4f} s plus the median of generation "
          f"{', '.join(f'{g:.4f}' for g in generation)} s")
    for name, (unit, better) in {**END_TO_END, **REPORTED}.items():
        print(f"  {name:<15} {summary[name]:>12.6g} {unit:<8} {better} is better")
    for i, o in failures[:20]:
        print(f"  failed: pass {i + 1} {o.name}: {'; '.join(o.problems)}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failures")
    if differing:
        print(f"  outputs differ between passes on {len(differing)} instances "
              f"({'allowed: time limits' if workload.clock_bound else 'error'}): "
              f"{differing[:5]}")
    for line in self_check:
        print(f"  self-check failed: {line}")

    if tracer is None:
        metrics = {k: {"value": summary[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    else:
        layers = {k: statistics.fmean(t[2][k] for t in traced) for k in LAYER_METRICS}
        layers["oracle.brute_force.s"] = oracle_s
        layers["trace.overhead_s"] = (summarize([t[0] for t in traced])["wall_s"]
                                      - summary["wall_s"])
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:<48} {layers[name]:>12.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}

    print(json.dumps({
        "correct": not wrong and not self_check,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
