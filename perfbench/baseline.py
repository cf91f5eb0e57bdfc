#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

From the root of a drsync checkout:

    python3 perfbench/baseline.py --trace --out perfbench/BASELINE.json

Each (workload, seed) is one ``run.py`` process, run one after another. For
every metric it prints the median over the seeds, the quartiles and the
spread (quartile distance over median, as the regression gate computes it),
and marks a graded spread at or above a third of its bound in
``BENCHMARK.json``. The first seed then runs once more, and the primary
outputs of the two runs must match. With ``--trace`` one traced run per
workload adds each layer's share of the time inside ``pipeline.run``. With
``--out`` everything is written as JSON.

Seed ``HELD_OUT_SEED`` is kept out of tuning: a later performance claim is
checked on it as well as on the default seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 2027
LINE = re.compile(r"^  (\w+)\s+(\S+) (\S+)\s+(lower|higher) is better$")
PRIMARY = ("drivers_total", "lb_total", "gap_total", "optimal_share", "failed_share")

# stages that block the result one after another; their largest share names
# the workload's dominant layer (nested layers are listed, not ranked)
STAGES = ("timegraph.build_graph", "bounds.compute_bounds", "search.construct",
          "search.local_search", "pipeline.dbi", "mip.solve.cold", "mip.solve.warm")
NESTED = ("solution.check_feasibility", "solution.connect", "pipeline.callback_ls")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {m[1]: (float(m[2]), m[3], m[4]) for m in map(LINE.match, lines) if m}
    return {**json.loads(lines[-1]), "process_s": time.monotonic() - start}, printed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "seeds": args.seeds, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, printed = run_once(workload, seed, args.seconds, 0)
            if set(result["metrics"]) != set(bounds):
                raise SystemExit(f"{workload}: metrics {sorted(result['metrics'])} "
                                 "do not match BENCHMARK.json")
            runs.append({"seed": seed, **result,
                         "printed": {k: v[0] for k, v in printed.items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {result['process_s']:.1f} s", flush=True)
        entry = {"why": whys.get(workload), "metrics": {}}
        for name, (_, unit, better) in printed.items():
            values = [r["printed"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            entry["metrics"][name] = {"unit": unit, "better": better, "graded": name in bounds,
                                      "median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("  OVER BOUND" if spread > bound
                        else "  over a third of bound" if spread >= bound / 3 else "")
            print(f"  {name:<15} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{flag}")

        _, again = run_once(workload, args.seeds[0], args.seconds, 0)
        # time limits may move lb_total on clock-bound workloads; reported, not fatal
        differs = {k: [runs[0]["printed"][k], again[k][0]] for k in PRIMARY
                   if runs[0]["printed"][k] != again[k][0]}
        entry["repeat_seed"] = {"seed": args.seeds[0], "primary_outputs_differ": differs}
        print(f"  repeat of seed {args.seeds[0]}: "
              f"{'identical primary outputs' if not differs else differs}")

        if args.trace:
            traced, _ = run_once(workload, args.seeds[0], args.seconds, 1)
            if set(traced["metrics"]) != layer_names:
                raise SystemExit(f"{workload}: traced metrics do not match BENCHMARK.json")
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            total = layers["pipeline.run.s"]
            shares = {k: layers[k + ".s"] / total for k in STAGES + NESTED}
            dominant = max(STAGES, key=shares.get)
            entry["traced"] = {"seed": args.seeds[0], "correct": traced["correct"],
                               "dominant_layer": dominant, "shares": shares,
                               "layers": layers}
            print(f"  traced: correct={traced['correct']} in {traced['process_s']:.1f} s, "
                  f"dominant layer {dominant}")
            for k, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"    share {k:<28} {share:.3f}")
        entry["runs"] = runs
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
