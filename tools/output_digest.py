#!/usr/bin/env python3
"""Digests of the solver's primary outputs, to check that a change keeps them.

Run from the root of a drsync checkout:

    python3 tools/output_digest.py --seed 2027

It prints one sha256 per line. The first three cover ``pipeline.run`` with
each benchmark workload's config over its instances at ``--seed``: ``micro``,
``exact`` and ``large`` (see ``perfbench/workloads.py``). The other three
cover the ``mip`` method (B&B only, ``global_limit=5, eta_lb=5, eta_ls=5``)
on ``micro_suite(300)`` under each exchange policy. Each run adds, in
instance order, ``[to_dict(), solution.to_dict(), parts, bounds, dbi_log,
mip_log]`` to its digest, the log entries without their ``seconds``. The
``exact`` workload stops each run at 0.5 s, so on a loaded machine a run
can stop elsewhere and move its digest; the other five do not depend on
the clock. Two checkouts whose code should give the same outputs print the
same lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POLICIES = ("none", "regular_stops", "regular_and_intermediate")


def digest(runs) -> str:
    h = hashlib.sha256()
    for rep in runs:
        out = [rep.to_dict(), rep.solution.to_dict() if rep.solution else None,
               rep.parts, rep.bounds,
               [{k: v for k, v in c.items() if k != "seconds"} for c in rep.dbi_log],
               [{k: v for k, v in c.items() if k != "seconds"} for c in rep.mip_log]]
        h.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=2027, help="benchmark seed (default 2027)")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    import workloads
    from drsync.fixtures import micro_suite
    from drsync.harness import method_config
    from drsync.instance import check_instance
    from drsync.pipeline import DbmhConfig, run

    for name in ("micro", "exact", "large"):
        w = workloads.WORKLOADS[name]
        print(name, digest(run(inst, w.config) for _, inst in w.instances(args.seed)),
              flush=True)
    config = method_config("mip", DbmhConfig(global_limit=5, eta_lb=5, eta_ls=5))
    suite = micro_suite(300)
    for policy in POLICIES:
        insts = (check_instance(dataclasses.replace(inst, exchange_policy=policy))
                 for _, inst in suite)
        print(f"mip/{policy}", digest(run(inst, config) for inst in insts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
