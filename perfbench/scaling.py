"""Scaling report: per-layer times of the canonical variants as N grows.

Usage (from the repository root):

    python3 perfbench/scaling.py [--pairs 200] [--seed 0] [--nodes 1000 10000 100000]

Runs the seven canonical variants at m=3 over a fixed number of pairs
(one round, one worker) on graphs of each size, traced, one fresh process
per size, and prints one JSON line per size followed by a table.  It shows
which layer grows with N: the materialize_route tail BFS, the oracle, the
derived views or the walk.  This is a report, not a benchmark workload:
it has no end-to-end metric and no bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys

from run import adopt_orphans, provenance, run_rep, work_dir
import checks
from workloads import METRIC_VARIANTS, WORKLOADS

COLUMNS = (
    ("generate", "generate.s"),
    ("views", "graphs.views_s"),
    ("oracle", "graphs.oracle_s"),
    ("walk", "search.walk_s"),
    ("materialize", "search.materialize_s"),
    ("refine", "refine.s"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer scaling report")
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nodes", type=int, nargs="+", default=[1_000, 10_000, 100_000])
    args = parser.parse_args(argv)
    base = WORKLOADS["canonical"]
    adopt_orphans()
    rows = []
    with work_dir() as work:
        for n in args.nodes:
            spec = dataclasses.replace(base, nodes=n, pairs=args.pairs, rounds=1)
            out = work / f"n{n}"
            extra = ("--nodes", str(n), "--pairs", str(args.pairs), "--rounds", "1")
            res = run_rep(base.name, args.seed, 1, out, 900.0, extra)
            if res is None:
                return 1
            layers = res["layers"]
            for prefix in ("search.walk_s", "search.materialize_s"):
                layers[prefix] = sum(layers[f"{prefix}.{v}"] for v in METRIC_VARIANTS)
            row = {
                "nodes": n,
                "failed": checks.check(spec, out, None)["failed"],
                "run_s": res["run_s"],
                "peak_rss_mb": res["peak_rss_mb"],
                "layers": layers,
                "provenance": provenance(spec, args.seed, 1, 1),
            }
            print(json.dumps(row, sort_keys=True))
            rows.append(row)
            shutil.rmtree(out)
    print(f"{'nodes':>8} {'run_s':>8} {'rss_MiB':>8}" + "".join(f" {title:>11}" for title, _ in COLUMNS))
    for row in rows:
        cells = "".join(f" {row['layers'][key]:11.3f}" for _, key in COLUMNS)
        print(f"{row['nodes']:>8} {row['run_s']:8.2f} {row['peak_rss_mb']:8.1f}{cells}")
    return 0 if all(row["failed"] == 0 for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
