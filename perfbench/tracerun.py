"""Traced run: per-module table and tracing overhead, per workload.

    python3 perfbench/tracerun.py --seed 1
    python3 perfbench/tracerun.py --workloads spectral --seed 4

For each workload it makes an untraced, a traced and another untraced run
with the same seed. The traced run writes its spans to
.perfbench/spans/<workload>-seed<n>.jsonl; this tool prints the self time
of every module as a share of the traced pass, the largest spans by self
time per pass, and the tracing overhead: traced wall_s minus the mean
untraced wall_s as measured, and the span count times the cost of one
traced call as computed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from layers import module_table
from results import ROOT, load_spec
from suite import run_one
from tracing import Tracer


def span_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds, from a wrapped no-op; with the span
    count it bounds the overhead independently of host drift."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "core.noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def top_spans(path, limit: int = 8) -> list:
    """(name, self seconds, calls) per pass of the largest spans in a spans
    file; the spans of one pass share a run id."""
    tracer = Tracer.load(path)
    passes = len({run for *_, run in tracer.spans}) or 1
    rows = sorted(((name, own, calls) for (name, tag), (own, _, calls)
                   in tracer.by_name().items() if tag is None),
                  key=lambda row: -row[1])[:limit]
    return [(name, own / passes, calls / passes) for name, own, calls in rows]


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, help="append the three runs' records here")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    per_span = span_cost()
    for workload in args.workloads:
        # untraced runs on both sides of the traced one, so slow drift of a
        # shared host cancels out of the overhead estimate
        before, env = run_one(workload, args.seed, seconds, 0)
        traced, _ = run_one(workload, args.seed, seconds, 1)
        after, _ = run_one(workload, args.seed, seconds, 0)
        if args.out:
            with args.out.open("a") as fh:
                for trace, result in ((0, before), (1, traced), (0, after)):
                    fh.write(json.dumps({"workload": workload, "seed": args.seed,
                                         "trace": trace, "result": result,
                                         "env": env}, sort_keys=True) + "\n")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = (before["metrics"]["wall_s"]["value"]
                + after["metrics"]["wall_s"]["value"]) / 2
        print(f"== {workload} (seed {args.seed})")
        print(f"{'module':14s} {'self s':>10s} {'share':>7s}")
        for mod, seconds, share in module_table(metrics):
            print(f"{mod:14s} {seconds:10.4f} {share:7.1%}")
        spans = ROOT / ".perfbench" / "spans" / f"{workload}-seed{args.seed}.jsonl"
        print(f"largest spans ({spans.relative_to(ROOT)}):")
        for name, seconds, calls in top_spans(spans):
            print(f"  {name:40s} {seconds:10.4f} s  {calls:8.0f} calls")
        overhead = metrics["trace.wall_s"] - wall
        computed = metrics["trace.spans"] * per_span
        print(f"tracing overhead: traced wall {metrics['trace.wall_s']:.4f} s - "
              f"mean untraced wall {wall:.4f} s = {overhead:+.4f} s "
              f"({overhead / wall:+.1%}, measured); "
              f"{metrics['trace.spans']:.0f} spans x {per_span * 1e6:.2f} us = "
              f"{computed:.4f} s (computed)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
