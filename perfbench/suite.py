"""Run the benchmark over workloads and seeds, check every result line and
print each metric by name with its unit, plus the per-workload spread.

    python3 perfbench/suite.py --seeds 1 2 3 --out .perfbench/runs.jsonl
    python3 perfbench/suite.py --workloads spectral --seeds 1 2 3 4 5

Runs go one after another, never in parallel. Each end-to-end metric's
spread (quartile distance over the median, over the seeds) is compared with
a third of its bound and with the bound itself. Exits 1 when a run fails,
prints no result, or breaks the result contract.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from results import ROOT, check_result, load_spec, parse_output, summary, values


def run_one(workload: str, seed: int, seconds: int, trace: int,
            size: str = "full"):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return parse_output(done.stdout)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--out", type=Path, help="append one JSON record per run")
    args = p.parse_args(argv)

    records, bad = [], 0
    for workload in args.workloads:
        for seed in args.seeds:
            try:
                result, env = run_one(workload, seed, spec["run_seconds"], 0)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
                print(f"MALFORMED {workload} seed {seed}: {err}")
                bad += 1
                continue
            problems = check_result(result, spec, trace=False)
            if problems:
                print(f"MALFORMED {workload} seed {seed}: {problems}")
                bad += 1
                continue
            record = {"workload": workload, "seed": seed, "trace": 0,
                      "result": result, "env": env}
            records.append(record)
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with args.out.open("a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: correct {result['correct']}  "
                  f"failed {result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
            sys.stdout.flush()

    print("\nspread over seeds (quartile distance / median)")
    for workload in args.workloads:
        for m in spec["end_to_end"]:
            xs = values(records, workload, m["name"])
            if not xs:
                continue
            s = summary(xs)
            flag = ("ABOVE BOUND" if s["spread"] > m["bound"] else
                    "above bound/3" if s["spread"] > m["bound"] / 3 else "ok")
            print(f"{workload:9s} {m['name']:20s} n={s['n']:2d} "
                  f"median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {m['bound']})  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
