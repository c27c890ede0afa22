"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, at the SMOKE sizes of workloads.py:
  1. every workload runs, untraced and traced, and prints a result line
     that names every metric of BENCHMARK.json with its unit;
  2. a deliberately wrong expected verdict raises ops_failed_ratio and
     makes the run incorrect, also on the operation excused as a known
     library defect;
  3. every traced span lies inside its parent span;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits nonzero without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from results import ROOT, check_result, load_spec
from suite import run_one
from tracing import MODULES

SECONDS = 1


def spans_nest(path) -> list:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    problems = []
    for s in spans:
        if s["name"].split(".", 1)[0] not in MODULES:
            problems.append(f"span {s['id']} has no module name: {s['name']}")
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if not (p["id"] < s["id"] and p["start"] <= s["start"] <= s["end"] <= p["end"]):
            problems.append(f"span {s['id']} {s['name']} outside parent {p['name']}")
    return problems


def bare_checkout_refuses() -> list:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ladders",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare checkout: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = load_spec()
    failures = []

    def report(name, problems):
        print(f"[{'FAIL' if problems else 'ok'}] {name}")
        for p in problems:
            print(f"       {p}")
        failures.extend(problems)

    plain = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run_one(w["name"], 1, SECONDS, trace, "smoke")
            report(f"{w['name']} trace {trace}: result names every metric",
                   check_result(result, spec, bool(trace)))
            if trace:
                path = ROOT / ".perfbench" / "spans" / f"{w['name']}-seed1.jsonl"
                report(f"{w['name']}: spans nest inside their parents",
                       spans_nest(path))
            else:
                plain[w["name"]] = result

    ratio = lambda r: r["metrics"]["ops_passed_ratio"]["value"]
    for workload, op in (("ladders", "operators.lower_bound"),
                         ("spectral", "muckenhoupt.a2_estimate.sampled")):
        base = plain[workload]
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", str(SECONDS), "--trace",
               "0", "--size", "smoke", "--wrong", op]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        wrong = json.loads(done.stdout.strip().splitlines()[-1])
        # the known defect already fails `op` on spectral, so a second
        # problem on it leaves `failed` as it was but must count as a failure
        more = (wrong["failed"] > base["failed"] and ratio(wrong) < ratio(base)
                if base["failed"] == 0 else wrong["failed"] == base["failed"])
        report(f"a wrong expected verdict on {op} makes the run incorrect",
               [] if more and base["correct"] and not wrong["correct"]
               else [f"failed {base['failed']} -> {wrong['failed']}, "
                     f"correct {base['correct']} -> {wrong['correct']}"])

    report("bare checkout exits nonzero without a result", bare_checkout_refuses())
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
