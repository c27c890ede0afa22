"""Reading, checking and summarizing result lines.

A result line is the last line run.py prints: one JSON object with exactly
the keys correct, attempted, failed and metrics. Result files written by
suite.py hold one JSON record per run: workload, seed, trace, result and
the environment the run recorded.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_result(result: dict, spec: dict, trace: bool) -> list:
    """Every way a result line breaks the benchmark's contract."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"keys {sorted(result) if isinstance(result, dict) else result!r}"]
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def parse_output(stdout: str) -> tuple:
    """(result line, environment record) from run.py's standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")),
               None)
    return json.loads(lines[-1]), env


def load_records(paths) -> list:
    records = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def values(records, workload: str, metric: str, trace: bool = False) -> list:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and bool(r["trace"]) == trace]


def summary(xs: list) -> dict:
    """Median, quartiles and spread (quartile distance over the median)."""
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else math.inf
    return {"n": len(xs), "median": med, "q1": q1, "q3": q3, "spread": spread}
