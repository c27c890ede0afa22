"""Run reports with byte-stable serialization.

Reports never embed wall-clock times, hostnames, or float formatting that
depends on locale, so the same library state serializes to the same bytes;
determinism is a tested property, not an aspiration. Timing belongs on
stderr, next to the human.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 2

PASS, FAIL, UNDECIDED_CHECK = "pass", "fail", "undecided"


@dataclass
class CheckResult:
    """One named check: passed True/False, or None for undecided."""

    name: str
    passed: bool | None
    value: object = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is not None:
            self.passed = bool(self.passed)

    @property
    def status(self) -> str:
        if self.passed is True:
            return PASS
        if self.passed is False:
            return FAIL
        return UNDECIDED_CHECK


@dataclass
class RunReport:
    scenario: str
    checks: list
    parameters: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def outcome(self) -> str:
        if any(c.passed is False for c in self.checks):
            return FAIL
        if any(c.passed is None for c in self.checks):
            return UNDECIDED_CHECK
        return PASS

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, UNDECIDED_CHECK: 2}[self.outcome]

    def lines(self) -> list:
        width = max((len(c.name) for c in self.checks), default=0)
        out = []
        for c in self.checks:
            val = "" if c.value is None else f"  {_scalar_str(c.value)}"
            out.append(f"[{c.status.upper():9s}] {c.name:<{width}}{val}")
        out.append(f"outcome: {self.outcome}")
        return out


def _scalar_str(v) -> str:
    v = _sanitize(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _sanitize(obj):
    """Convert to plain JSON types; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def report_to_json(report: RunReport) -> str:
    payload = {
        "schema": report.schema,
        "scenario": report.scenario,
        "outcome": report.outcome,
        "parameters": _sanitize(report.parameters),
        "checks": [
            {"name": c.name, "status": c.status,
             "value": _sanitize(c.value), "detail": _sanitize(c.detail)}
            for c in report.checks
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report_to_json(report))


def write_registry_json(reports, path) -> None:
    payload = [json.loads(report_to_json(r)) for r in reports]
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_registry_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "check", "status", "value"])
        for report in reports:
            for c in report.checks:
                val = _sanitize(c.value)
                if isinstance(val, (dict, list)):
                    val = json.dumps(val, sort_keys=True)
                w.writerow([report.scenario, c.name, c.status, val])
