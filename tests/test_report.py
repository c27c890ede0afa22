import json
from fractions import Fraction

import numpy as np

from semiframe.report import (
    CheckResult, RunReport, _sanitize, report_to_json, write_registry_csv,
    write_registry_json, write_report_csv, write_report_json,
)


def test_check_status_coerces_numpy_bool():
    ok = CheckResult("gap", np.bool_(True), np.float64(1e-16))
    assert ok.passed is True
    assert ok.status == "pass"
    bad = CheckResult("gap", np.bool_(False))
    assert bad.status == "fail"
    assert CheckResult("open", None).status == "undecided"


def test_outcome_aggregation_and_exit_codes():
    good = RunReport("s", [CheckResult("a", True), CheckResult("b", True)])
    assert good.outcome == "pass" and good.exit_code() == 0
    mixed = RunReport("s", [CheckResult("a", True), CheckResult("b", None)])
    assert mixed.outcome == "undecided" and mixed.exit_code() == 2
    # fail dominates undecided
    failing = RunReport("s", [CheckResult("a", None), CheckResult("b", False)])
    assert failing.outcome == "fail" and failing.exit_code() == 1


def test_lines_render_plain_scalars():
    rep = RunReport("s", [CheckResult("gap", True, np.float64(0.5)),
                          CheckResult("count", True, np.int64(3))])
    lines = rep.lines()
    assert "np.float64" not in lines[0]
    assert lines[0].startswith("[PASS")
    assert lines[-1] == "outcome: pass"


def test_sanitize_covers_awkward_values():
    assert _sanitize(float("nan")) == "nan"
    assert _sanitize(float("inf")) == "inf"
    assert _sanitize(float("-inf")) == "-inf"
    assert _sanitize(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert _sanitize(Fraction(3, 7)) == "3/7"
    assert _sanitize(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert _sanitize({"k": (np.int32(1), np.bool_(True))}) == {"k": [1, True]}


def test_json_is_deterministic_and_sorted(tmp_path):
    def build():
        return RunReport("demo", [
            CheckResult("z-last", True, {"b": 2.0, "a": 1.0}),
            CheckResult("a-first", None, np.float64(0.25)),
        ], parameters={"seed": 42, "grid": 64})

    one, two = tmp_path / "one.json", tmp_path / "two.json"
    write_report_json(build(), one)
    write_report_json(build(), two)
    assert one.read_bytes() == two.read_bytes()
    payload = json.loads(one.read_text())
    assert payload["schema"] == 1
    assert list(payload) == sorted(payload)
    assert payload["outcome"] == "undecided"


def test_csv_writer(tmp_path):
    rep = RunReport("demo", [CheckResult("gap", True, 0.5),
                             CheckResult("shape", False, {"x": 1})])
    path = tmp_path / "out.csv"
    write_report_csv(rep, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "scenario,check,status,value"
    assert rows[1] == "demo,gap,pass,0.5"
    assert "fail" in rows[2]


def test_registry_writers(tmp_path):
    reports = [RunReport("one", [CheckResult("a", True, 1.0)]),
               RunReport("two", [CheckResult("b", False, {"x": 1})])]
    jpath, cpath = tmp_path / "all.json", tmp_path / "all.csv"
    write_registry_json(reports, jpath)
    payload = json.loads(jpath.read_text())
    assert [p["scenario"] for p in payload] == ["one", "two"]
    assert payload[1]["outcome"] == "fail"
    write_registry_csv(reports, cpath)
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "scenario,check,status,value"
    assert len(rows) == 3
    assert rows[1].startswith("one,") and rows[2].startswith("two,")

