import csv
import json
import re
from pathlib import Path

import pytest

from semiframe import cli
from semiframe.scenarios import _check, run_scenario, scenario_names

FAST_SCENARIOS = (
    "diana",
    "stoeva",
    "plateau-exp",
    "s-not-closed",
    "ordering-sensitivity",
    "lower-translates",
)
# scenario, name, status and any string value of every check of
# `semiframe scenario all --seed 42`, with the gate each check declares
# (`tol`, `floor` or `expected`) and, for a `tol` check, its number
GOLDEN_VERDICTS = Path(__file__).parent / "golden" / "scenario_all_verdicts.json"
GATES = ("tol", "floor", "expected")


def _within(value, golden, tol):
    """Every entry of value lies within tol of golden's; bytes are not
    compared, since BLAS builds and thread counts differ in the last ulps."""
    if isinstance(golden, dict):
        return value.keys() == golden.keys() and all(
            _within(value[k], golden[k], tol) for k in golden)
    return abs(value - golden) <= tol


def test_registry_names_are_pinned():
    assert list(scenario_names()) == [
        "diana",
        "stoeva",
        "interleaved-chi",
        "plateau-exp",
        "ordering-sensitivity",
        "s-not-closed",
        "orthonormal-translates",
        "lower-translates",
    ]


@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_fast_scenarios_pass(name):
    report = run_scenario(name)
    failed = [c.name for c in report.checks if c.passed is False]
    assert report.outcome == "pass", failed


def test_check_judges_by_exactly_one_gate():
    assert _check("gap", 1e-12, tol=1e-10).passed is True
    # a tol or floor applies to every entry of a dict or list value
    assert _check("gaps", {"a": 1e-12, "b": 1e-9}, tol=1e-10).passed is False
    spread = _check("spread", [0.2, 0.06], floor=0.05, note="kept")
    assert spread.passed is True
    assert spread.detail == {"note": "kept", "floor": 0.05}
    assert _check("verdict", "No", expected="Yes").passed is False
    for gates in ({}, {"tol": 1.0, "floor": 0.0}):
        with pytest.raises(ValueError, match="exactly one of tol, floor"):
            _check("gap", 0.5, **gates)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario")


def test_cli_list_and_scenario_exit_codes(capsys):
    assert cli.main(["list"]) == 0
    assert "diana" in capsys.readouterr().out
    assert cli.main(["scenario", "diana"]) == 0
    out = capsys.readouterr().out
    assert "outcome: pass" in out
    assert cli.main(["scenario", "no-such"]) == cli.EXIT_USAGE
    assert "choose from" in capsys.readouterr().err


def test_cli_json_output_is_deterministic(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["scenario", "diana", "--out", str(first)]) == 0
    assert cli.main(["scenario", "diana", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["scenario"] == "diana"
    assert payload["outcome"] == "pass"


def test_cli_scenario_all_writes_combined_report(tmp_path, capsys):
    path = tmp_path / "all.json"
    assert cli.main(["scenario", "all", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    # stdout holds report lines only; notices go to stderr
    for line in out.splitlines():
        assert re.fullmatch(r"== \S+ ==|\[[A-Z ]{9}\] .*|outcome: \S+",
                            line), line
    payload = json.loads(path.read_text())
    assert [p["scenario"] for p in payload] == list(scenario_names())
    assert all(p["outcome"] == "pass" for p in payload)
    golden = json.loads(GOLDEN_VERDICTS.read_text())
    checks = [(p["scenario"], c) for p in payload for c in p["checks"]]
    assert [(s, c["name"], c["status"]) for s, c in checks] \
        == [(g["scenario"], g["name"], g["status"]) for g in golden]
    for (_, check), gold in zip(checks, golden):
        kind = [k for k in GATES if k in check["detail"]]
        assert kind == [k for k in GATES if k in gold], check["name"]
        assert {k: check["detail"][k] for k in kind} \
            == {k: gold[k] for k in kind}, check["name"]
        if isinstance(check["value"], str) or isinstance(gold.get("value"), str):
            assert check["value"] == gold["value"], check["name"]
        if "tol" in gold:
            assert _within(check["value"], gold["value"], gold["tol"]), \
                check["name"]
    # one scenario runs through the sweep's path: its report, CSV rows and
    # stdout lines are the sweep's entry for it
    one = tmp_path / "diana.json"
    assert cli.main(["scenario", "diana", "--out", str(one)]) == 0
    one_out = capsys.readouterr().out.splitlines()
    assert json.loads(one.read_text()) == payload[0]
    sweep_out = out.splitlines()
    assert one_out == sweep_out[1:sweep_out.index("== stoeva ==")]
    rows = {}
    for name in ("all", "diana"):
        path = tmp_path / f"{name}.csv"
        assert cli.main(["scenario", name, "--out", str(path),
                         "--format", "csv"]) == 0
        with open(path, newline="") as fh:
            rows[name] = list(csv.reader(fh))
    capsys.readouterr()
    assert rows["diana"] == rows["all"][:1] + [
        r for r in rows["all"][1:] if r[0] == "diana"]


def test_cli_csv_output_parses(tmp_path, capsys):
    path = tmp_path / "diana.csv"
    assert cli.main(["scenario", "diana", "--out", str(path),
                     "--format", "csv"]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(r["scenario"] == "diana" for r in rows)
    assert all(r["status"] == "pass" for r in rows)


def test_cli_dual_and_reconstruct(capsys):
    assert cli.main(["dual", "--family", "stoeva", "--count", "24"]) == 0
    out = capsys.readouterr().out
    assert "route gap" in out or "gap" in out
    assert cli.main(["reconstruct", "--family", "diana", "--probe",
                     "in-span", "--count", "24"]) == 0
    capsys.readouterr()
    # an orthogonal probe is lost entirely; the command checks exactly that
    assert cli.main(["reconstruct", "--family", "diana", "--probe",
                     "orthogonal", "--count", "24"]) == 0
    out = capsys.readouterr().out
    assert "1.0" in out


@pytest.mark.parametrize("argv", [
    ["dual", "--tol", "1e-3"],
    ["reconstruct", "--tol", "1e-3"],
], ids=["dual", "reconstruct"])
def test_cli_gates_take_no_tolerance_option(argv, capsys):
    # the route-gap and reconstruction gates are fixed constants
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_classify_and_a2test(capsys):
    assert cli.main(["classify", "translates", "--profile",
                     "raised-cosine", "--grid", "128"]) == 0
    capsys.readouterr()
    assert cli.main(["classify", "exponentials", "--weight", "constant",
                     "--grid", "256"]) == 0
    capsys.readouterr()
    assert cli.main(["a2test", "--weight", "power", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "InA2" in out


def test_cli_precondition_violations_exit_as_usage(capsys):
    # density above one is outside the exponential classifier's contract
    assert cli.main(["classify", "exponentials", "--weight", "constant",
                     "--density", "2"]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert cli.main(["pphi", "--step", "0"]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, precondition", [
    (["dual", "--count", "0"], "a level needs at least one member"),
    (["classify", "translates", "--profile", "plateau-band", "--step", "2"],
     "plateau-band is defined at step 1"),
    (["pphi", "--grid", "0"], "grid needs at least two nodes"),
    # argparse's own usage errors return in-process as well
    (["pphi", "--grid", "2.5"], "argument --grid: invalid int value: '2.5'"),
    (["classify", "translates", "--profile", "nope"],
     "argument --profile: invalid choice: 'nope'"),
    ([], "the following arguments are required: command"),
], ids=["dual-count-0", "plateau-band-step-2", "pphi-grid-0",
        "pphi-grid-fractional", "classify-unknown-profile", "no-command"])
def test_cli_usage_errors_name_the_precondition(argv, precondition, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"error: {precondition}" in capsys.readouterr().err


def test_cli_pphi_writes_samples(tmp_path, capsys):
    path = tmp_path / "p.csv"
    assert cli.main(["pphi", "--profile", "raised-cosine", "--grid", "64",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 65
