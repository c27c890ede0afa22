import csv
import json
import re

import pytest

from semiframe import cli
from semiframe.scenarios import run_scenario, scenario_names

FAST_SCENARIOS = (
    "diana",
    "stoeva",
    "plateau-exp",
    "s-not-closed",
    "ordering-sensitivity",
    "lower-translates",
)


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


def test_cli_pphi_writes_samples(tmp_path, capsys):
    path = tmp_path / "p.csv"
    assert cli.main(["pphi", "--profile", "raised-cosine", "--grid", "64",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 65
