"""The suite turns warnings into errors; a failing hypothesis test must
still be reported as one failure, with the rest of the run going on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns; under
    # filterwarnings = ["error"] that stopped pytest with INTERNALERROR, and
    # the passing test never ran
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
