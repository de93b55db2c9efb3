"""The pytest settings in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    # every warning is an error in a test, and Hypothesis's report hook must
    # still get as far as printing the falsifying example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY,
                                               encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
