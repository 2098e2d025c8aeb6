"""The repository's pytest configuration, run on a file of its own in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_FILE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """To report a falsifying example hypothesis may import libcst, whose import
    warns; the run still goes on to the next test and exits 1, not 3 (an
    internal error)."""
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
