"""The repository's pytest settings report a falsified property test as a
failure and go on with the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_passes():
    pass
'''


def test_falsified_property_is_a_failure_not_an_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example" in out, out
