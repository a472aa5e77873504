"""The test session's own settings: one failing test must not hide the rest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_after():
    pass
'''


def test_a_falsified_property_does_not_end_the_session(tmp_path):
    # Under filterwarnings = ["error"], a warning raised in hypothesis's
    # report hook once turned the first falsified property into an
    # INTERNALERROR (exit 3), and no later test ran.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
