"""The repository's pytest settings keep a session going past a failing test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@given(st.integers(0, 10))
@settings(database=None)
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Every warning is an error, and hypothesis's failure report imports
    # libcst, which warns; unfiltered, that ends pytest with INTERNALERROR
    # before the passing test after the failing one runs.
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
