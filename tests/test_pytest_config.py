"""The repository's pytest configuration reports failures as failures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 10
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # every warning is an error, and hypothesis's report hook raises a
    # DeprecationWarning of its own while it prints the example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
