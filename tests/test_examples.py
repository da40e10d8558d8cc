"""Every example must run, end to end, as a subprocess — examples are
documentation, and documentation that doesn't execute rots."""

import pathlib
import subprocess
import sys

import pytest

_EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.slow
@pytest.mark.parametrize("example", _EXAMPLES, ids=lambda p: p.name)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert "BUG" not in result.stdout


def test_examples_exist():
    names = {p.name for p in _EXAMPLES}
    assert {
        "quickstart.py",
        "digital_goods.py",
        "backup_restore.py",
        "tamper_demo.py",
        "remote_storage.py",
    } <= names
