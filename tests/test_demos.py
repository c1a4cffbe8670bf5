"""Every demo script runs to completion and prints its recorded output."""

from pathlib import Path

import pytest

from helpers import run_python

ROOT = Path(__file__).resolve().parent
DEMOS = sorted((ROOT.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "data" / "demos" / f"{script.stem}.txt").read_text()
