"""Every demo script, and the quick-start block of README.md, runs to
completion and prints its recorded output."""

from pathlib import Path

import pytest

from helpers import run_python

ROOT = Path(__file__).resolve().parent
DEMOS = sorted((ROOT.parent / "demos").glob("*.py"))
README = ROOT.parent / "README.md"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "data" / "demos" / f"{script.stem}.txt").read_text()


def test_readme_quick_start():
    section = README.read_text().split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "data" / "readme" / "quick_start.txt").read_text()
