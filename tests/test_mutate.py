"""The mutation tool refuses a target it cannot find before it copies the
repository or starts a tier-1 run."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
SPEC = importlib.util.spec_from_file_location("mutate", PATH)
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)


@pytest.mark.parametrize("target", ["forms:no_such_function", "no_such_module", "forms:classify_form", ":sum_forms"])
def test_unknown_target_exits_2(target, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a tier-1 run or copy was started")

    monkeypatch.setattr(mutate, "tier1", no_run)
    monkeypatch.setattr(mutate.shutil, "copytree", no_run)
    # A valid target before the unknown one does not start anything either.
    assert mutate.main(["forms:sum_forms", target]) == 2
    assert capsys.readouterr().out == f"unknown target {target}\n"
