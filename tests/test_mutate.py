"""The mutation tool refuses a target it cannot find before it copies the
repository or starts a tier-1 run, and gives each of its workers, one
per CPU, a copy of its own."""

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


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_worker_has_its_own_copy(monkeypatch, capsys, cpus):
    # No tier-1 run is started: a stand-in records which copy each run
    # used and what the mutated module read there, and kills every mutant.
    runs, lock = [], mutate.threading.Lock()

    def fake_tier1(copy, timeout=None):
        with lock:
            runs.append((copy, timeout, (copy / "src" / "fibresum" / "abgroups.py").read_text()))
        return timeout is None

    monkeypatch.setattr(mutate, "tier1", fake_tier1)
    monkeypatch.setattr(mutate.os, "cpu_count", lambda: cpus)
    assert mutate.main(["abgroups:direct_sum"]) == 0
    clean = [copy for copy, timeout, _ in runs if timeout is None]
    mutant_runs = [(copy, text) for copy, timeout, text in runs if timeout is not None]
    # One clean run per copy, one copy per CPU, and every mutant run in
    # one of those copies.
    assert len(clean) == len(set(clean)) == cpus
    assert {copy for copy, _ in mutant_runs} <= set(clean)
    original = (mutate.ROOT / "src" / "fibresum" / "abgroups.py").read_text()
    assert len(mutant_runs) == len(mutate.mutants(mutate.ast.parse(original), "direct_sum")) > 0
    assert all(text != original for _, text in mutant_runs)
    assert capsys.readouterr().out.endswith(f"{len(mutant_runs)} killed, 0 survived of {len(mutant_runs)}\n")
