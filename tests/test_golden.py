"""Byte-identity of the reports against the benchmark's golden digests.

Runs the benchmark's own operation (parse, report, JSON and text
rendering, plus the complements on torsion_gated) on every scope_mix and
torsion_gated pool item, all 12 genus_ladder items (g = 8, 10, 12) and
the warm-up document, and compares each output with the digest recorded in
``bench/golden.json``.  The bench modules are loaded from their files and
used read-only.
"""

import importlib.util
from pathlib import Path

import pytest

from fibresum import cli, engine, model

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load("gen")
harness = _load("harness")
MODS = {"model": model, "cli": cli, "engine": engine}
GOLDEN = harness.load_golden()


def mismatches(workload: str, recorded: dict, items) -> list[str]:
    bad = []
    for key, doc in items:
        expected = recorded[key]
        if expected[0] != harness.doc_digest(doc):
            bad.append(f"{key}: input differs from the recorded pool")
        elif [harness.digest(text) for text in harness.operation(MODS, workload, doc)] != expected[1:]:
            bad.append(f"{key}: output differs from its golden digest")
    return bad


@pytest.mark.parametrize("workload", ["scope_mix", "torsion_gated"])
def test_pool(workload):
    assert mismatches(workload, GOLDEN[workload], gen.pool(workload)) == []


def test_genus_ladder():
    items = gen.pool("genus_ladder")
    assert len(items) == 12
    assert mismatches("genus_ladder", GOLDEN["genus_ladder"], items) == []


def test_warmup():
    assert mismatches("scope_mix", GOLDEN["warmup"], [("warmup", gen.WARMUP)]) == []
