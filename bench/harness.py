"""What one benchmark operation does, and how its outputs are checked.

One operation is one problem document going through what ``fibresum
batch`` does per item: ``model.parse_problem``, ``cli.build_report``,
``cli.dump_structured`` and ``cli.render_text``.  On ``torsion_gated`` it
also computes ``engine.complement_invariants`` of both sides.  Every
output string is hashed and compared with the digest recorded for that
pool item in ``golden.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from types import ModuleType
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"


class HarnessError(Exception):
    """The checkout cannot be benchmarked (missing sources or goldens)."""


def load_fibresum() -> dict[str, ModuleType]:
    """Import the library from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fibresum" / "__init__.py").is_file():
        raise HarnessError(f"no fibresum sources under {src}")
    sys.path.insert(0, str(src))
    import fibresum
    from fibresum import abgroups, cli, engine, forms, intlat, model

    if Path(fibresum.__file__).resolve().parent != src / "fibresum":
        raise HarnessError(f"imported fibresum from {fibresum.__file__}, not from {src}")
    return {
        "model": model,
        "intlat": intlat,
        "abgroups": abgroups,
        "engine": engine,
        "forms": forms,
        "cli": cli,
    }


def operation(mods: dict[str, ModuleType], workload: str, doc: dict[str, Any]) -> list[str]:
    """Run one operation and return its output strings."""
    model, cli = mods["model"], mods["cli"]
    problem = model.parse_problem(doc)
    report = cli.build_report(problem)
    outputs = [cli.dump_structured(report), cli.render_text(report)]
    if workload == "torsion_gated":
        engine = mods["engine"]
        sides = [engine.complement_invariants(problem.M), engine.complement_invariants(problem.N)]
        outputs.append(json.dumps([dataclasses.asdict(s) for s in sides], sort_keys=True))
    return outputs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def doc_digest(doc: dict[str, Any]) -> str:
    return digest(json.dumps(doc, sort_keys=True))


def load_golden() -> dict[str, dict[str, list[str]]]:
    """``{workload: {item key: [input digest, output digests...]}}``."""
    if not GOLDEN_PATH.is_file():
        raise HarnessError(f"missing {GOLDEN_PATH}")
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["workloads"]
