"""Mutation survey: single mutants of named modules, each run against tier-1.

    python tools/mutate.py [--seed N] [--sample K] MODULE[:FUNCTION] ...

A target is a module of ``src/fibresum`` (``engine``) or one function or
class in it (``intlat:kernel_and_cokernel``).  Each mutant changes one
thing in it: ``+``/``-``, ``*``/``//``, ``%``/``//``, a comparison
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``in``/``not in``), ``and``/``or``, or an int constant by +1 or -1.
``--sample`` draws that many of the mutants with ``--seed`` (all by
default).  Each mutant is written into a copy of the repository under a
temporary directory, never into the working tree, and tier-1 runs there
with ``-x``.  As many mutants run at once as there are CPUs, each worker
in its own copy.  Failing tests kill a mutant, and so does a run that
takes more than three times as long as the slowest of the clean runs
made first, one per copy at once, so under the same load as the
mutants.  A mutant that loops forever costs seconds, not minutes, and
contention does not kill one that survives.  Every survivor is printed
with its line.  A target that names no module or no top-level function
or class of it is refused with exit code 2 before anything runs.  Not
part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Add: [ast.Sub], ast.Sub: [ast.Add], ast.Mult: [ast.FloorDiv],
    ast.FloorDiv: [ast.Mult, ast.Mod], ast.Mod: [ast.FloorDiv],
    ast.Lt: [ast.LtE], ast.LtE: [ast.Lt], ast.Gt: [ast.GtE], ast.GtE: [ast.Gt],
    ast.Eq: [ast.NotEq], ast.NotEq: [ast.Eq], ast.Is: [ast.IsNot], ast.IsNot: [ast.Is],
    ast.In: [ast.NotIn], ast.NotIn: [ast.In], ast.And: [ast.Or], ast.Or: [ast.And],
}


def mutants(tree: ast.Module, scope: str | None) -> list[tuple[int, int, int, int, str]]:
    """(node index in ``ast.walk`` order, operator slot or -1 for a
    constant, swap index or delta, line, label) for every mutant, within
    the top-level ``scope`` when it is given."""
    lines = range(1, 1 << 30)
    if scope:
        node = next(n for n in tree.body if getattr(n, "name", None) == scope)
        lines = range(node.lineno, node.end_lineno + 1)
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if getattr(node, "lineno", 0) not in lines:
            continue
        ops = [node.op] if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) else []
        ops = node.ops if isinstance(node, ast.Compare) else ops
        for slot, op in enumerate(ops):
            for k, new in enumerate(SWAPS.get(type(op), [])):
                sites.append((i, slot, k, node.lineno, f"{type(op).__name__} -> {new.__name__}"))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                sites.append((i, -1, delta, node.lineno, f"{node.value} -> {node.value + delta}"))
    return sites


def apply(source: str, site: tuple[int, int, int, int, str]) -> str:
    tree = ast.parse(source)
    index, slot, k, _, _ = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if slot < 0:
        node.value += k
    elif isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])][k]()
    else:
        node.op = SWAPS[type(node.op)][k]()
    return ast.unparse(tree)


def tier1(copy: Path, timeout: float | None = None) -> bool:
    """True when tier-1 passes in ``copy`` within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
        return run.returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE[:FUNCTION]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0, help="mutants to draw (0: all)")
    args = parser.parse_args(argv)
    drawn = []
    for target in args.targets:
        module, _, scope = target.partition(":")
        path = ROOT / "src" / "fibresum" / f"{module}.py"
        source = path.read_text() if module and path.is_file() else ""
        tree = ast.parse(source)
        if not source or scope and scope not in {getattr(node, "name", None) for node in tree.body}:
            print(f"unknown target {target}")
            return 2
        drawn += [(module, source, site) for site in mutants(tree, scope or None)]
    if args.sample:
        drawn = random.Random(args.seed).sample(drawn, min(args.sample, len(drawn)))
    jobs = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(jobs) as pool:
        copies = [Path(tmp) / f"repo{i}" for i in range(jobs)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".*", "__pycache__"))

        def clean_run(copy: Path) -> float | None:
            start = time.monotonic()
            return time.monotonic() - start if tier1(copy) else None

        clean = list(pool.map(clean_run, copies))
        if None in clean:
            print("tier-1 fails without a mutant; nothing to measure")
            return 2
        limit = 3 * max(clean)
        print(f"clean tier-1 runs took {max(clean):.1f} s at most; each mutant gets {limit:.1f} s", flush=True)
        idle, lock = list(copies), threading.Lock()

        def run(item) -> str | None:
            module, source, site = item
            with lock:
                copy = idle.pop()
            path = copy / "src" / "fibresum" / f"{module}.py"
            path.write_text(apply(source, site))
            killed = not tier1(copy, limit)
            path.write_text(source)
            label = f"{module}:{site[3]} {site[4]}    | {source.splitlines()[site[3] - 1].strip()}"
            with lock:
                idle.append(copy)
                print(f"{'killed  ' if killed else 'SURVIVED'} {label}", flush=True)
            return None if killed else label

        survivors = [label for label in pool.map(run, drawn) if label]
    print(f"\n{len(drawn) - len(survivors)} killed, {len(survivors)} survived of {len(drawn)}")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
