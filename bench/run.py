"""The fibresum benchmark.

    python3 bench/run.py --workload scope_mix --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded, as a closed loop with
one caller: each operation starts when the previous one has finished.
The run goes through the seed's items in whole passes until ``--seconds``
have elapsed, and checks every output against its golden digest.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics derived from the traced passes' spans, plus the tracing overhead;
the spans are written to ``.bench_out/trace-<workload>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits with 2, printing no result, when the checkout holds no
library sources, when the recorded inputs and goldens do not match, or
when no operation completes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import gen
import harness
from harness import HarnessError
from spans import Tracer

SETUP_PROBES = 7
P90_MIN_SAMPLES = 100
OUT_DIR = harness.ROOT / ".bench_out"


@dataclass
class Tally:
    """Outcome of the operations of one kind of pass."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    pass_rates: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {message}")


def run_pass(mods, workload, items, expected, tally: Tally, tracer: Tracer | None = None) -> None:
    completed = len(tally.latencies)
    start = time.perf_counter()
    for key, doc in items:
        op_id = tally.attempted
        tally.attempted += 1
        begin = time.perf_counter()
        try:
            if tracer is None:
                outputs = harness.operation(mods, workload, doc)
            else:
                outputs = tracer.run_operation(op_id, lambda: harness.operation(mods, workload, doc))
        except Exception as exc:  # a failing operation is counted, not fatal
            tally.fail(key, f"{type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - begin
        if [harness.digest(text) for text in outputs] != expected[key]:
            tally.fail(key, "output differs from its golden digest")
            continue
        tally.latencies.append(latency)
    seconds = time.perf_counter() - start
    tally.seconds += seconds
    tally.pass_rates.append((len(tally.latencies) - completed) / seconds)


def measure_setup() -> list[float]:
    """Seconds to import the library and run the warm-up, each in a fresh
    process, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "probe.py")],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def load_spec() -> dict[str, Any]:
    path = harness.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def prepare(workload: str, seed: int):
    """Library modules, the run's items and their expected digests."""
    mods = harness.load_fibresum()
    golden = harness.load_golden()
    items = gen.select(workload, seed)
    recorded = golden[workload]
    expected = {}
    for key, doc in items:
        if key not in recorded or recorded[key][0] != harness.doc_digest(doc):
            raise HarnessError(f"{workload} item {key} differs from the recorded pool")
        expected[key] = recorded[key][1:]
    warm = golden["warmup"]["warmup"]
    if warm[0] != harness.doc_digest(gen.WARMUP):
        raise HarnessError("the warm-up document differs from the recorded one")
    return mods, items, expected, warm[1:]


def warm_up(mods, warm_expected) -> Tally:
    """The same warm-up the set-up probe times; checked like any operation."""
    tally = Tally()
    run_pass(mods, "scope_mix", [("warmup", gen.WARMUP)], {"warmup": warm_expected}, tally)
    return tally


def combined(*tallies: Tally) -> Tally:
    return Tally(
        attempted=sum(t.attempted for t in tallies),
        failed=sum(t.failed for t in tallies),
        errors=[e for t in tallies for e in t.errors],
    )


def untraced_run(args, spec, mods, items, expected, warm_expected):
    setup = measure_setup()
    warm = warm_up(mods, warm_expected)
    tally = Tally()
    while True:
        run_pass(mods, args.workload, items, expected, tally)
        if tally.seconds >= args.seconds:
            break
    completed = len(tally.latencies)
    if not completed:
        raise HarnessError(f"no operation completed: {tally.errors}")
    lat_ms = [x * 1000 for x in tally.latencies]
    values = {
        # The median pass, not the mean: the run is closed-loop and
        # single-threaded, so transient contention on a shared host slows
        # a pass as a whole, and the median discards such passes.
        "reports_per_s": statistics.median(tally.pass_rates),
        "report_ms_p50": statistics.median(lat_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    passes = len(tally.pass_rates)
    print(
        f"{args.workload} seed {args.seed}: {tally.attempted} operations "
        f"({passes} passes of {len(items)}) in {tally.seconds:.2f} s, closed loop, one caller"
    )
    print(
        f"  reports_per_s  {values['reports_per_s']:.4f} 1/s  (median of {passes} passes;"
        f" whole run {completed / tally.seconds:.4f})"
    )
    print(f"  report_ms_p50  {values['report_ms_p50']:.4f} ms  (n={completed})")
    if completed >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat_ms, n=10)[8]
        print(f"  report_ms_p90  {p90:.4f} ms  (n={completed})")
    else:
        print(f"  report_ms_p90  not reported  (n={completed} < {P90_MIN_SAMPLES})")
    total = combined(warm, tally)
    print(f"  failed_frac    {total.failed / total.attempted:.4f}  ({total.failed}/{total.attempted})")
    print(f"  setup_s        {values['setup_s']:.4f} s  (median of {len(setup)} fresh processes)")
    print(f"  peak_rss_mb    {values['peak_rss_mb']:.2f} MB")
    return total, {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def traced_run(args, spec, mods, items, expected, warm_expected):
    tracer = Tracer(mods)
    warm = warm_up(mods, warm_expected)
    plain, traced = Tally(), Tally()
    while True:
        run_pass(mods, args.workload, items, expected, plain)
        tracer.install()
        try:
            run_pass(mods, args.workload, items, expected, traced, tracer)
        finally:
            tracer.uninstall()
        tracer.end_pass()
        if plain.seconds + traced.seconds >= args.seconds:
            break
    if not (plain.latencies and traced.latencies):
        raise HarnessError(f"no operation completed: {plain.errors + traced.errors}")
    layer = tracer.layer_metrics(traced.attempted)
    layer["trace.overhead_frac"] = (
        statistics.median(plain.pass_rates) / statistics.median(traced.pass_rates) - 1
    )
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
    for name in missing:
        # A layer that never ran in this workload made no calls and took no time.
        if not name.endswith((".calls", ".self_ms")):
            raise HarnessError(f"per-layer metric {name} was not measured")
        layer[name] = 0.0

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"trace-{args.workload}.jsonl"
    with out_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "operations": len(items),
                                 "fields": ["name", "start_ns", "end_ns", "parent", "operation"]}) + "\n")
        for span in tracer.first_pass:
            handle.write(json.dumps(span) + "\n")

    print(
        f"{args.workload} seed {args.seed}: {traced.attempted} traced and "
        f"{plain.attempted} untraced operations; "
        f"{len(tracer.first_pass)} spans of the first traced pass in {out_path}"
    )
    print("  Smith-form calls per operation, by stage (calls: operations):")
    for stage, histogram in tracer.snf_calls_by_stage().items():
        counts = ", ".join(f"{calls}: {ops}" for calls, ops in sorted(histogram.items()))
        print(f"    {stage:<34} {counts}")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<44} {layer[m['name']]:.6g} {m['unit']}")
    return combined(warm, plain, traced), {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fibresum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.STRATA))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        mods, items, expected, warm_expected = prepare(args.workload, args.seed)
        run = traced_run if args.trace else untraced_run
        tally, metrics = run(args, spec, mods, items, expected, warm_expected)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for error in tally.errors:
        print(f"  failed: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
