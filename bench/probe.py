"""Set-up cost of a fresh process: import the library and run the warm-up
operation.  Prints the seconds taken; ``run.py`` runs it several times.

    python3 bench/probe.py
"""

import sys
import time

import gen
import harness

start = time.perf_counter()
try:
    mods = harness.load_fibresum()
except harness.HarnessError as exc:
    sys.exit(f"probe: {exc}")
harness.operation(mods, "scope_mix", gen.WARMUP)
print(time.perf_counter() - start)
