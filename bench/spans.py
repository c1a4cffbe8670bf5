"""Spans around the library's public functions, recorded from outside it.

:class:`Tracer` rebinds every public function of the six ``fibresum``
modules (and ``IntMatrix.__post_init__``) to a wrapper that records a
span: name, start, end, parent span and operation id.  Module-internal
calls go through the rebound module attribute as well, so nested calls
nest spans.  ``src/`` is never edited; :meth:`Tracer.uninstall` restores
the originals.

A layer's self time is its span time minus the time of its child spans.
Spans are kept in memory for one pass over the run's items and folded
into per-name totals when the pass ends; the first traced pass is kept
whole so that it can be written out when the run ends.
Smith-form counters (input size, distinct inputs, bit length of the
result) are computed after the Smith span has closed, inside a
``bench.counters`` span that is a child of the caller's span, so that
bookkeeping is not charged to any layer.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns
from types import ModuleType
from typing import Any, Callable

MODULES = ("model", "intlat", "abgroups", "engine", "forms", "cli")

# The forms cross-checks are reported together.
GROUPED = {
    "forms.divisibility": "forms.checks",
    "forms.canonical_square": "forms.checks",
    "forms.ionel_parker_checks": "forms.checks",
}

OPERATION = "operation"
COUNTERS = "bench.counters"
SNF = "intlat.smith_normal_form"
INTMATRIX = "intlat.IntMatrix"


def public_functions(mod: ModuleType) -> list[str]:
    """Functions defined in ``mod`` whose names do not start with ``_``."""
    return [
        name
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    ]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, mods: dict[str, ModuleType]):
        self.mods = mods
        # One list per span: [name, start_ns, end_ns, parent index, operation id].
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []
        self._seen: set[tuple[int, int, tuple[int, ...]]] = set()
        self.first_pass: list[list[Any]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.op_ns = 0
        self.snf_distinct = 0
        self.snf_cells = 0
        self.snf_op_peak_bits: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    def _wrap_snf(self, fn: Callable) -> Callable:
        traced = self._wrap(SNF, fn)
        spans, stack = self.spans, self._stack

        def counted(A, *args, **kwargs):
            result = traced(A, *args, **kwargs)
            start = perf_counter_ns()
            key = (A.rows, A.cols, A.entries)
            if key not in self._seen:
                self._seen.add(key)
                self.snf_distinct += 1
            self.snf_cells += A.rows * A.cols
            parts = [getattr(result, part) for part in ("U", "D", "V") if hasattr(result, part)]
            bits = max((abs(x).bit_length() for m in parts for x in m.entries), default=0)
            self.snf_op_peak_bits[self._op] = max(bits, self.snf_op_peak_bits.get(self._op, 0))
            spans.append([COUNTERS, start, perf_counter_ns(), stack[-1] if stack else -1, self._op])
            return result

        return counted

    def run_operation(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as operation ``op_id`` under a root span."""
        self._op = op_id
        self._seen = set()
        try:
            return self._wrap(OPERATION, fn)()
        finally:
            self._op = -1

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for label in MODULES:
            mod = self.mods[label]
            for name in public_functions(mod):
                fn = getattr(mod, name)
                full = f"{label}.{name}"
                wrapper = self._wrap_snf(fn) if full == SNF else self._wrap(GROUPED.get(full, full), fn)
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrapper)
        int_matrix = self.mods["intlat"].IntMatrix
        post_init = getattr(int_matrix, "__post_init__", None)
        if post_init is not None:
            self._saved.append((int_matrix, "__post_init__", post_init))
            int_matrix.__post_init__ = self._wrap(INTMATRIX, post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------

    def end_pass(self) -> None:
        """Fold the pass's spans into the per-name totals and drop them."""
        spans = self.spans
        self_ns = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        for (name, start, end, _, _), own in zip(spans, self_ns):
            self.calls[name] += 1
            self.self_ns[name] += own
            if name == OPERATION:
                self.op_ns += end - start
        if not self.first_pass:
            self.first_pass = list(spans)
        spans.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation calls and self time of every span name, and the
        Smith-form counters, over the folded passes."""
        calls = self.calls
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / n_ops
        out[f"{INTMATRIX}.constructed"] = calls[INTMATRIX] / n_ops
        snf_calls = calls[SNF]
        out[f"{SNF}.distinct_ratio"] = self.snf_distinct / snf_calls if snf_calls else 1.0
        out[f"{SNF}.cells"] = self.snf_cells / n_ops
        out[f"{SNF}.peak_bits"] = statistics.median(self.snf_op_peak_bits.values() or [0])
        out[f"{SNF}.self_frac"] = self.self_ns[SNF] / self.op_ns if self.op_ns else 0.0
        return out

    def snf_calls_by_stage(self) -> dict[str, Counter[int]]:
        """For each top-level stage of an operation, how many operations
        made how many Smith-form calls under it, in the first traced pass;
        ``cli.build_report`` is split by whether the forms ran."""
        spans = self.first_pass
        forms_ran = {op for name, _, _, _, op in spans if name == "forms.canonical_class"}
        stage_of: dict[int, str] = {}
        counts: defaultdict[tuple[str, int], int] = defaultdict(int)
        for index, (name, _, _, parent, op) in enumerate(spans):
            if parent < 0:
                continue
            if spans[parent][0] == OPERATION:
                stage = name
                if name == "cli.build_report":
                    stage += " (forms ran)" if op in forms_ran else " (forms skipped)"
                stage_of[index] = stage
                counts[stage, op] += 0
            else:
                stage_of[index] = stage_of[parent]
            if name == SNF:
                counts[stage_of[index], op] += 1
        histogram: defaultdict[str, Counter[int]] = defaultdict(Counter)
        for (stage, _), n in counts.items():
            histogram[stage][n] += 1
        return dict(sorted(histogram.items()))
