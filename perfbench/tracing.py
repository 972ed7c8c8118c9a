"""In-memory spans around the benchmark's own calls into the library.

A span records its name, an optional size tag (chain length, lane count,
node count or experiment kind), start, end, its parent span and the op it
belongs to.  Spans stay in memory and are written out when the run ends.
Untraced runs use :data:`NULL`, whose spans cost one ``nullcontext`` each.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class CheckFailed(Exception):
    """An output check failed; ``layer`` names the module whose output was wrong."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def layer_of(span_name: str) -> str:
    """Layer that owns a span: the module prefix, with the gates oracle kept apart."""
    if span_name.startswith("gates.oracle"):
        return "gates.oracle"
    return span_name.split(".", 1)[0]


class NullTracer:
    """Tracing off: spans, counts and maxima are dropped."""

    enabled = False
    _null = nullcontext()

    def span(self, name, size=None):
        return self._null

    def count(self, name, n):
        pass

    def note_max(self, name, value):
        pass


NULL = NullTracer()


class Tracer:
    """Collects spans, per-op counts and error counts of one traced run."""

    enabled = True

    def __init__(self):
        self.spans = []            # (op_id, span_id, parent_id, name, size, start, end)
        self.counts = Counter()    # name -> total over traced ops
        self.maxima = {}           # name -> largest value noted
        self.errors = Counter()    # layer -> failures first seen in that layer
        self.op_id = None
        self._stack = []           # (span_id, name) of open spans
        self._next_id = 0

    @contextmanager
    def span(self, name, size=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            self.blame(exc, layer_of(name))
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op_id, span_id, parent, name, size, start, end))

    def blame(self, exc: Exception, layer: str) -> None:
        """Count ``exc`` once, against the innermost layer it passed through."""
        if not getattr(exc, "perfbench_counted", False):
            exc.perfbench_counted = True
            self.errors[layer] += 1

    def count(self, name, n):
        self.counts[name] += n

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, fn, name):
        """``fn`` inside a span; a call nested in a span of the same name adds none."""
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][1] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in ms from the first span."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, size, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "id": span_id, "parent": parent, "name": name,
                    "size": size, "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3}) + "\n")


class SpanStats:
    """Per-op sums and per-size medians over the spans of ``n_ops`` traced ops."""

    def __init__(self, tracer: Tracer, n_ops: int):
        self.n_ops = max(n_ops, 1)
        self.tracer = tracer
        self.busy = defaultdict(float)
        self.calls = Counter()
        self.size_sum = Counter()
        self.by_size = defaultdict(list)
        self.top_level = defaultdict(float)  # op_id -> time covered by parentless spans
        for op_id, _, parent, name, size, start, end in tracer.spans:
            self.busy[name] += end - start
            self.calls[name] += 1
            if isinstance(size, int):
                self.size_sum[name] += size
            self.by_size[name, size].append(end - start)
            if parent is None:
                self.top_level[op_id] += end - start

    def busy_ms(self, name) -> float:
        return self.busy[name] * 1e3 / self.n_ops

    def calls_per_op(self, name) -> float:
        return self.calls[name] / self.n_ops

    def sizes_per_op(self, name) -> float:
        return self.size_sum[name] / self.n_ops

    def count_per_op(self, name) -> float:
        return self.tracer.counts[name] / self.n_ops

    def p50_ms(self, name, size) -> float:
        """Median duration of the spans of one size; 0 when the run had none."""
        durations = self.by_size.get((name, size))
        return statistics.median(durations) * 1e3 if durations else 0.0

    def mean_ms(self, name) -> float:
        """Mean span duration (per call, not per op); 0 when the run had none."""
        return self.busy[name] * 1e3 / self.calls[name] if self.calls[name] else 0.0

    def coverage_pct(self, op_walls_ms: dict) -> float:
        """Share of traced op wall time covered by the op's top-level spans."""
        total_ms = sum(op_walls_ms.values())
        covered_ms = sum(self.top_level[op_id] for op_id in op_walls_ms) * 1e3
        return 100.0 * covered_ms / total_ms if total_ms else 0.0
