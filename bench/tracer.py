"""Span tracing for the traced run of the benchmark.

Only the traced worker imports this module.  `Tracer.install` replaces
the module attributes listed in `plan.SHIM_TARGETS` with wrappers that
record one span per call: layer name, start, end, the id of the command
line (op) it belongs to, its parent span and a few work counts.  Spans
stay in memory until the run ends and are then reduced to per-layer
numbers.

A span's parent is the innermost open span of its own thread.  A span
opened on a pool thread with nothing open on that thread belongs to the
innermost span open on the thread that runs the op, which is blocked in
the call that started the pool.  A layer's self time is its duration
minus the union of its children's intervals, so children that overlap
on pool threads are not subtracted twice.
"""

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

import plan

ROOT = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "op", "parent", "counts", "children")

    def __init__(self, name, start, op, parent):
        self.name = name
        self.start = start
        self.end = start
        self.op = op
        self.parent = parent
        self.counts = None
        self.children = []


def _levels(base: int, stop: int, first: int) -> int:
    """Number of j >= first with base**j < stop."""
    j, power = first, base**first
    while power < stop:
        j += 1
        power *= base
    return j - first


def _exponent_range(result, start, stop, p, mod=None):
    # Floor-sum kernel: arange and zeros write 8 B each; every level reads
    # n, writes n // p^j, and reads both plus acc to write acc (40 B);
    # the final reduction reads and writes acc (16 B).
    elems = stop - start
    levels = _levels(p, stop, 1)
    return {"elems": elems, "divs": elems * levels,
            "bytes": elems * (16 + 40 * levels + (16 if mod is not None else 0))}


def _evaluate_range(result, f, start, stop, mod=None):
    elems = stop - start
    return {"elems": elems, "lookups": elems * max(1, _levels(f.q, stop, 0))}


COUNTERS = {
    "exponents.exponent_range": _exponent_range,
    "qadditive.evaluate_range": _evaluate_range,
    "construction.lambda_index": lambda result, p, m: {"lambda_sum": result.lam},
    "construction.build_function": lambda result, p, m: {"table_entries": result.q},
    "experiments.pattern_coverage":
        lambda result, primes, limit, chunk_size=None: {"limit": limit, "k": len(primes)},
    "reports.emit": lambda result, text, destination=None: {"bytes_out": len(text)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for module, attr, layer in plan.SHIM_TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), layer))

    def _wrap(self, fn, layer):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = Span(layer, time.perf_counter(), self.op, parent)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        shim.__bench_shim__ = True
        return shim

    def end_op(self, start: float, end: float) -> None:
        """Close the op that ran from start to end: record its cli.main
        span and move on to the next op id."""
        span = Span(ROOT, start, self.op, None)
        span.end = end
        self.spans.append(span)
        self.op += 1


def _union(intervals) -> float:
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def aggregate(spans) -> dict:
    """Per-layer totals: busy (sum of durations), self, calls, the busy
    time and covered length of children, and the summed work counts."""
    roots = {s.op: s for s in spans if s.name == ROOT}
    for s in spans:
        if s.name != ROOT:
            (s.parent or roots[s.op]).children.append(s)
    stats = defaultdict(Counter)
    for s in spans:
        st = stats[s.name]
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in s.children]
        covered = _union(kids)
        st["calls"] += 1
        st["busy"] += s.end - s.start
        st["self"] += s.end - s.start - covered
        st["child_busy"] += sum(c.end - c.start for c in s.children)
        st["child_union"] += covered
        if s.counts:
            st.update(s.counts)
            if "k" in s.counts:
                # pattern_coverage calls the kernel once per prime per chunk
                elems = sum(c.counts["elems"] for c in s.children if c.counts)
                st["scanned"] += elems / s.counts["k"]
    return stats


def layer_metrics(spans, rounds: int) -> dict:
    """The per-layer metrics of plan.PER_LAYER except trace.overhead_s,
    per round of the workload."""
    st = aggregate(spans)

    def per(layer, key):
        return st[layer][key] / rounds

    def ratio(layer, num, den, scale=1.0):
        d = st[layer][den]
        return scale * st[layer][num] / d if d else 0.0

    er, ev = "exponents.exponent_range", "qadditive.evaluate_range"
    return {
        f"{er}.busy_s": per(er, "busy"),
        f"{er}.calls": per(er, "calls"),
        f"{er}.elems": per(er, "elems"),
        f"{er}.ns_per_elem": ratio(er, "busy", "elems", 1e9),
        f"{er}.divs": per(er, "divs"),
        f"{er}.bytes": per(er, "bytes"),
        f"{ev}.busy_s": per(ev, "busy"),
        f"{ev}.elems": per(ev, "elems"),
        f"{ev}.ns_per_elem": ratio(ev, "busy", "elems", 1e9),
        f"{ev}.lookups": per(ev, "lookups"),
        "construction.lambda_index.busy_s": per("construction.lambda_index", "busy"),
        "construction.lambda_index.lambda_sum": per("construction.lambda_index", "lambda_sum"),
        "construction.build_function.busy_s": per("construction.build_function", "busy"),
        "construction.build_function.table_entries":
            per("construction.build_function", "table_entries"),
        "construction.verify_congruence.self_s": per("construction.verify_congruence", "self"),
        "experiments.joint_histogram.self_s": per("experiments.joint_histogram", "self"),
        "experiments.joint_histogram.overlap":
            ratio("experiments.joint_histogram", "child_busy", "child_union"),
        "experiments.discrepancy.busy_s": per("experiments.discrepancy", "busy"),
        "experiments.pattern_search.self_s": per("experiments.pattern_search", "self"),
        "experiments.pattern_coverage.self_s": per("experiments.pattern_coverage", "self"),
        "experiments.pattern_coverage.calls": per("experiments.pattern_coverage", "calls"),
        "experiments.pattern_coverage.scan_ratio":
            ratio("experiments.pattern_coverage", "scanned", "limit"),
        "reports.histogram_csv.busy_s": per("reports.histogram_csv", "busy"),
        "reports.histogram_json.busy_s": per("reports.histogram_json", "busy"),
        "reports.pattern_json.busy_s": per("reports.pattern_json", "busy"),
        "reports.coverage_json.busy_s": per("reports.coverage_json", "busy"),
        "reports.emit.busy_s": per("reports.emit", "busy"),
        "reports.bytes_out": per("reports.emit", "bytes_out"),
        "cli.main.self_s": per(ROOT, "self"),
        "cli.main.busy_s": per(ROOT, "busy"),
    }
