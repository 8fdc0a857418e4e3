"""Span tracing by re-binding permrow's public functions.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that records a span: (id, name, start, end, parent, thread
id).  Spans stay in memory until the run ends.  A span's parent is the
innermost open span of its own thread; a span opened by a pool thread with
nothing open on that thread takes the innermost open span of the main thread
(the ``run_monte_carlo`` call that submitted it).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("permrow.cli", "main", "cli"),
    ("permrow.cli", "load_coverage_csv", "io.load"),
    ("permrow.cli", "write_estimates_csv", "io.write"),
    ("permrow.cli", "spectral_extremes", "estimators.spectral"),
    ("permrow.cli", "run_monte_carlo", "simulation.cell"),
    ("permrow.estimators", "center_rows", "matrix.center"),
    ("permrow.estimators", "leading_singular_triple", "matrix.triple"),
    ("permrow.estimators", "rank_vector", "matrix.rank"),
    ("permrow.simulation", "generate_s1", "simulation.generate"),
    ("permrow.simulation", "generate_s2", "simulation.generate"),
    ("permrow.simulation", "synthesize_observation", "simulation.noise"),
    ("permrow.simulation", "empirical_risk", "simulation.risk"),
    ("permrow.simulation", "order_statistic_extremes", "estimators.os"),
)


def _count_result(name, args, result):
    """Counters read off a layer's arguments and result."""
    if name == "matrix.triple":
        return {
            "matrix.triple_calls": 1,
            "matrix.triple_iterations": result.iterations,
            "matrix.triple_nonconverged": int(not result.converged),
        }
    if name == "simulation.cell":
        return {"simulation.failed_replicates": len(result.failed_replicates)}
    if name == "io.load":
        return {"io.load_bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )
            counts = _count_result(name, args, result)
            if counts:
                with self._lock:
                    for key, value in counts.items():
                        self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children on the
    same thread cover."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            children[parent[0]].append((s[2], s[3]))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def busy_seconds_off_main(spans, main_thread: int) -> float:
    """Time covered by spans on threads other than ``main_thread``, summed
    over those threads (each thread's intervals are merged first)."""
    per_thread = defaultdict(list)
    for _, _, start, end, _, thread in spans:
        if thread != main_thread:
            per_thread[thread].append((start, end))
    total = 0.0
    for intervals in per_thread.values():
        cursor = float("-inf")
        for start, end in sorted(intervals):
            start = max(start, cursor)
            if end > start:
                total += end - start
                cursor = end
    return total
