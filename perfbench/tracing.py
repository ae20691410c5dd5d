"""In-memory spans around the engine's public entry points.

A span is ``[name, start, end, parent]``; spans are kept in memory and
reduced when a pass ends. A layer is the part of a span name before the
first dot, so ``reconcile.compile`` belongs to ``reconcile``. Self time
is a span's duration minus the durations of its direct children, and is
reported as ``<name>_s``; a variant after ``#`` goes last, so
``indicators.aggregate#org`` is reported as ``indicators.aggregate_s.org``.

Spans are opened only on the thread that runs the pass: the engine's
thread pool (``reconcile_corpus(threads=2)``) calls no wrapped function,
so one stack is enough.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans and counts for one group of work (set-up or a pass)."""

    def __init__(self):
        self.spans: list[list] = []
        self.last_spans: list[list] = []  # the spans of the last collect()
        self.totals: dict[str, float] = defaultdict(float)  # summed over calls
        self.latest: dict[str, float] = {}  # last value wins
        self.tag = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields it so a wrapper may rename it on close."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def tagged(self, tag: str):
        """Suffix for span names chosen by wrappers while the block runs."""
        self.tag = tag
        try:
            yield
        finally:
            self.tag = ""

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def set(self, name: str, value: float) -> None:
        self.latest[name] = value

    def collect(self) -> dict[str, float]:
        """Self time per span name, plus every count; then start afresh."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_s = end - start - children
            base, _, variant = name.partition("#")
            out[base + "_s" + (f".{variant}" if variant else "")] += self_s
            out[base.split(".", 1)[0] + ".self_s"] += self_s
        out["trace.spans"] = len(self.spans)
        out.update(self.totals)
        out.update(self.latest)
        self.last_spans = self.spans
        self.spans, self.totals, self.latest = [], defaultdict(float), {}
        return dict(out)


def wrap(tracer: Tracer, fn, name, count=None):
    """Return ``fn`` run inside a span.

    ``name`` is a string or ``name(result, *args, **kwargs)``, chosen when
    the call returns. Naming and ``count(tracer, result, *args, **kwargs)``
    run inside a ``trace.count`` span, so their cost shows as tracing
    overhead and not in the caller's self time.
    """

    def wrapper(*args, **kwargs):
        with tracer.span(name if isinstance(name, str) else "?") as record:
            result = fn(*args, **kwargs)
        if callable(name) or count is not None:
            with tracer.span("trace.count"):
                if callable(name):
                    record[0] = name(result, *args, **kwargs)
                if count is not None:
                    count(tracer, result, *args, **kwargs)
        return result

    return wrapper
