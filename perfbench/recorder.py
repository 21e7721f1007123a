"""Timing and span recording for the benchmark's calls into twocst.

Every library call the benchmark makes goes through ``Recorder.call``,
which times it and adds the time to the current operation's totals.
With tracing on it also keeps a span (name, start, end, parent span,
operation id) in memory; spans are written out when the run ends.

Span names are ``<module>.<function>`` for calls into the module of
``src/twocst`` with that name, ``bench.*`` for the benchmark's own
operations and ``probe.*`` for work the traced run adds only to
measure something (it belongs to no layer).  A suffix after ``@``
tells apart calls of one function made for different purposes, as in
``dp_core.reconstruct@root``.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("instance", "dp_core", "pruned", "oracle", "threeway", "tree", "structure")


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self._open: list[int] = []
        self.op = 0
        self.op_family: dict[int, str] = {}
        self.elapsed: defaultdict[str, float] = defaultdict(float)

    def begin_op(self, family: str) -> None:
        """Start a new operation: fresh per-operation time totals."""
        self.op += 1
        self.op_family[self.op] = family
        self.elapsed = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.trace:
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.elapsed[name] += perf_counter() - start
            return result
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
            self.elapsed[name] += end - start


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans, ops=None) -> dict[str, float]:
    """Seconds per module: each span's duration minus the part of it
    that its child spans cover, optionally only for spans whose
    operation id is in ``ops``.  Children of one parent never overlap
    (one thread, closed loop), so their durations simply add up."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, op) in enumerate(spans):
        if ops is None or op in ops:
            out[module_of(name)] += (end - start) - child[idx]
    return dict(out)


def span_totals(spans, ops=None) -> tuple[dict[str, float], dict[str, int]]:
    """(seconds, call count) per span name, optionally only for spans
    whose operation id is in ``ops``."""
    secs: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for name, start, end, _, op in spans:
        if ops is None or op in ops:
            secs[name] += end - start
            calls[name] += 1
    return dict(secs), dict(calls)
