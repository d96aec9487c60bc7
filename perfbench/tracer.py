"""Span recorder, call-site patching and self-time arithmetic.

This module knows nothing about ``repro``: it records nested spans around
wrapped callables, computes each span name's self time, and writes the
spans as a Chrome trace-event file.  :mod:`probes` says which ``repro``
functions to wrap and how to turn the spans into per-layer metrics.

A span is ``[name, start, end, parent, op, hidden]``: ``parent`` is the
index of the enclosing span (``-1`` at top level), ``op`` the id of the
benchmark op that was running, and ``hidden`` the time spent in
*aggregate leaves* directly inside it.  Aggregate leaves are calls too
frequent to keep one span each (a varity program makes ~1,600 libm
calls); they are timed and counted but not stored, and their time is
subtracted from the enclosing span's self time like a child's.

Spans are recorded only in the process that installed the recorder:
process-pool workers forked from it call the originals directly.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = [
    "Recorder",
    "Patcher",
    "self_times",
    "inclusive_times",
    "top_level_time",
    "chrome_trace_events",
    "write_chrome_trace",
    "span_wrapper",
    "leaf_wrapper",
    "counter_wrapper",
]

NAME, START, END, PARENT, OP, HIDDEN = range(6)


class Recorder:
    """Collects spans, aggregate leaves and counters in memory.

    The clock can be paused: work the benchmark itself does between
    ops (comparing pass inputs with outputs) is cut out of the span
    timeline, so it is charged to no layer.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._raw_clock = clock
        self._offset = 0.0
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.leaf_top_seconds = 0.0
        self.counts: Counter = Counter()

    def clock(self) -> float:
        return self._raw_clock() - self._offset

    @contextmanager
    def paused(self):
        t0 = self._raw_clock()
        try:
            yield
        finally:
            self._offset += self._raw_clock() - t0

    def active(self) -> bool:
        """Whether calls in this process are recorded (not a forked worker)."""
        return os.getpid() == self.pid

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, 0.0])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    def add_leaf(self, name: str, seconds: float) -> None:
        self.leaf_seconds[name] += seconds
        self.counts[name] += 1
        if self.stack:
            self.spans[self.stack[-1]][HIDDEN] += seconds
        else:
            self.leaf_top_seconds += seconds


def self_times(spans: list[list], leaf_seconds: dict | None = None) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children and of the aggregate leaves inside it, so the self times of
    all spans and leaves add up to the duration of the top-level spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        totals[span[NAME]] += span[END] - span[START] - child[i] - span[HIDDEN]
    for name, seconds in (leaf_seconds or {}).items():
        totals[name] += seconds
    return dict(totals)


def inclusive_times(spans: list[list]) -> dict[str, float]:
    """Total duration per span name, children included.

    Only meaningful for names that never nest inside themselves.
    """
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += span[END] - span[START]
    return dict(totals)


def top_level_time(spans: list[list], leaf_top_seconds: float = 0.0) -> float:
    """Time covered by spans that have no parent (plus top-level leaves)."""
    return leaf_top_seconds + sum(
        s[END] - s[START] for s in spans if s[PARENT] < 0
    )


def chrome_trace_events(spans: list[list]) -> list[dict]:
    """Complete ("X") trace events, microseconds, one track per op."""
    if not spans:
        return []
    t0 = min(s[START] for s in spans)
    return [
        {
            "name": s[NAME],
            "cat": s[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": round((s[START] - t0) * 1e6, 3),
            "dur": round((s[END] - s[START]) * 1e6, 3),
            "pid": 1,
            "tid": 0,
            "args": {"op": s[OP], "parent": s[PARENT]},
        }
        for s in spans
    ]


def write_chrome_trace(path, spans: list[list], metadata: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {"traceEvents": chrome_trace_events(spans), "otherData": metadata}, f
        )


class Patcher:
    """Replaces callables with wrappers and puts every original back.

    Modules import functions by name, so one function object can be bound
    to attributes of several modules; :meth:`wrap_function` replaces
    every attribute of every module under ``package`` that ``is`` the
    function.  :meth:`wrap_method` replaces a method in the one class
    dictionary that defines it.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is not None and (name == self.package or name.startswith(prefix)):
                yield module

    def wrap_function(self, func, make_wrapper) -> int:
        """Rebind every module attribute bound to ``func``; returns how many."""
        wrapper = make_wrapper(func)
        sites = 0
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    sites += 1
        if not sites:
            raise LookupError(f"{func.__module__}.{func.__qualname__} is bound nowhere")
        return sites

    def wrap_method(self, cls: type, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def span_wrapper(recorder: Recorder, name, after=None):
    """Wrapper factory: one span per call.

    ``name`` is a string or a callable of the call's arguments (a pass
    span is named after the pass's class).  ``after(args, kwargs,
    result)`` runs once the span is closed, for counters.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            index = recorder.enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def leaf_wrapper(recorder: Recorder, name: str):
    """Wrapper factory for aggregate leaves: timed and counted, not stored."""

    def make(fn):
        clock = recorder.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.add_leaf(name, clock() - t0)

        return wrapper

    return make


def counter_wrapper(recorder: Recorder, name: str):
    """Wrapper factory that only counts calls."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.active():
                recorder.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make
