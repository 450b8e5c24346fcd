"""Span tracer that instruments voxlabel from outside, through its public names.

A target function is wrapped once and the wrapper is bound at every module
attribute that holds the original, because several modules import the same
function under their own name (``explore.render_frame``,
``pipeline.finalize_map``, ``pipeline.sha256_file``, ``cli.run_grid``, ...).
Spans are kept in memory as (id, name, start, end, parent, unit) and written
out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None


def self_times(spans: list) -> dict:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Records a span around every call of the installed targets.

    ``targets`` maps a span name to ``(module_name, attribute)`` naming where
    the function is defined; ``observers`` maps a span name to a callback
    ``(args, kwargs, result)`` that updates ``counters`` after the call.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.unit: int | None = None
        self._stack: list = []
        self._bound: list = []   # (module, attribute, original, wrapper)

    def count(self, name: str, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self, targets: dict, observers: dict | None = None):
        """Bind a wrapper at every attribute of voxlabel's modules holding a target."""
        observers = observers or {}
        wrappers = {}
        for name, (mod_name, attr) in targets.items():
            original = getattr(sys.modules[mod_name], attr)
            wrappers[id(original)] = self._wrap(name, original, observers.get(name))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "voxlabel"
                                      or mod_name.startswith("voxlabel.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._bound.append((module, attr, value, wrapper))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    @contextlib.contextmanager
    def paused(self):
        """Bind the original functions again for the duration of the block."""
        for module, attr, original, _ in reversed(self._bound):
            setattr(module, attr, original)
        try:
            yield
        finally:
            for module, attr, _, wrapper in self._bound:
                setattr(module, attr, wrapper)

    def _wrap(self, name, fn, observer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observer is not None:
                observer(self, args, kwargs, result)
            return result
        return wrapper

    def summary(self, spans: list | None = None) -> dict:
        """Span name -> {calls, busy_s, self_s, durations (s, sorted)}.

        Summarizes ``spans`` (by default every recorded span).
        """
        spans = self.spans if spans is None else spans
        selfs = self_times(spans)
        out: dict = {}
        for s in spans:
            agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["busy_s"] += s.end - s.start
            agg["self_s"] += selfs[s.id]
            agg["durations"].append(s.end - s.start)
        for agg in out.values():
            agg["durations"].sort()
        return out

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "unit": s.unit}) + "\n")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1]
