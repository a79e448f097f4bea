"""Spans around the public functions of each expcurve module.

The tracer is installed from outside the package: every public function of
the layer modules is replaced by a wrapper in every module that binds it
(``cli`` and ``surrogate`` import functions with ``from ... import``, so one
function can be bound in several modules). A wrapper records one span per
call: id, parent id, name, start, end, pass id, thread and an optional work
count taken from the call's arguments or result.

The parent stack is thread-local. Work submitted to the thread pools of
``hindcast`` and ``surrogate`` inherits the submitting span as its parent, so
spans from worker threads hang under the call that started them.

Spans stay in memory until the run ends. Self time is a span's duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import statistics
import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("series", "estimators", "variance", "hindcast", "surrogate", "diagnostics", "forecast", "cli")

Span = namedtuple("Span", "id parent name start end pass_id thread count")

# Work counts read at a layer boundary: span name -> (label, counter).
COUNTERS = {
    "hindcast.run_hindcast": ("records", lambda args, kwargs, result: len(result)),
    "hindcast.write_errors_csv": ("rows", lambda args, kwargs, result: len(args[1])),
    "hindcast.read_errors_csv": ("rows", lambda args, kwargs, result: len(result)),
    "series.ingest_csv": ("rows", lambda args, kwargs, result: sum(ts.T for ts in result)),
    "surrogate.make_dataset": ("series", lambda args, kwargs, result: len(result)),
    "diagnostics.ecdf_vs_reference": ("n", lambda args, kwargs, result: len(result.sample)),
    "diagnostics.pit": ("n", lambda args, kwargs, result: len(result)),
}


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def wrap(self, name: str, fn):
        label_counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            count = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if label_counter is not None:
                    count = label_counter[1](args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, parent, name, start, end, self.pass_id, threading.get_ident(), count)
                )

        traced.__wrapped_by_tracer__ = True
        return traced

    def _executor_class(self):
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            """Thread pool whose tasks run under the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run_under_parent():
                    tracer._local.base = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.base = None

                return super().submit(run_under_parent)

        return SpanExecutor

    def install(self, package: str = "expcurve") -> None:
        """Wrap every public function of the layer modules in every module
        that binds it, and make their thread pools pass the parent span on."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or getattr(fn, "__wrapped_by_tracer__", False)
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._patches.append((other, bound, fn))
                            setattr(other, bound, wrapper)
        executor = self._executor_class()
        for layer in ("hindcast", "surrogate"):
            mod = modules[f"{package}.{layer}"]
            if getattr(mod, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._patches.append((mod, "ThreadPoolExecutor", ThreadPoolExecutor))
                mod.ThreadPoolExecutor = executor

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as gzipped CSV, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,pass,thread,count\n")
            for s in self.spans:
                fh.write(
                    f"{s.id},{'' if s.parent is None else s.parent},{s.name},"
                    f"{s.start - t0:.9f},{s.end - t0:.9f},{s.pass_id},{s.thread},"
                    f"{'' if s.count is None else s.count}\n"
                )


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_table(spans) -> dict:
    """Per pass, per span name: calls, total seconds, self seconds, work count.

    Returns ``{pass_id: {name: {"calls", "s", "self_s", "count", "label"}}}``.
    """
    selfs = self_times(spans)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.pass_id, {}).setdefault(
            s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "label": None}
        )
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
        if s.count is not None:
            row["count"] += s.count
            row["label"] = COUNTERS[s.name][0]
    return table


def median_rows(table: dict, pass_ids) -> dict:
    """Median over the given passes of each row field (0 where not called)."""
    names = sorted({name for p in pass_ids for name in table.get(p, {})})
    out = {}
    for name in names:
        rows = [table.get(p, {}).get(name) for p in pass_ids]
        label = next((r["label"] for r in rows if r and r["label"]), None)
        out[name] = {
            field: statistics.median((r[field] if r else 0) for r in rows)
            for field in ("calls", "s", "self_s", "count")
        }
        out[name]["label"] = label
    return out
