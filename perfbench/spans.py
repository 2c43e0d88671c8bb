"""In-memory span recorder and the wrapping that puts spans around reslab's
layers from outside the package.

A span is (id, parent, name, thread, start, end, attrs).  Spans are kept in a
list while the run lasts and written out once, at the end.  Parents follow a
per-thread stack; work that ``reslab.parallel.thread_map`` hands to a pool
thread is adopted by the ``thread_map`` span, so it counts as that span's
child.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, after=None):
        """Run ``fn`` inside a span; ``after(result, args, kwargs)`` may
        return attributes to attach to it."""
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                "name": name, "thread": threading.get_ident()}
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            span["attrs"] = after(result, args, kwargs)
        return result

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent_id: int, fn):
        """``fn`` wrapped so that spans it opens on any thread have
        ``parent_id`` as their parent."""
        def adopted(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [parent_id]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved
        return adopted

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)
        return wrapped

    def patch(self, owner, attr: str, name: str, after=None) -> bool:
        """Replace ``owner.attr`` by a traced wrapper; False when absent.

        Class attributes are looked up in ``__dict__`` so that classmethods
        and staticmethods keep their kind.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, after))
        else:
            new = self.wrap(name, raw, after)
        self.replace(owner, attr, new)
        return True

    def replace(self, owner, attr: str, new) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children on pool threads may overlap one another; the union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(lo, s["start"]), min(hi, s["end"]))
                for lo, hi in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [(lo, hi) for lo, hi in kids if hi > lo])
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self seconds, inclusive seconds, per-call
    inclusive durations in ms, and the attrs of every call."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0,
                                           "incl_s": 0.0, "durations_ms": [],
                                           "attrs": []})
        dur = s["end"] - s["start"]
        entry["calls"] += 1
        entry["self_s"] += selfs[s["id"]]
        entry["incl_s"] += dur
        entry["durations_ms"].append(1e3 * dur)
        if "attrs" in s:
            entry["attrs"].append(s["attrs"])
    return out


def file_bytes(path_arg_index: int):
    """``after`` hook recording the size of the file named by a positional
    argument."""
    def after(_result, args, kwargs):
        path = args[path_arg_index] if len(args) > path_arg_index \
            else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    return after
