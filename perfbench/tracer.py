"""Spans recorded by the benchmark around its calls into each spl layer.

A span has a name, start and end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable across the benchmark's
processes), the id of the span that caused it, the run id, and the
process's ``getrusage`` high-water RSS before and after. Spans are kept in
memory and written out once, when the run ends. With tracing off,
``span`` records nothing.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager


def maxrss_mb() -> float:
    """High-water RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._prefix = f"{run_id}:{os.getpid()}:"

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields the record (or None when off)."""
        if not self.enabled:
            yield None
            return
        rec = {
            "id": self._prefix + str(len(self.spans)),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "rss0": maxrss_mb(),
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss1"] = maxrss_mb()
            self._stack.pop()


def self_times(spans: list) -> dict:
    """Per span id: (self seconds, exclusive RSS growth in MiB).

    Self time is the span's duration minus the part of it its children
    cover. The high-water mark only rises, so a span's exclusive growth is
    its own rise minus the rises of its children: each increase is charged
    only to the innermost call that raised it.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        covered = 0.0
        edge = s["start"]
        for c in kids:
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        grow = (s["rss1"] - s["rss0"]) - sum(c["rss1"] - c["rss0"] for c in kids)
        out[s["id"]] = (s["end"] - s["start"] - covered, grow)
    return out


def subtree(spans: list, root_id: str) -> list:
    """The span with id root_id and all its descendants."""
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out = [s for s in spans if s["id"] == root_id]
    frontier = [root_id]
    while frontier:
        nxt = []
        for pid in frontier:
            for c in by_parent.get(pid, []):
                out.append(c)
                nxt.append(c["id"])
        frontier = nxt
    return out
