"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end in ns, a parent span and a trace id (the
pass index on the scan workloads, the record index on the feed).  Spans are
kept in flat integer arrays while the run lasts and written out at the end
as gzip-compressed JSONL.  A span's *self time* is its duration minus the
time its children cover.

The wrappers here are installed by the benchmark around public calls into
the program; the program itself carries no tracing code.
"""

from __future__ import annotations

import gzip
import time
from array import array

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self._stack = [-1]
        self.trace_id = 0
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    def leaf(self, name_id: int, started: int, ended: int) -> None:
        self.name.append(name_id)
        self.start.append(started)
        self.end.append(ended)
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)

    def wrap(self, name: str, function):
        """``function`` with a span around every call made while ``on``."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.on:
                return function(*args, **kwargs)
            index = self.begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_leaf(self, name: str, function):
        """A one-argument ``function`` recorded as a leaf span (no children)."""
        name_id = self.name_id(name)
        leaf = self.leaf

        def traced(argument):
            started = _now()
            function(argument)
            leaf(name_id, started, _now())

        return traced

    def self_times(self) -> array:
        """Self time in ns of every span (duration minus covered children)."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        covered = array("q", bytes(8 * len(own)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += own[index]
        return array("q", (o - c for o, c in zip(own, covered)))

    def by_trace(self, names: set[str]) -> dict[int, dict[str, list[int]]]:
        """``{trace id: {name: [self ns of each span]}}`` for ``names``."""
        wanted = {self._ids[name]: name for name in names if name in self._ids}
        result: dict[int, dict[str, list[int]]] = {}
        for index, own in enumerate(self.self_times()):
            name = wanted.get(self.name[index])
            if name is not None:
                result.setdefault(self.trace[index], {}).setdefault(
                    name, []).append(own)
        return result

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for index in range(len(self.start)):
                handle.write(
                    '{"id":%d,"name":"%s","start_ns":%d,"end_ns":%d,'
                    '"parent":%d,"trace":%d}\n' % (
                        index, names[self.name[index]], self.start[index],
                        self.end[index], self.parent[index],
                        self.trace[index],
                    )
                )
