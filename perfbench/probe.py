"""Machine probe: a fixed pure-Python loop timed beside every measurement.

On a shared virtual machine the same code runs up to ~1.6x slower in some
phases than in others, and a phase lasts from about one to fifteen seconds.
Every timing the benchmark reports is therefore divided by this probe, run
right beside it: a segment of work of ``t`` ns that sits between probes of
``p0`` and ``p1`` ms counts as ``t * PROBE_REF_MS / ((p0 + p1) / 2)`` ns.
``PROBE_REF_MS`` is a fixed constant -- never change it, or figures from
before and after the change stop being comparable.

The probe refuses to run while the process has a second thread or a live
child process: work the program leaves running would slow the probe and
inflate the normalized figures.
"""

from __future__ import annotations

import os
import time
from array import array

#: Reference probe time in ms: normalized figures are "as if the probe took
#: this long".  Fixed once; see the module docstring.
PROBE_REF_MS = 25.0

_PROBE_ITERATIONS = 200_000


class ProbeError(RuntimeError):
    """The process is not alone on its thread: the probe would be skewed."""


def _live_children(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid and fields[0] != b"Z":
            children.append(int(entry))
    return children


def check_alone() -> None:
    """Raise :class:`ProbeError` unless this process has one thread and no
    live child process."""
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise ProbeError(f"process has {threads} threads; the probe needs 1")
    children = _live_children(os.getpid())
    if children:
        raise ProbeError(f"process has live child processes {children}")


def probe() -> float:
    """Run the fixed loop once; its wall time in ms."""
    check_alone()
    started = time.perf_counter_ns()
    acc = 0
    table = {}
    for index in range(_PROBE_ITERATIONS):
        acc = (acc * 31 + index) & 0xFFFFFFF
        table[index & 255] = acc
    return (time.perf_counter_ns() - started) / 1e6


class Meter:
    """A probe-normalized stopwatch.

    Work is timed in segments; :meth:`mark` ends the current segment, runs
    a probe and credits the segment at the mean of the probes on either side
    of it.  :meth:`reset` starts a new tally (a pass) whose first segment is
    bracketed by the most recent probe.  Time spent inside the probes is
    never part of a tally.  Latencies recorded with :meth:`sample` are
    scaled by the factor of the segment they fell in and stored in
    ``latencies_ms[:count]``, an array allocated up front so that the
    measuring process's peak memory does not depend on how many samples a
    run takes (samples beyond its capacity are dropped).
    """

    def __init__(self, capacity: int = 1 << 19) -> None:
        self.latencies_ms = array("d", [0.0]) * capacity
        self.count = 0
        self.probes: list[float] = []
        self._last = probe()
        self.probes.append(self._last)
        self.reset()

    def reset(self) -> None:
        self.raw_ns = 0
        self.norm_ns = 0.0
        self._pending: list[int] = []
        self._started = time.perf_counter_ns()

    def elapsed_ns(self) -> int:
        """Time since the current segment started."""
        return time.perf_counter_ns() - self._started

    def sample(self, nanoseconds: int) -> None:
        """Record one latency of the current segment (scaled at its mark)."""
        self._pending.append(nanoseconds)

    def mark(self) -> None:
        """End the segment and run a probe."""
        segment = time.perf_counter_ns() - self._started
        current = probe()
        factor = PROBE_REF_MS / ((self._last + current) / 2.0)
        self.raw_ns += segment
        self.norm_ns += segment * factor
        for value in self._pending[:len(self.latencies_ms) - self.count]:
            self.latencies_ms[self.count] = value * factor / 1e6
            self.count += 1
        self._pending = []
        self._last = current
        self.probes.append(current)
        self._started = time.perf_counter_ns()
