"""Work time in reference seconds, corrected for the machine's drifting speed.

On a shared machine the same pure-Python work takes up to 1.5 times as long
from one ten-second stretch to the next, as neighbours come and go.  While a
``Meter`` is active, a ``SIGPROF`` timer interrupts the work every
``PROBE_INTERVAL_S`` of CPU time, and the handler times a fixed pure-Python
loop (the probe), best of ``PROBE_REPEATS``.  ``reference(t0, t1)`` then
converts a ``perf_counter`` interval into reference seconds: probe time is
left out, and each stretch of work between two probes is scaled by
``REFERENCE_PROBE_S`` over the mean of its two probes.  A reported time is
thus how long the work would take on a machine where the probe takes
``REFERENCE_PROBE_S``.  Work before the first or after the last probe takes
that probe's scale.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

PROBE_LOOPS = 6000
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.1


def _spin() -> float:
    start = perf_counter()
    seen = {}
    x = 1
    for i in range(PROBE_LOOPS):
        x = (x * 5 + i) & 0xFFFF
        seen[x & 1023] = i
    return perf_counter() - start


class Meter:
    """Probe points of one timed phase; use as a context manager to probe."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self._edges: list[tuple[float, float, float]] = []  # (from, to, scale) between probes
        self._previous = None

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.probe()
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.probe()
        return False

    def _on_timer(self, signum, frame) -> None:
        self.probe()

    def probe(self) -> None:
        start = perf_counter()
        best = min(_spin() for _ in range(PROBE_REPEATS))
        self.points.append((start, perf_counter(), best))

    def _scales(self) -> list[tuple[float, float, float]]:
        if len(self._edges) != len(self.points) + 1:
            pts = self.points
            edges = [(-math.inf, pts[0][0], REFERENCE_PROBE_S / pts[0][2])]
            edges += [(a[1], b[0], 2 * REFERENCE_PROBE_S / (a[2] + b[2])) for a, b in zip(pts, pts[1:])]
            edges.append((pts[-1][1], math.inf, REFERENCE_PROBE_S / pts[-1][2]))
            self._edges = edges
        return self._edges

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in the perf_counter interval [t0, t1]."""
        if not self.points:
            return math.nan
        edges = self._scales()
        i = max(0, bisect.bisect_right(edges, (t0, math.inf, math.inf)) - 1)
        total = 0.0
        for lo, hi, scale in edges[i:]:
            if lo >= t1:
                break
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0:
                total += overlap * scale
        return total
