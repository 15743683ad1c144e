"""Host-speed normalization of the end-to-end timings.

A shared host's speed drifts by up to 2x over minutes, for the
benchmark and for everything else in the process alike, so raw wall
times of the same code spread wider between runs than any useful
regression bound.  A fixed pure-Python probe (no package code) is timed
right before and right after each *segment* of measured work (one op,
or as many short ops as fill ``SEGMENT_S``); the segment's times are
scaled by ``PROBE_NOMINAL_S`` over the mean of the two probe times.
A reported time is therefore in *reference-host* seconds: what the
work would take on a host where the probe takes ``PROBE_NOMINAL_S``.
A change to the package moves the work and not the probe, so the
ratio keeps every gain and loss of the code under test.
"""

from __future__ import annotations

import time

#: Probe time on the reference host, about what the probe takes on a
#: quiet two-vCPU x86-64 VM under CPython 3.11.  It is only a scale:
#: any fixed value would do, but it must never change once runs exist.
PROBE_NOMINAL_S = 0.100
#: Permutation size of the probe's breadth-first search (7! states).
PROBE_PERMUTATION = 7
#: Iterations of the probe's integer loop.
PROBE_LOOP = 100_000
#: Kernel runs per probe.  The host's speed flips between two levels
#: on a scale of tens of milliseconds, so one ~33 ms kernel catches one
#: level; three average them, as a measured op does.
PROBE_REPEATS = 3
#: Wall time of measured work between two probes, at least: bounds the
#: probes' share of a run at about a tenth.
SEGMENT_S = 1.0


def probe_kernel() -> int:
    """Breadth-first search over adjacent swaps of a tuple (dict and
    tuple hashing, as in a state-space search), then an integer loop
    (interpreter dispatch).  Returns a checksum so nothing is elided."""
    start = tuple(range(PROBE_PERMUTATION))
    seen = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for index in range(PROBE_PERMUTATION - 1):
                swapped = (
                    state[:index] + (state[index + 1], state[index]) + state[index + 2:]
                )
                if swapped not in seen:
                    seen[swapped] = len(seen)
                    following.append(swapped)
        frontier = following
    total = len(seen)
    for value in range(PROBE_LOOP):
        total = (total * 31 + value) & 0xFFFF
    return total


def probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        probe_kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Pairs measured items with the scale of the segment they fall in.

    Call :meth:`mark` right before the first item.  :meth:`add` puts an
    item in the open segment; once the segment has run ``SEGMENT_S`` it
    probes again and returns ``[(item, factor), ...]`` for the whole
    segment (the closing probe opens the next one), else ``[]``.
    :meth:`flush` closes the open segment early.  ``enabled=False``
    runs no probe and pairs every item with 1.0 at once.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter, prober=probe) -> None:
        self.enabled = enabled
        self._clock = clock
        self._prober = prober
        self._before = None
        self._opened = 0.0
        self._items: list = []

    def _probe(self) -> float:
        seconds = self._prober()
        self._opened = self._clock()
        return seconds

    def mark(self) -> None:
        if self.enabled:
            self._before = self._probe()

    def add(self, item) -> list:
        if not self.enabled:
            return [(item, 1.0)]
        self._items.append(item)
        if self._clock() - self._opened < SEGMENT_S:
            return []
        return self.flush()

    def flush(self) -> list:
        if not self._items:
            return []
        if self._before is None:
            raise RuntimeError("HostSpeed segment closed before mark()")
        after = self._probe()
        factor = PROBE_NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        closed = [(item, factor) for item in self._items]
        self._items = []
        return closed
