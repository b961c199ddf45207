"""Host speed, measured with a fixed piece of pure-Python work.

The benchmark's host is shared, and its speed drifts by a quarter within
minutes, for every process alike. A ``Meter`` times ``reference_unit`` in
the same process and the same stretch of time as the measured calls.
Multiplying a measured time by ``NOMINAL_UNIT_S / Meter.unit_s()`` scales
it to a host on which one unit takes ``NOMINAL_UNIT_S``, which cancels the
drift. The unit runs no axcat code, so no change to axcat can move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager

NOMINAL_UNIT_S = 0.003
# Share of the time a timer-driven meter spends on units.
SHARE = 0.05
# A call's speed is taken from the units this close to it.
NEAR_S = 1.0


def reference_unit() -> int:
    """The transitive closure of a fixed 40-pair relation on 11 ids, twelve
    times over: the set, dict and tuple work the checker does."""
    rel = frozenset(((i * 7) % 11, (i * 5 + 3) % 11) for i in range(40))
    total = 0
    for _ in range(12):
        closure = set(rel)
        while True:
            succ: dict[int, set[int]] = {}
            for a, b in closure:
                succ.setdefault(a, set()).add(b)
            new = {(a, c) for a, b in closure for c in succ.get(b, ())}
            if new <= closure:
                break
            closure |= new
        total += len(closure) + sum(sorted(a for a, _ in closure)[:5])
    return total


class Meter:
    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) of each unit
        self.busy = False

    def sample(self) -> None:
        """Time one unit, with the collector off so the size of the
        program's heap does not enter it."""
        if self.busy:  # a timer signal that came during a unit
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_unit()
            self.spans.append((t0, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()
            self.busy = False

    @contextmanager
    def sampling(self):
        """Within the block, sample on a wall-clock timer, ``SHARE`` of the
        time, so that long calls are sampled while they run; ``within`` gives
        the time to take off a call's measured time."""
        interval = NOMINAL_UNIT_S / SHARE
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.spans:
            self.sample()

    def within(self, t0: float, t1: float) -> float:
        """Time the units took between ``t0`` and ``t1``."""
        total = 0.0
        for start, end in reversed(self.spans):
            if start < t0:
                break
            if end <= t1:
                total += end - start
        return total

    def unit_s(self) -> float:
        """Mean time of one unit."""
        return sum(end - start for start, end in self.spans) / len(self.spans)

    def unit_near(self, t0: float, t1: float) -> float:
        """Mean time of the units that started from ``NEAR_S`` before ``t0``
        to ``NEAR_S`` after ``t1``: the host's speed while a call ran."""
        starts = [start for start, _ in self.spans]
        lo = bisect.bisect_left(starts, t0 - NEAR_S)
        hi = bisect.bisect_right(starts, t1 + NEAR_S)
        near = [end - start for start, end in self.spans[lo:hi]]
        return sum(near) / len(near) if near else self.unit_s()
