"""Machine-speed probe: wall time rescaled to a reference interpreter speed.

On a shared host the interpreter's speed swings by up to 1.8x within
seconds and drifts over minutes (other tenants share the cores), so raw
wall times of identical work spread by 15-30% from run to run.  The probe
measures that speed while the work runs: every ``period`` seconds of wall
time a SIGALRM handler times a fixed loop.  A window's *reference time*
is its wall time multiplied by the mean, over the samples taken in it, of
``REF_LOOP_S / loop time`` -- the window's work expressed in seconds at the
speed at which the loop takes ``REF_LOOP_S``.  Work that gets slower in the
program still reads slower; a slower machine does not.

The handler also calls ``on_tick(frame)`` when set, so the sampling
profiler of a traced pass shares the one timer.
"""

from __future__ import annotations

import signal
import time
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Timer period of a timed pass, in wall seconds.
PERIOD = 0.01
#: Iterations of the timed loop (heap, dict and list operations, like the
#: simulator's own inner loops).
LOOP = 150
#: Loop time that defines the reference speed: about the loop's median
#: inside the handler on the 2-CPU machine the recorded results name, so
#: reference seconds read close to that machine's usual host seconds.
REF_LOOP_S = 70e-6


class SpeedProbe:
    """Samples the interpreter speed on a wall-clock timer."""

    def __init__(self) -> None:
        self.on_tick: Optional[Callable[[Any], None]] = None
        #: (perf_counter at sample start, loop seconds)
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        if self.on_tick is not None:
            self.on_tick(frame)
        clock = time.perf_counter
        start = clock()
        heap: List[int] = []
        table = {}
        for i in range(LOOP):
            heappush(heap, (i * 7919) % 211)
            table[i & 63] = i
            if len(heap) > 16:
                heappop(heap)
        self.samples.append((start, clock() - start))

    def start(self, period: float = PERIOD) -> None:
        """Start sampling, or change the period of a running probe."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed in ``[start, end)`` relative to the reference (1.0
        when no sample fell in the window)."""
        speeds = [REF_LOOP_S / d for t, d in self.samples if start <= t < end]
        return sum(speeds) / len(speeds) if speeds else 1.0

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.speed(start, end)
