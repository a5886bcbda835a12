"""The host's current speed, measured while the program is idle.

On a shared host the processor's speed follows its neighbours' load.  On
the 2-vCPU Intel Xeon (2.1 GHz, KVM) this benchmark was sized on, the
fixed loop below takes anywhere from 17 to 29 ms, in stretches of tens of
seconds, and every request's latency moves with it: a run that lands in a
slow stretch reads 30% slower with the same code.  Process CPU time moves
just as much, so it is no way out.

So each timing is normalised: scaled by :data:`NOMINAL_S` over the loop's
time measured right around it.  The result is the seconds the timing
would have taken with the host at the loop's nominal speed.  The loop
does not touch the program, so a change to the program moves normalised
and wall time alike; the wall times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the reference loop (about 20 ms).
LOOP_ITERATIONS = 300_000

#: The loop's time at nominal speed: its typical time on the host above.
NOMINAL_S = 0.02

#: Times the loop runs per measurement; the median counts.  It tracked
#: the program's own slow stretches slightly better than the fastest run.
REPEATS = 5


def _loop() -> int:
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value
    return total


def reference_s() -> float:
    """The loop's median time over :data:`REPEATS` runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalised(wall_s: float, reference: float) -> float:
    """``wall_s`` at nominal host speed, given the loop's time around it."""
    return wall_s * NOMINAL_S / reference
