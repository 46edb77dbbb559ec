"""Machine-speed sampling: scales timings to a reference speed.

On a shared machine the same work runs up to about 25% slower or faster from
one second to the next.  The cause is other tenants, not the program.  A
fixed pure-Python kernel, run on a wall-clock timer while the measured work
runs, sees the same swings.  A timing is multiplied by ``REFERENCE_S /
(seconds per kernel unit over the same stretch of time)``, so the benchmark
reports it at the reference speed.

The kernel mixes integer arithmetic, small-tuple allocation and dict
traffic.  It has a small working set, and the collector is off while it
runs, so the program's own heap does not change its speed.  Each tick takes
about ``SHARE`` of the time between ticks.  The time spent in ticks is taken
out of the timings they interrupt.  The raw timings are in the report line of
every run.
"""

from __future__ import annotations

import gc
import signal
import time

UNIT = 1000  # kernel iterations in one unit
# Seconds per unit on the machine the benchmark was defined on (a 2.1 GHz
# x86-64 vCPU, CPython 3.11), measured when it ran at its faster speed.
REFERENCE_S = 3.6e-4
TICK_S = 0.04  # wall-clock time between kernel runs
SHARE = 0.05   # kernel time as a share of TICK_S
TICK_UNITS = max(1, round(TICK_S * SHARE / REFERENCE_S))


def kernel(units: int) -> int:
    d: dict = {}
    acc = 0
    for i in range(units * UNIT):
        k = (i & 63, i % 7)
        d[k] = d.get(k, 0) + 1
        acc += (i * i) % 11
    return acc + len(d)


class SpeedSampler:
    """Runs the kernel every TICK_S seconds while the ``with`` block runs.

    ``mark()`` returns running totals; the factors of a stretch of time come
    from the difference of two marks.
    """

    def __init__(self) -> None:
        self.units = 0
        self.kernel_wall = 0.0   # kernel only, for the speed
        self.kernel_cpu = 0.0
        self.tick_wall = 0.0     # whole ticks, to take out of timings
        self.tick_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            w, c = time.perf_counter(), time.process_time()
            kernel(TICK_UNITS)
            self.kernel_wall += time.perf_counter() - w
            self.kernel_cpu += time.process_time() - c
        finally:
            if enabled:
                gc.enable()
        self.units += TICK_UNITS
        self.tick_wall += time.perf_counter() - w0
        self.tick_cpu += time.process_time() - c0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float, float, float]:
        return (self.units, self.kernel_wall, self.kernel_cpu,
                self.tick_wall, self.tick_cpu)


def factors(start: tuple, end: tuple) -> tuple[float, float]:
    """(wall, CPU) factors between two marks; (1, 1) if no tick fell between."""
    units = end[0] - start[0]
    if units == 0:
        return 1.0, 1.0
    return (REFERENCE_S * units / (end[1] - start[1]),
            REFERENCE_S * units / (end[2] - start[2]))
