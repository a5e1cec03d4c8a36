"""Machine-speed calibration for the end-to-end time metrics.

On a small shared VM the CPU speed available to one process drifts by
up to 2x within a minute, while the same work is being timed.  To keep
that drift out of the time metrics, a fixed calibration kernel, which
never calls the program, is timed in short slices interleaved with the
program's work: a profiling timer (SIGPROF, every SAMPLE_EVERY_S of
CPU time) runs one slice from a signal handler.  The slices sample the
machine's speed through the whole pass, whatever the item structure.

A measured time is then reported in *reference seconds*: its wall time,
minus the slices that ran inside it, times REFERENCE_SLICE_S over the
mean slice time of the same pass.  When the machine runs at the speed
where one slice takes REFERENCE_SLICE_S, a reference second is a wall
second.  Work the program does not do shows in full; a machine that is
slower for the kernel and the program alike cancels out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# How often a slice runs, in CPU seconds of the process (program and
# slices together).  About 5% of the measured time goes to slices.
SAMPLE_EVERY_S = 0.05
# About the mean slice time inside a pass on the machine the benchmark
# was built on (2 vCPUs, Python 3.11), where slices took 2.5 to 4 ms.
# Fixed: changing it rescales every time metric.
REFERENCE_SLICE_S = 0.003

_MATRIX = tuple(tuple(Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1)
                      for j in range(14)) for i in range(10))


def kernel() -> list:
    """One slice of fixed work: four Gauss-Jordan pivots on a 10 x 14
    matrix of Fractions.  Interpreted, allocation-heavy object work is
    what most of the program's time is made of, and of the kernels tried
    this one tracked the program's slowdowns most closely."""
    rows = [list(row) for row in _MATRIX]
    for p in range(4):
        inverse = 1 / rows[p][p]
        pivot = [value * inverse for value in rows[p]]
        rows[p] = pivot
        for r, row in enumerate(rows):
            if r != p:
                factor = row[p]
                rows[r] = [a - factor * b for a, b in zip(row, pivot)]
    return rows


class Sampler:
    """Runs kernel slices on a CPU-time timer while it is started, and
    sums how long they took."""

    def __init__(self):
        self.slices = 0
        self.slice_s = 0.0
        self._previous = None

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.slice_s += time.perf_counter() - t0
        self.slices += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def reading(self) -> tuple[int, float]:
        """(slices so far, their total seconds); subtract two readings to
        get the slices inside an interval."""
        return self.slices, self.slice_s


def speed_factor(slices: int, slice_s: float) -> float:
    """How much slower than the reference the machine ran: mean slice
    time over REFERENCE_SLICE_S."""
    return (slice_s / slices) / REFERENCE_SLICE_S


def burst(count: int) -> tuple[int, float]:
    """`count` slices back to back, to complete a sample too small to
    average."""
    t0 = time.perf_counter()
    for _ in range(count):
        kernel()
    return count, time.perf_counter() - t0
