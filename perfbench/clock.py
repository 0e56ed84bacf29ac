"""Durations rescaled to one reference speed.

On a shared 2-vCPU VM the speed of the same pure-Python code swung by up
to 1.9x within seconds: the reference kernel below ran in 2.7 ms and in
5.0 ms in alternating stretches, and a README sweep took 4.9 s in one
minute and 9.6 s a few minutes later.  Raw wall times of one program
therefore spread by tens of percent between runs.  Every measured call is
rescaled instead:

    rescaled = raw * REFERENCE_NOMINAL_S / mean(reference timings during the call)

A SIGALRM interval timer runs the reference kernel every PROBE_INTERVAL_S
while a measured call runs, in the same thread; the probes' own time is
taken out of the raw duration.  A call too short to see a probe is
rescaled by the reference timings taken just before and just after it.
Nothing else runs while the program is measured: no threads, no processes.
"""

import math
import signal
import statistics
from time import perf_counter

#: reference-kernel time that rescaled seconds are expressed in (its time in the VM's faster state)
REFERENCE_NOMINAL_S = 0.003
PROBE_INTERVAL_S = 0.1


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def reference_kernel():
    """Interpreter-bound float work shaped like the stepper: tuples, generators, small objects."""
    cell, acc = _Cell(0.5, 0.1, 0.2), 0.0
    for _ in range(3000):
        k = tuple(v * 1.0000001 for v in (cell.a, cell.b, cell.c))
        cell = _Cell(k[0] + 1e-4 * k[1], k[1] - 1e-4 * k[2], sum(k) * 0.3)
        acc += abs(cell.a) if math.isfinite(cell.a) else 0.0
    return acc


def reference_s():
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Measures calls in raw and rescaled seconds; one per process, it owns SIGALRM."""

    def __init__(self):
        self._active = False
        self._probes: list[float] = []
        self._probe_cost = 0.0
        #: seconds spent in probes since the clock was made, so spans can leave them out
        self.probe_total = 0.0
        # installed for good: a late alarm after a measurement lands here and is ignored
        signal.signal(signal.SIGALRM, self._probe)
        self._last = reference_s()

    def _probe(self, signum, frame):
        if not self._active:
            return
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self._probes.append(t1 - t0)
        cost = perf_counter() - t0
        self._probe_cost += cost
        self.probe_total += cost

    def measure(self, fn, *args, **kwargs):
        """Call fn; returns (result, raw seconds without the probes, rescale factor)."""
        before = self._last
        self._probes, self._probe_cost = [], 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._active = False
        self._last = reference_s()
        speed = statistics.fmean([before, self._last, *self._probes])
        return result, elapsed - self._probe_cost, REFERENCE_NOMINAL_S / speed
