"""Host speed, sampled while the program runs, to take a shared host's drift out of the times.

On a shared 2-vCPU machine the same computation runs up to 1.7x slower for
tens of seconds at a time, and CPU time drifts with wall time, so neither is
steady from one run to the next. A SpeedProbe times a fixed pure-Python
kernel every INTERVAL_S seconds from a SIGALRM handler in the benchmark's
own process (no thread, no process). Each sample gives the host's speed as
the kernel's reference time over its measured time; the mean of these over a
stretch of work, sampled evenly in wall time, is the factor that turns that
stretch's time into time at the reference speed:

    work at reference speed = sum over dt of dt * speed(t) ~ elapsed * mean(speed)

The handler's own wall and CPU time are counted in `wall` and `cpu`, so
callers subtract them from what they time.

The kernel is pure Python because the program's time goes mostly to the
interpreter between small LAPACK calls. Measured against the same cases
repeated for minutes, it tracked the drift better than a kernel of small
numpy eigendecompositions, alone or added to it: pass-to-pass spread after
scaling 1.4% against 2.7% on the TPM/gauge cases, whose raw spread was 8.9%.
Python defers a signal while a C call runs, so samples fall between
bytecodes; a long BLAS call delays, never loses, the next sample.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# the kernel's time at the reference speed: speeds are 1.0 on a host that runs it this fast
REFERENCE_S = 60e-6


def kernel() -> float:
    acc: dict[int, float] = {}
    for i in range(300):
        acc[i % 17] = acc.get(i % 17, 0.0) + i * 0.5
    return sum(acc.values())


class SpeedProbe:
    """Samples of the host's speed, taken on a wall-clock timer while started.

    The timer runs only between start() and stop(), and stop() keeps what is
    left of the current interval, so a run of short stretches is sampled as
    evenly as one long one. The handler stays installed after stop(): a
    signal already on its way then finds it, and is dropped.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._armed = False
        self._left = INTERVAL_S

    def _sample(self, signum, frame) -> None:
        if not self._armed:
            return
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.speeds.append(REFERENCE_S / (time.perf_counter() - w0))
        self.cpu += time.process_time() - c0
        self.wall += time.perf_counter() - w0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self._left, INTERVAL_S)

    def stop(self) -> None:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._armed = False
        self._left = left if left > 0.0 else INTERVAL_S

    def speed(self, since: int = 0) -> float:
        """Mean speed over the samples taken from index `since` up to now."""
        if len(self.speeds) <= since:
            raise RuntimeError("no host speed sample: the timed stretch was too short")
        return statistics.fmean(self.speeds[since:])
