"""Host speed calibration for the end-to-end times.

On a shared 2-vCPU host the same Python loop runs anywhere from 0.13 to
0.24 s within one minute: neighbours on the same cores change the speed
of the CPU itself (thread CPU time moves with wall time, steal time stays
near zero). A run that lands in a slow spell reads 20-40% slower with no
change to the program. The runner therefore times this fixed loop between
operations and scales the end-to-end times to the speed at which the
loop takes :data:`REFERENCE_S`: the values are measured wall-clock
times, expressed at one reference host speed. Raw times are printed too.

The loop uses the calling thread's CPU time, and it allocates no
container objects, so it never triggers a garbage collection whose cost
would depend on the program's heap. It runs only while no operation is in
flight, so it never holds up program work; the CPU that other threads use
meanwhile is recorded so that this can be checked.
"""

import time

#: Thread CPU seconds the loop takes at the reference speed (this host in
#: a quiet spell).
REFERENCE_S = 0.008

_TABLE = {i: (i * 7919) % 1021 for i in range(1024)}


def calibrate() -> float:
    """Thread CPU seconds one fixed integer-and-dict loop takes now."""
    table = _TABLE
    acc = 0
    started = time.thread_time()
    for i in range(30000):
        acc = (acc + table[i & 1023] * 3 + (i ^ acc)) % 1000003
    return time.thread_time() - started


class Calibrations:
    """Calibration samples taken during a timed phase."""

    def __init__(self):
        self.points: list[tuple[float, float]] = []  # (perf_counter at end, seconds)
        self.overhead = 0.0  # the loops' own CPU seconds, taken off the phase's wall
        self.foreign_cpu = 0.0  # CPU seconds other threads used during the loops

    def take(self) -> None:
        """One sample; call it only while no operation is in flight."""
        process = time.process_time()
        seconds = calibrate()
        self.foreign_cpu += max(0.0, time.process_time() - process - seconds)
        self.overhead += seconds
        self.points.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to reference speed.

        Uses the last sample before *start*, every sample inside the
        interval and the first one after it.
        """
        before = [c for t, c in self.points if t <= start][-1:]
        inside = [c for t, c in self.points if start < t <= end]
        after = [c for t, c in self.points if t > end][:1]
        samples = before + inside + after
        return REFERENCE_S * len(samples) / sum(samples)

    def mean_scale(self) -> float:
        return REFERENCE_S * len(self.points) / sum(c for _, c in self.points)
