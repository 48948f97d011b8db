"""The machine's speed, sampled while a child runs, to steady timings.

The vCPUs of a small shared VM change speed by up to 2x for spells of
seconds to minutes, and CPU time drifts with wall time, so the drift is
in the processor, not in waiting.  A timing taken on such a machine says
as much about the neighbours as about the program.  The benchmark
therefore samples the speed of a fixed pure-Python kernel (integer
arithmetic, and short-lived tuples and list slices like the program's
per-stage loops make) throughout
each timed interval and reports the interval as it would have read at
the kernel's reference speed:

    reference_s = (wall - probe busy time) * REFERENCE_S / mean(kernel times)

A mean, not the median, of the kernel times is used because samples are
spaced evenly in wall time, so their mean weighs each spell by its
length; the slowest tenth of the samples is left out of it, because a
kernel that an interrupt or another process cut into reads slow for a
reason that did not slow the program.  The raw wall time is kept in the
run's record beside it.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Median of 3,864 kernel times sampled over thirty benchmark runs on the
# machine the bounds were set on (2-vCPU Intel Xeon VM, Python 3.11.7).
# A constant: it only scales the figures into seconds that read like that
# machine's wall time at its median speed.
REFERENCE_S = 0.00214


_SEQ = [float(i) for i in range(64)]


def kernel() -> float:
    """Seconds two fixed loops take now: integer arithmetic, then
    tuples and list slices that are freed as soon as they are made.

    Nothing the loops allocate outlives an iteration, so they never set
    off the garbage collector over the program's heap.  Of the kernels
    tried (integer, float, random reads from an 8 MiB buffer, short-lived
    allocations, and their sums), this pair left the least drift in the
    per-iteration times of all three workloads among those that need no
    buffer, which the memory metric would see (README.md, Steadiness)."""
    start = perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    seq = _SEQ
    for t in range(3_000):
        pair = (t, seq)
        part = seq[: t % 64]
        s += len(part) + len(pair)
    return perf_counter() - start


def reference_time(seconds: float, samples: list) -> float:
    """`seconds` of work scaled to the kernel's reference speed."""
    kept = sorted(samples)[: len(samples) - len(samples) // 10]
    return seconds * REFERENCE_S * len(kept) / sum(kept)


class Probe:
    """Times the kernel every `interval` seconds of wall time, from a
    SIGALRM handler, so the samples cover the whole of a long call.

    `busy` is the time the ticks took inside the `with` block, which the
    caller subtracts from its wall time.  One more sample is taken on
    exit, outside that time, so that a call shorter than `interval` has
    one too."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        self.samples.append(kernel())
        self.busy += self.samples[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        return False
