"""Wall time scaled to a reference machine speed.

Every timed piece of work (a set-up step, a unit) is bracketed by a
:meth:`SpeedMeter.mark`, which runs :meth:`SpeedMeter.probe`, a fixed
pure-Python loop.  In a sequential run the loop also runs every
``SAMPLE_INTERVAL_S`` from a timer signal.  A pooled run takes no such
samples, because inside its pieces both cores run pool workers and a probe
would time the learner's own contention with them; instead each mark
probes every core in turn, as the workers use them all.  A piece's wall
time, less the time the samples took, is reported scaled to the reference
speed: multiplied by ``PROBE_REF_S / (mean of the probes at its ends and
inside it)``.

Why: on the shared 2-core VM the benchmark was built on, the speed of a
core switched every 10-20 s between two states about 1.7x apart (the probe
loop took 95-110 or 160-190 ms per million iterations), so one run's wall
times measured how long it spent in the slow state.  Repeating one
training update 120 times over two minutes, the interquartile range of
20-update windows was 19-21% of the median for their mean, median or
minimum wall time, and 4-5% for their mean or median time over the probe.
In one ``train_block`` run, three identical repeats took 4.83-5.21 s of
wall time and 1.262-1.283 s in probe units; a second run of the same seed
took 5.82-6.22 s and 1.281-1.298 s.  In two five-seed sets of
``train_pooled``, one probing only the learner's core at the marks and one
probing every core, the interquartile range of ``items_per_s`` was 8% and
4% of the median.  Taking the slowest core instead of the mean read 5.6%
against 4.7% over eight runs that recorded both.
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass
from typing import List, Tuple

clock = time.perf_counter

#: Iterations of the probe's loop, and its time in the fast state of the
#: VM the benchmark was built on.
PROBE_ITERATIONS = 100_000
PROBE_REF_S = 0.0035

#: Seconds between probes taken inside timed pieces.
SAMPLE_INTERVAL_S = 0.25


@dataclass(frozen=True)
class Mark:
    """A boundary between timed pieces: a probe and when it ran."""

    before: float  # the previous piece's end
    probe_s: float
    after: float  # the next piece's start


@dataclass(frozen=True)
class Piece:
    """The work between two marks: wall seconds, and seconds at the
    reference speed."""

    raw: float
    ref: float


class SpeedMeter:
    """The probes of one run (see module docstring); a context manager
    that samples while open unless the run is ``pooled``."""

    def __init__(self, pooled: bool) -> None:
        self.probes: List[float] = []
        self._pooled = pooled
        # Timer-driven probes: (start, probe seconds, seconds the sample took).
        self._samples: List[Tuple[float, float, float]] = []

    def __enter__(self) -> "SpeedMeter":
        """The signal handler runs in the main thread between bytecodes."""
        if not self._pooled:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self._pooled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        start = clock()
        probe_s = self.probe(runs=2)
        self._samples.append((start, probe_s, clock() - start))

    def probe(self, runs: int = 3) -> float:
        """Seconds of a fixed pure-Python loop: the fastest of ``runs``
        runs, so a single interrupt does not count as a slow machine."""
        best = math.inf
        for _ in range(runs):
            start = clock()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i
            best = min(best, clock() - start)
        self.probes.append(best)
        return best

    def mark(self) -> Mark:
        before = clock()
        if self._pooled:
            cores = os.sched_getaffinity(0)
            probes = []
            try:
                for core in sorted(cores):
                    os.sched_setaffinity(0, {core})
                    probes.append(self.probe())
            finally:
                os.sched_setaffinity(0, cores)
            probe_s = sum(probes) / len(probes)
        else:
            probe_s = self.probe()
        return Mark(before, probe_s, clock())

    def piece(self, start: Mark, end: Mark) -> Piece:
        inside = [(p, took) for t, p, took in self._samples if start.after <= t < end.before]
        raw = end.before - start.after - sum(took for _, took in inside)
        probes = [start.probe_s, end.probe_s] + [p for p, _ in inside]
        return Piece(raw, raw * PROBE_REF_S * len(probes) / sum(probes))
