"""Host speed, sampled while the benchmark measures.

The benchmark host is a small share of a shared VM whose speed drifts
by up to 1.7x over minutes (NOTES.md, "Host speed"): the same job list
takes 10.7 s in one minute and 17.8 s in another.  A timer interrupts
the program every PERIOD seconds and runs a fixed probe kernel, code of
the benchmark and not of sphdesign, so a change to the program cannot
make it faster or slower.  A timed interval is reported as its measured
length, less the time spent in the interruptions, times REF_PROBE_S
over the mean probe duration in and around it: seconds at a reference
host speed.
"""

import bisect
import signal
import time

import numpy as np

PERIOD = 0.05
# samples this far outside an interval also count for it: the host's
# speed holds for a second or so, and a call shorter than PERIOD still
# gets samples
PAD = 0.5
# the probe's typical duration on the 2-vCPU Xeon VM the benchmark was
# tuned on: reported seconds read as seconds there at its usual speed
REF_PROBE_S = 1.7e-4

_A = np.random.default_rng(0).standard_normal((12, 12))
_B = _A[0].copy()
# bound now, so that a traced run's wrapper of numpy.linalg.solve never
# sees the probe
_solve = np.linalg.solve
_dot = np.dot


def _kernel():
    """Small dense solves and products and a pure Python loop, the two
    kinds of work the program does most."""
    start = time.perf_counter()
    for _ in range(5):
        _solve(_A, _B)
        _dot(_A, _A)
    x = 0
    for i in range(1000):
        x += i * i
    return time.perf_counter() - start


def probe():
    """Seconds the kernel takes now with warm caches.  A first, untimed
    run brings its code and data back into cache: cold, it takes twice
    as long after the check workload's large mesh norms as after a gen
    job, which would make the probe track the program's memory use
    instead of the host."""
    _kernel()
    return min(_kernel(), _kernel())


class HostSpeed:
    """Probe samples taken on a timer while it is entered."""

    def __init__(self):
        self.starts = []   # perf_counter at each interruption
        self.busy = []     # seconds each interruption took
        self.probes = []   # probe seconds of each interruption
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        p = probe()
        self.starts.append(start)
        self.probes.append(p)
        self.busy.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, a, b):
        """REF_PROBE_S over the mean probe duration around [a, b]."""
        i = bisect.bisect_left(self.starts, a - PAD)
        j = bisect.bisect_right(self.starts, b + PAD)
        if i == j:  # no sample near: take the nearest ones
            i, j = max(0, i - 1), min(len(self.starts), j + 1)
        near = self.probes[i:j]
        if not near:
            raise RuntimeError("no host-speed sample was taken")
        return REF_PROBE_S * len(near) / sum(near)

    def scaled(self, a, b):
        """Seconds of [a, b] spent outside the probes, at reference
        speed."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        return (b - a - sum(self.busy[i:j])) * self.factor(a, b)
