"""Host-speed probe for the timed runs.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent in phases from under a second to minutes long, so raw wall times of
the same code differ from run to run by more than the changes worth
catching. While a timed run is on, a SIGALRM timer runs a fixed probe
kernel (about 1 ms; benchmark code, independent of attnalloc) every
``INTERVAL_S`` of wall time, inside whatever the main thread is doing. A
timed interval is then reported

* minus the probe time that fell inside it, and
* scaled by ``NOMINAL_PROBE_S / mean probe time`` around it,

which is its length in seconds at the host's nominal speed: the speed at
which the probe takes ``NOMINAL_PROBE_S``. The probe mixes the operations
the attnalloc hot loops are made of (NumPy scalar indexing and tiny vector
updates, seeded ``Generator`` construction, dict and list work), so a slow
phase slows it and them alike. A change to attnalloc does not touch the
probe, so it shows in the scaled times in full.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# the probe's time in the fastest phases of a shared 2-core Intel Xeon KVM
# guest (Python 3.11, NumPy 2.4), where its mean over a run drifts between
# 1.2 and 2.1 ms; it only sets the scale of the reported times
NOMINAL_PROBE_S = 0.001
# the probe times averaged for an interval: those within WINDOW_S of it,
# and at least MIN_PROBES of them
WINDOW_S = 0.25
MIN_PROBES = 8

_rng = np.random.default_rng(20220731)
_USERS = _rng.integers(0, 30, size=100)
_OBJECTS = _rng.integers(0, 200, size=100)
_LEVELS = _rng.uniform(1.0, 5.0, size=100)


def probe_kernel() -> float:
    """A fixed amount of interpreter and small-NumPy work."""
    U = np.full((30, 8), 0.01)
    V = np.full((200, 8), 0.01)
    sq = 0.0
    for i in range(100):
        u, o = _USERS[i], _OBJECTS[i]
        uf, vf = U[u], V[o]
        err = _LEVELS[i] - uf @ vf
        sq += err * err
        U[u] = uf * 0.99 + 0.01 * err * vf
        V[o] = vf * 0.99 + 0.01 * err * uf
    sums: dict = {}
    for i in range(20):
        g = np.random.default_rng((7, 1, i))
        sums[i % 5] = sums.get(i % 5, 0.0) + g.uniform(-1.0, 1.0)
    return sq + sum(sorted(sums.values()))


class HostSpeed:
    """Samples the probe kernel on a SIGALRM timer between ``start`` and
    ``stop``, and converts timed intervals to nominal-speed seconds."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._cumulative = [0.0]
        self._previous = None
        self._on = False

    def _probe(self, signum, frame):
        # a signal that arrived just before ``stop`` neither probes nor
        # re-arms the timer
        if not self._on:
            return
        start = time.perf_counter()
        probe_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._cumulative.append(self._cumulative[-1] + end - start)
        # one-shot and re-armed here, so a slow probe never nests in another
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self._on = True
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _probe_sum(self, lo, hi):
        """Total probe time of probes lo .. hi-1."""
        return self._cumulative[hi] - self._cumulative[lo]

    def speed(self, start, end) -> float:
        """Mean probe time near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < min(MIN_PROBES, len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi == lo:
            raise RuntimeError("no host-speed probe was taken")
        return self._probe_sum(lo, hi) / (hi - lo)

    def busy(self, start, end) -> float:
        """Length of [start, end] minus the probe time inside it. A probe
        runs between two bytecodes, so it is wholly inside or outside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - self._probe_sum(lo, hi)

    def nominal(self, start, end) -> float:
        """[start, end] in seconds at the host's nominal speed."""
        return self.busy(start, end) * NOMINAL_PROBE_S / self.speed(start, end)
