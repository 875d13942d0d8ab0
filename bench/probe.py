"""A speed probe that scales measured times to a nominal speed of the host.

On a shared host the virtual CPU runs slower while other tenants are busy:
the same pass over a workload can take 1.4 times as long in one minute as in
the next, and the process's CPU time grows with its wall time, so the time
is not stolen but spent at a lower speed.  The probe measures that speed
throughout a run.  A timer signal every ``INTERVAL_S`` runs a fixed
arithmetic loop of about a millisecond in the main thread and records when
it started and how long it took.  The loop touches only a few local
integers, so its time follows the speed of the core and not what the
program leaves in the caches.

A span's scaled time is its time without the probes that ran inside it,
times ``NOMINAL_S`` over the median of the probes from ``WINDOW_S`` before
the span to ``WINDOW_S`` after it: the time the same work takes on a host
where the loop takes ``NOMINAL_S``.  The loop is the benchmark's own code,
so a change to the program moves scaled times as much as measured ones.

The probe is started before the timed first import of the program, so this
module imports only modules that the interpreter has loaded at start-up.
"""

import bisect
import signal
import time

INTERVAL_S = 0.05
LOOPS = 10_000
WINDOW_S = 0.5
# About the loop's median time on the host the benchmark was written on; it
# sets only the scale of the reported times.
NOMINAL_S = 0.0008


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median(self):
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] if ordered else None

    def net(self, start, end):
        """Seconds from start to end without the probes that ran in between."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start, end):
        """``net(start, end)`` at the nominal speed; unscaled if no probe ran."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        around = sorted(self.durations[lo:hi] or self.durations)
        if not around:
            return self.net(start, end)
        return self.net(start, end) * NOMINAL_S / around[len(around) // 2]
