"""Machine-speed correction for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants the same pure-Python
work can take anywhere from 1x to 2x its unloaded time, and the factor
drifts within seconds.  A fixed reference loop, with no spinetorsion code
in it, is timed after every measured region and, while sampling is on,
every SAMPLE_INTERVAL_S from a SIGALRM handler inside regions.  A region's
speed factor is the median reference time, over the reference's unloaded
time, of the references run from WINDOW_S before it starts to WINDOW_S
after it ends (the median, so that one descheduled reference run does not
move it); its normalised duration is its raw duration, less the time
the handler took inside it, over that factor raised to LOAD_EXPONENT: the
time the region would have taken on the unloaded machine.  Callers report
raw times alongside.
"""

import bisect
import statistics
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

# Unloaded time of reference_loop(): about the 1st percentile of 3000 runs
# on a 2-CPU Intel Xeon VM at 2.0 GHz with CPython 3.11.7.
REFERENCE_S = 0.0048
SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 1.0
# The package's work slows less under load than the reference loop does:
# over 40 runs (seeds 1-10 of each workload) at reference factors of 1.0 to
# 1.9 on that VM, log(time) rose by about 0.75 x log(factor) in every
# workload, so dividing by the whole factor made loaded runs read 10-15 %
# faster than unloaded ones.
LOAD_EXPONENT = 0.75


def reference_loop():
    """About 5 ms of tuple, dict, integer and Fraction work."""
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        key = tuple(sorted((i % 7, i % 11, i % 13, i % 17)))
        table[key] = table.get(key, 0) + 1
        acc += Fraction(gcd(i * 7919, 104729) + len(table), 1 + i % 5)
    return acc


def unloaded(raw, factor):
    """Seconds ``raw``, taken at speed factor ``factor``, at unloaded speed."""
    return raw / factor ** LOAD_EXPONENT


def reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedClock:
    """Times regions of work; ``normalise`` turns a region into seconds at
    the machine's unloaded speed once the references around it are in."""

    def __init__(self):
        self._busy = False
        self.ends = []       # when each reference run ended
        self.refs = []       # how long it took
        self.spent = 0.0     # seconds the SIGALRM handler has used
        self.factors = []
        self._reference()

    def _reference(self):
        """One reference run, recorded; the handler cannot interrupt it."""
        self._busy = True
        try:
            ref = reference()
            self.ends.append(time.perf_counter())
            self.refs.append(ref)
            return ref
        finally:
            self._busy = False

    def _tick(self, _signum, _frame):
        if not self._busy:
            self.spent += self._reference()

    @contextmanager
    def sampling(self):
        """Also sample the reference periodically inside timed regions.
        Only for work done in this process: a child would compete with it."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def time(self, fn, *args):
        """Run fn(*args); return (result, region), the region being
        (start, end, raw seconds of the work itself)."""
        spent = self.spent
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        raw = t1 - t0 - (self.spent - spent)
        self._reference()
        return out, (t0, t1, raw)

    def factor(self, region):
        """Median reference time around the region over its unloaded time."""
        t0, t1, _raw = region
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        window = self.refs[lo:hi]
        factor = statistics.median(window) / REFERENCE_S
        self.factors.append(factor)
        return factor

    def normalise(self, region):
        return unloaded(region[2], self.factor(region))
