"""Machine-speed reference for the timing metrics.

The benchmark shares a few cores of a host with other work, and the
speed at which those cores run pure-Python exact arithmetic drifts: a
fixed loop took anywhere from 2.7 to 5.4 ms within three minutes, and
library operations slowed and sped up with it.  So the runner times a
fixed stretch of the benchmark's own arithmetic between operations, at
most every SAMPLE_EVERY_S seconds, and scales each operation's time by
REF_MS over the median of the NEAREST reference samples around it.
The timing metrics are thus in ms on a machine that runs the reference
in REF_MS ms; the raw times go to the result record as well.

The reference is the benchmark's own code, so a change to the library
does not move it.
"""

from bisect import bisect_left
from fractions import Fraction
import random
import statistics
import time

REF_MS = 5.0
SAMPLE_EVERY_S = 0.2
NEAREST = 7


def reference_work():
    """Dense product of two fixed polynomials with Fraction coefficients,
    the kind of arithmetic the library spends its time in."""
    rng = random.Random(5)
    a = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(40)]
    b = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(25)]
    c = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return {k: v for k, v in enumerate(c) if v}


class SpeedClock:
    """Reference samples (midpoint ns, duration ns) over one process."""

    def __init__(self):
        self.mids = []
        self.durations = []
        self.last = 0

    def sample(self, force=False):
        """Time the reference if SAMPLE_EVERY_S has passed since the last
        sample, or if forced."""
        if not force and time.perf_counter_ns() - self.last < SAMPLE_EVERY_S * 1e9:
            return
        t0 = time.perf_counter_ns()
        reference_work()
        t1 = time.perf_counter_ns()
        self.mids.append((t0 + t1) // 2)
        self.durations.append(t1 - t0)
        self.last = t1

    def factor(self, start, end):
        """REF_MS over the median reference time of the NEAREST samples
        nearest to the midpoint of [start, end] (ns)."""
        mid = (start + end) // 2
        i = bisect_left(self.mids, mid)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.mids)):
            if hi == len(self.mids) or (lo > 0 and mid - self.mids[lo - 1] <= self.mids[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REF_MS * 1e6 / statistics.median(self.durations[lo:hi])

    def scale(self, start, ns):
        """ns taken from start, in ns at the reference speed."""
        return ns * self.factor(start, start + ns)

    def summary(self):
        ms = [d / 1e6 for d in self.durations]
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"samples": len(ms), "ref_ms_median": statistics.median(ms),
                "ref_ms_q1": q[0], "ref_ms_q3": q[2]}
