"""A fixed pure-Python workload that gauges the host's current speed.

The machines this benchmark runs on share their cores with other tenants.
The same search took from 2.2 s to 3.9 s minutes apart, with identical node
counts, and CPU time tracked wall time.  `Speedometer` runs `reference_work`
on a background thread pinned, with the measuring thread, to one CPU, and
times it in thread CPU time, so waiting for the interpreter lock does not
count.  run.py scales every measured interval by NOMINAL_S over the median
sample taken around it.  Over ten 30-second runs per workload on a 2-core
host, the quartile spread of the median pass seconds was 17-18% unscaled and
1-5% scaled.  The code does not use blocksets, but it shares the interpreter
with it: a cyclic-GC pass that the sampler's own allocations trigger walks
the program's whole heap and lands in that sample's time.  The median of the
samples around an interval keeps such an outlier from moving its scale.
"""

import bisect
import os
import statistics
import threading
from time import perf_counter, thread_time

NOMINAL_S = 0.0008   # reference_work seconds at the speed times are scaled to

_MASKS = [(i * 0x9E3779B97F4A7C15) & ((1 << 60) - 1) for i in range(64)]
_Q = 7
_MUL = [[a * b % _Q for b in range(_Q)] for a in range(_Q)]


def reference_work():
    """Half the search's inner loop (walk set bits, intersect masks), half
    the instance builder's (combine coordinate tuples through field tables,
    store them in a dict)."""
    acc = total = 0
    masks = _MASKS
    for r in range(100):
        m = masks[r & 63] | 1
        while m:
            b = m & -m
            m ^= b
            total += (masks[b.bit_length() - 1] & acc).bit_count()
        acc ^= masks[(r * 7) & 63]
    seen = {}
    rows = ((1, 2, 3, 4), (0, 1, 5, 6), (0, 0, 1, 2))
    for r in range(60):
        v = (0, 0, 0, 0)
        for lam, row in zip((r % _Q, 3 * r % _Q, 5 * r % _Q), rows):
            if lam:
                v = tuple((a + _MUL[lam][b]) % _Q for a, b in zip(v, row))
        if (v, r & 15) not in seen:
            seen[(v, r & 15)] = [x for x in v if x]
    return total, len(seen)


def measure():
    """(wall-clock start, thread CPU seconds) of one reference_work call."""
    start = perf_counter()
    c0 = thread_time()
    reference_work()
    return start, thread_time() - c0


def pin_to_one_cpu():
    """Pin the calling thread to one CPU it may run on; returns the previous
    CPU set to restore, or None when the platform does not allow it."""
    try:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
    except (AttributeError, OSError):
        return None
    return before


def unpin(before):
    if before is not None:
        os.sched_setaffinity(0, before)


class Speedometer:
    """Background sampler of reference_work times, on the same CPU as the
    thread that enters it (pinned there for the duration).  Use it as a
    context manager: it starts the thread, and joins it and restores the CPU
    set on exit."""

    def __init__(self, every=0.05, pad=0.25):
        self.every = every
        self.pad = pad
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._cpus = None

    def __enter__(self):
        self._cpus = pin_to_one_cpu()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        unpin(self._cpus)

    def _run(self):
        # a new thread inherits the pinned CPU set of the thread starting it
        while not self._stop.wait(self.every):
            self.samples.append(measure())

    def scale(self, start, end):
        """NOMINAL_S over the median sample taken from `pad` seconds before
        `start` to `pad` seconds after `end`: a short interval holds too few
        samples of its own, and the host's speed changes more slowly."""
        samples = list(self.samples)
        times = [t for t, _ in samples]
        lo = bisect.bisect_left(times, start - self.pad)
        hi = bisect.bisect_right(times, end + self.pad)
        near = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
        return NOMINAL_S / statistics.median(d for _, d in near)
