"""Host-speed probe: scales measured times to a fixed reference speed.

Each CPU of the shared host this benchmark was defined on switches
between a fast and a slow state about 1.8x apart, and CPU time slows
with wall time, so raw timings of the same code drift by more than any
useful regression bound.  A fixed probe (a pure-Python loop plus a
pickle round trip, since interpreter-bound and allocation-bound code
slow by different factors) is timed right before and right after each
timed op; the benchmark multiplies the op's measured time by
``REFERENCE_S / probe``, the time the op would have taken with the
host in its fast state.  The probe is the benchmark's own code, so a
change to the program moves the scaled time as it moves the raw one.
Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import os
import pickle
import statistics
import threading
import time
from typing import List, Tuple

#: Probe time of the fast state on the reference host (2-CPU x86-64,
#: Python 3.11; 5th percentile of 4,700 probes): scaled times read as
#: seconds on that host at that speed.
REFERENCE_S = 0.000600


#: Fixed data the probe pickles and sorts (allocation-heavy work, next
#: to the interpreter loop, so the probe slows like a mixed program).
_DATA = [
    {"name": "n%d" % i, "vals": list(range(i % 17)), "pair": (i, float(i))}
    for i in range(150)
]


def _probe_once() -> float:
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + 1
        acc += i * 0.5
    rows = pickle.loads(pickle.dumps(_DATA))
    sorted((tuple(r["vals"]) for r in rows), key=len)
    return time.perf_counter() - t0


def probe() -> float:
    """Median of five probe runs (about 4 ms in all)."""
    return statistics.median(_probe_once() for _ in range(5))


def probe_each_cpu() -> float:
    """Mean of :func:`probe` pinned to each CPU this process may use."""
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)


class Sampler:
    """Times one probe every ``interval`` seconds on a background thread.

    Two probes around an op miss a change of host speed in its middle;
    the sampler probes all through the op.  The process must be pinned
    to one CPU, so the thread's probes run where the op runs.
    """

    def __init__(self, interval: float = 0.025) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []  # (start, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            start = time.perf_counter()
            self.samples.append((start, _probe_once()))

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured from ``t0`` to ``t1``: the median of
        the probes inside it (the three nearest, for a short op).  The
        median drops probes the op's own thread delayed."""
        window = [p for t, p in self.samples if t0 <= t <= t1]
        if len(window) < 3:
            mid = (t0 + t1) / 2.0
            window = [p for _, p in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REFERENCE_S / statistics.median(window)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
