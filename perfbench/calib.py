"""Host-speed calibration.

The shared host the benchmark was built on changes speed by 20-40 % from
one minute to the next, in whole stretches. ``calibrate()`` times a fixed
piece of pure-Python work of the kind satcirc does; a time divided by the
calibration measured around it, times ``REF_S``, is that time at the
reference speed: the speed at which one run of the work takes ``REF_S``.
Nothing here imports satcirc, so a change to satcirc cannot move it.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.010  # one run of the work on the reference host, rounded


def _work() -> float:
    t = time.perf_counter()
    acc, objs, d = 0, [], {}
    for i in range(7000):
        tup = (i & 1, i >> 1, (i * 7) & 31)
        objs.append(tup)
        key = (tup[2], tup[0])
        d[key] = d.get(key, 0) + tup[1]
        acc += sum(b << j for j, b in enumerate(
            (i & 1, (i >> 1) & 1, (i >> 2) & 1)))
    objs.sort()
    return time.perf_counter() - t


def calibrate() -> float:
    """Median seconds of three runs of the work: tuple allocation, dict
    updates, small-int arithmetic, a generator and a sort."""
    return statistics.median(_work() for _ in range(3))
