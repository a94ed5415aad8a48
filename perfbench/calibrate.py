"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared, and the speed of the same
code drifts by up to a factor of two over minutes while CPU time stays equal
to wall time (measured on a 2-vCPU Linux container: one fixed ``remove_all``
call took 248 ms, then 126 ms a minute later).  A fixed kernel of exact
rational arithmetic, sorting, bisection and small-object churn, run between
operations, slows down with the host in the same way.  Timings are reported
as seconds at the reference speed: measured seconds times
``REF_S / kernel seconds``.  The kernel uses only the standard library, so
no change to the package can move it.
"""

from __future__ import annotations

import itertools
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

REF_S = 0.004  # kernel time at the reference host speed

_VALUES = [Fraction(i, 997) for i in range(1, 100)]


def kernel() -> None:
    acc = Fraction(0)
    values = list(_VALUES)
    for _ in range(3):
        for v in values:
            acc = (acc + v * 3) / 2
            if acc > 10:
                acc -= 10
        values.sort(key=lambda x: -x)
    pieces = [(v, v + Fraction(1, 7), Fraction(i % 5 + 1, 3)) for i, v in enumerate(_VALUES)]
    los = [p[0] for p in pieces]
    for x in _VALUES[::3]:
        lo, _, slope = pieces[bisect_right(los, x) - 1]
        acc += slope * (x - lo)
    pieces.sort(key=lambda p: (p[1], p[0]))
    m = [[(a ^ b) & 1 == 0 for b in range(6)] for a in range(6)]
    sum(1 for x, y, z in itertools.product(range(6), repeat=3) if m[x][y] and m[y][z])


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def settled_factor(runs: int = 5) -> float:
    """Factor from several back-to-back kernel timings (for one-off set-up times)."""
    return REF_S / statistics.median(time_kernel() for _ in range(runs))
