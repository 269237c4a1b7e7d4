"""A fixed exact-arithmetic computation that times the host, not hkr.

worker.py runs it before every op and a few times after the last one, so
each op has reference times measured around it.  It eliminates the same
rational matrix each time, the Fraction-heavy kind of work hkr's linalg
does, uses nothing of hkr, and runs with the garbage collector off, so the
objects an op leaves behind cannot change its time.  run.py divides each op
latency by the mean of the reference times around it: the host this
benchmark runs on drifts by up to 1.8x over seconds to minutes, and both
sides of the ratio drift together.
"""

import gc
import time
from fractions import Fraction

ORDER = 22


def eliminate(n):
    """Forward elimination of the n x n Hilbert matrix plus the identity."""
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows[n - 1][n - 1]


def reference_seconds():
    """Seconds of one elimination of order ORDER, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        eliminate(ORDER)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
