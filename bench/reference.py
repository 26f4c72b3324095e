"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same pure-Python code runs up to 1.6 times slower
in spells that last from seconds to minutes, and process CPU time slows
with wall time, so medians over one run move with the spell the run fell
in. The benchmark therefore times `reference()` between jobs and scales
each job's time by REF_S / (the reference time measured around it): a
job's scaled time is what it would take when `reference()` takes REF_S.
`reference()` is exact `Fraction` Gauss-Jordan elimination, the same kind
of work as the program's, and never calls the program, so a change to
the program moves the scaled times and a change in machine speed does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Nominal reference time: about what `reference()` takes on an unloaded
# 2-vCPU x86-64 VM under CPython 3.11. Only its constancy matters.
REF_S = 0.005

# A job is followed by a reference measurement once this much job time has
# passed since the last one.
REF_EVERY_S = 0.025

N = 9


def reference() -> Fraction:
    """Invert I + H, H the N x N Hilbert matrix; return one entry."""
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(N)]
            + [Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    for c in range(N):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(N):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows[N - 1][2 * N - 1]


def measure() -> tuple[float, float]:
    """Wall and process CPU seconds of one `reference()` call."""
    w, c = time.perf_counter(), time.process_time()
    reference()
    return time.perf_counter() - w, time.process_time() - c
