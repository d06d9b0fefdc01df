"""A fixed unit of work that measures how fast the machine runs right now.

The benchmark's host is a shared virtual machine whose speed drifts by 25%
or more within seconds and between minutes; every command slows alike.  The
benchmark therefore runs this reference after every command, for about SHARE
of the command's time, and reports times scaled to a nominal machine on which
one call takes NOMINAL_S seconds:

    reported = measured wall time * NOMINAL_S / (mean reference call time)

The reference is fraction-free Gauss-Jordan elimination on a fixed 10x11
matrix of 20-bit integers, whose entries grow past 200 bits: the same kind of
work as the exact simplex.  It never calls eqcert, and the garbage collector
is off while it runs, so that a collection cannot charge the walk over
eqcert's live objects to the reference.  Do not edit the
reference or NOMINAL_S: doing so redefines every reported time.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_S = 0.0004
CALLS = 4
SHARE = 0.02

_N = 10
_rng = random.Random(7)
_BASE = [[_rng.randint(-10**6, 10**6) for _ in range(_N + 1)] for _ in range(_N)]


def _eliminate() -> int:
    rows = [list(r) for r in _BASE]
    det = 1
    for c in range(_N):
        p = next(r for r in range(c, _N) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        for r in range(_N):
            if r != c:
                f = rows[r][c]
                rows[r] = [(a * pivot - f * b) // det for a, b in zip(rows[r], rows[c])]
        det = pivot
    return det


def sample(calls: int = CALLS) -> float:
    """Seconds taken by `calls` reference calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            _eliminate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample_after(seconds: float) -> tuple[float, int]:
    """Reference sample after a command that took `seconds`: (seconds, calls).

    The sample lasts about SHARE of the command, at least CALLS calls, so that
    a pass's mean reference call weighs each part of the pass by its length.
    """
    calls = max(CALLS, round(seconds * SHARE / NOMINAL_S))
    return sample(calls), calls
