"""A fixed exact-arithmetic kernel that reads the machine's current speed.

On a shared machine one thread's throughput changes with other tenants'
load, by up to 2x within seconds.  The serving processes run this probe
between requests, and the benchmark scales each pass's times by
``NOMINAL_S`` over the pass's median probe time.  The kernel is the
benchmark's own code, so no change to coxbasis moves it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.03


def _terms() -> list[tuple[tuple[int, int, int], Fraction]]:
    rng = random.Random(7)
    return [((rng.randrange(5), rng.randrange(5), rng.randrange(5)),
             Fraction(rng.randrange(1, 99), rng.randrange(1, 99))) for _ in range(60)]


TERMS = _terms()


def probe() -> float:
    """Seconds for two sparse squarings of a 60-term polynomial over Fraction,
    the kind of work that dominates coxbasis."""
    start = time.perf_counter()
    for _ in range(2):
        out: dict = {}
        for (a0, a1, a2), c1 in TERMS:
            for (b0, b1, b2), c2 in TERMS:
                e = (a0 + b0, a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - start


def speed_factor(probes: list[float]) -> float:
    """What to multiply a time measured during ``probes`` by."""
    return NOMINAL_S / statistics.median(probes)
