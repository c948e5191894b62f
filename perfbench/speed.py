"""A fixed reference computation, timed between jobs to follow the host's speed.

The host is shared: its speed swings by half within seconds and stays high or
low for minutes, so raw job times from runs minutes apart differ by more than
any regression worth catching.  The benchmark therefore times this fixed
computation next to every job and scales the job's time by how fast the
computation ran just then (`scaled`).

It uses only the standard library and does the kind of work minorkit does:
exact fractions, tuple-keyed dicts, interval comparisons and JSON text.  Its
inputs never change and it runs with the garbage collector off, so its time
moves with the machine, not with the program under test or the heap that
program leaves behind.
"""

from __future__ import annotations

import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter


def reference_work() -> int:
    boxes = {}
    acc = Fraction(0)
    for i in range(1, 120):
        lo = Fraction(i, 7 + i % 5)
        hi = lo + Fraction(1, 1 + i % 11)
        boxes[(i % 13, i)] = (lo, hi)
        acc += hi * lo - Fraction(i, 3)
    first = list(boxes.values())[:20]
    overlaps = sum(1 for a in boxes.values() for b in first if a[0] < b[1] and b[0] < a[1])
    text = json.dumps({f"{k[0]}-{k[1]}": [str(v[0]), str(v[1])] for k, v in boxes.items()})
    return overlaps + len(text) + acc.denominator.bit_length()


# the reference computation's time on a 2-core Intel Xeon VM (Python 3.11) in a
# quiet spell; scaled times read as milliseconds on that machine
REFERENCE_S = 0.004
# a job's time is scaled by the median of the reference times taken this many
# jobs before and after it (the host's speed changes within seconds)
WINDOW = 2


def reference_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_median(samples: int) -> float:
    return statistics.median(reference_seconds() for _ in range(samples))


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each of a sequence of job times, scaled to the reference speed.

    `refs[k]` is the reference time taken just before `seconds[k]`; the
    sequence is in the order the jobs ran.
    """
    out = []
    for k, t in enumerate(seconds):
        local = statistics.median(refs[max(0, k - WINDOW):k + WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
