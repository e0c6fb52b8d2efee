"""A fixed piece of exact arithmetic that gauges how fast the host runs now.

The benchmark's host is shared: other tenants slow its cores by up to half
for tens of seconds at a time, and the time of a command moves with them.
Timing this loop between commands and dividing each command's time by it
cancels most of that drift. The loop does the work that dominates the
program, exact in-circle determinants over ``Fraction`` coordinates, but
shares no code with it, so a change to the program cannot change the loop.

A command's normalised time is its measured time times ``NOMINAL_S`` over
the loop's time measured around it: what the command would have taken had
the loop run at its nominal speed. ``NOMINAL_S`` only fixes the unit: it
is about the loop's median time on the 2-core x86-64 host, Python 3.11.7,
that the benchmark was written on.

The loop runs in as many threads as the command computes in. A two-file
``check`` runs its files in two pool threads that take turns holding the
GIL, and when the host is contended the hand-offs between them slow down
more than a single thread does; the loop run in two threads at once slows
down the same way. On ``check-small`` commands over nine minutes, the
median over 30-second windows of their normalised times spread 2.3%
between quartiles with the two-thread loop and 4.0% with the one-thread
loop (wall time: 14%), and one window that the one-thread loop left 10%
slow the two-thread loop put right. Two threads take about twice as long
as one, so ``NOMINAL_S`` scales with the thread count.
"""

from __future__ import annotations

import random
import threading
import time
from fractions import Fraction

NOMINAL_S = 0.020

_rng = random.Random("bench-reference")
_POINTS = [(Fraction(_rng.randrange(1 << 20), 1 << 20), Fraction(_rng.randrange(1 << 20), 1 << 20))
           for _ in range(12)]
_EXPECTED = None


def _work() -> int:
    """Signs of in-circle determinants over fixed point quadruples."""
    pts = _POINTS
    n = len(pts)
    positive = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[(7 * a + 3 * b + c) % n]
                adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
                det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
                       - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
                       + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
                positive += det > 0
    return positive


def normalise(seconds: float, reference_seconds: float, threads: int = 1) -> float:
    """``seconds`` measured while the loop, run in ``threads`` threads, took
    ``reference_seconds``, at the loop's nominal speed."""
    return seconds * NOMINAL_S * threads / reference_seconds


def measure(threads: int = 1) -> float:
    """Seconds the loop takes now, run once in each of ``threads`` threads
    at the same time: the faster of two passes, which drops most of the
    spikes a single pass picks up."""
    global _EXPECTED
    results: list[int] = []
    best = None
    for _ in range(2):
        workers = [threading.Thread(target=lambda: results.append(_work())) for _ in range(threads - 1)]
        start = time.perf_counter()
        for w in workers:
            w.start()
        results.append(_work())
        for w in workers:
            w.join()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    if _EXPECTED is None:
        _EXPECTED = results[0]
    if any(r != _EXPECTED for r in results):
        raise RuntimeError("the reference loop gave a different answer")
    return best
