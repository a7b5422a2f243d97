"""Speed-adjusted timing against a fixed pure-Python reference loop.

The hosts this benchmark runs on change speed by up to 1.7x within a
second or two, and process CPU time swings with wall time, so neither
clock alone gives steady medians.  Every sample is therefore bracketed
by one pass of ``reference_loop`` (before and after), and its time is
scaled by ``NOMINAL_REF_S / reference time``: the figure reads as it
would on a host where the loop takes exactly its nominal time.  A time
stays a time and a rate stays a rate.

The loop imports nothing from pullcalc.  Its work resembles the
library's, so that its slowdowns track the library's (see README.md).
"""

from __future__ import annotations

import math
import time

# Time of one reference_loop pass on the reference host (Intel Xeon,
# 2 vCPUs, Python 3.11.7, pinned to vCPU 0) in its fast state; its slow
# state reads about 9 ms.  Changing it rescales every adjusted figure,
# so it is fixed once and for all.
NOMINAL_REF_S = 0.005

now = time.perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        g = math.gcd(a, b)
        self.a = a // g
        self.b = b // g


def reference_loop() -> int:
    """A fixed amount of interpreter work; returns a checksum.

    Three parts, because the host's slowdowns hit different kinds of
    work differently: small objects with gcd normalisation, tuple
    concatenation and string joins (the algebra), integer arithmetic
    with dictionary updates (the CLI's start-up), and float geometry
    with a sort (the diagram verifier).
    """
    out = []
    word = ()
    a, b = 1, 1
    for i in range(3000):
        a, b = b, a + b
        if i % 64 == 0:
            a, b = 1, 2
        p = _Pair(a, b)
        word = word + (i & 3,) if len(word) < 40 else ()
        out.append((p.a, p.b))
    check = len(" ".join(str(x[0]) for x in out[:500]))
    counts = {}
    x = 1
    for i in range(6000):
        x = (x * 3 + i) & 0xFFFFFFFFFFFF
        counts[x & 255] = counts.get(x & 255, 0) + 1
    points = []
    for i in range(1500):
        px, py = (i * 0.37) % 11.0, (i * 0.61) % 7.0
        points.append((math.hypot(px - 3.0, py - 2.0), px, py))
    points.sort()
    return check + len(counts) + int(points[0][0])


def reference_time() -> float:
    start = now()
    reference_loop()
    return now() - start


class Sample:
    """One bracketed measurement: raw seconds and the speed factor."""

    __slots__ = ("raw_s", "factor", "value")

    def __init__(self, raw_s: float, factor: float, value):
        self.raw_s = raw_s
        self.factor = factor
        self.value = value

    @property
    def adjusted_s(self) -> float:
        return self.raw_s * self.factor


def timed(fn, *args) -> Sample:
    """Run ``fn(*args)`` between two reference passes."""
    before = reference_time()
    start = now()
    value = fn(*args)
    raw = now() - start
    after = reference_time()
    return Sample(raw, NOMINAL_REF_S / ((before + after) / 2.0), value)
