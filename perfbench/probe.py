"""Machine-speed probe.

A fixed piece of pure-Python work in the style of lomlab's hot paths: small
tuples, frozensets and dicts, Fraction arithmetic and small objects.  It is
run before every job and every set-up, outside the timed region.  On a
shared machine CPython code slows by up to 2.2x, in phases from seconds to
minutes long.  The probe slows with it, so the mean probe time of a pass
measures the machine's speed during that pass, and the pass time is scaled
by it; a set-up is scaled by the probe timed just before it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# about the probe's time on the machine the benchmark was defined on (two
# shared vCPUs, CPython 3.11.7, quiet phase); scaled times are seconds at
# that speed
REFERENCE_S = 0.040


class _Cell:
    __slots__ = ("row", "total")

    def __init__(self, row: tuple[int, ...], total: int):
        self.row = row
        self.total = total


def probe_seconds() -> float:
    start = perf_counter()
    table: dict[frozenset[int], int] = {}
    for i in range(20000):
        row = tuple((i * k) & 7 for k in range(6))
        key = frozenset(x for x in row if x & 1)
        table[key] = table.get(key, 0) + sum(row)
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(2, i % 5 + 1)
    cells = [_Cell(row, sum(row)) for row in (
        tuple(-1 if (i >> k) & 1 else 1 for k in range(8)) for i in range(6000)
    )]
    sum(c.total for c in cells if c.row[0] > 0)
    return perf_counter() - start
