"""Total orders on curve points and the orders they induce on y-sets.

Three strict total orders are supported: natural (lexicographic on (x, y)),
diffusion (integer coordinate sum, ties by x) and modulo diffusion
(coordinate sum mod p, ties by x).  Because each y in [0, p-1] lies on
exactly one point, every order on points induces an order on any subset of
y-values: `rank_of_y` sorts the points `mec.points` finds for them.

A point (x, y) lies on exactly one curve E_{p, b}, the one with
b = y^2 - x^3 mod p.  So `_curve_orders` walks F_p x Y once in key order and
hands each y to its curve, which gives every curve's order at once, with no
cube root and no sort.
"""

from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Iterable

from .field import PrimeModulus
from .mec import MordellCurve, points


class Ordering(Enum):
    NATURAL = "natural"
    DIFFUSION = "diffusion"
    MODULO = "modulo"

    @classmethod
    def parse(cls, name: str) -> "Ordering":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(o.value for o in cls)
            raise ValueError(f"unknown ordering {name!r}; expected one of: {valid}") from None


def rank_of_y(kind: Ordering, curve: MordellCurve, ys: Iterable[int]) -> list[int]:
    """y-values sorted by the curve-order position of their unique points:
    one pass over `points` builds each y's sort key, which ends in that y."""
    pts = points(curve, ys)
    if kind is Ordering.NATURAL:
        keys = sorted(pts)
    elif kind is Ordering.DIFFUSION:
        keys = sorted([(x + y, x, y) for x, y in pts])
    else:
        p = curve.p
        keys = sorted([((x + y) % p, x, y) for x, y in pts])
    return [key[-1] for key in keys]


def _curve_orders(modulus: PrimeModulus, kind: Ordering, ys: Iterable[int]) -> list[list[int]]:
    """rows with rows[b] the ys in E_{p, b}'s order, for every b in [0, p-1]
    (row 0 belongs to no admissible curve): one pass over the points (x, y),
    y in ys, in key order, putting each y next in the row of its curve."""
    p = modulus.p
    asc = sorted(ys)
    n = len(asc)
    cubes = [x * x * x % p for x in range(p)]
    # Each y lies once on every curve, so every row ends n long.  Rows sized
    # up front spare the allocator p lists growing in step, which at
    # p = 2207, n = 256 left about 3 MB of holes in the heap.
    rows = [[0] * n for _ in range(p)]
    ends = [0] * p
    if kind is Ordering.NATURAL:  # x ascending, then y ascending
        pairs = [(y * y, y) for y in asc]
        for x3 in cubes:
            for y2, y in pairs:
                b = (y2 - x3) % p
                rows[b][ends[b]] = y
                ends[b] += 1
        return rows
    # For a fixed sum, x = sum - y rises as y falls: each sum takes its ys
    # descending.  `cubes[c - y]` with c - y > -p indexes x = (c - y) mod p.
    desc = [(y * y, y) for y in reversed(asc)]
    if kind is Ordering.MODULO:  # c = (x + y) mod p: the ys <= c, then the rest
        for c in range(p):
            i = n - bisect_right(asc, c)
            for y2, y in desc[i:] + desc[:i]:
                b = (y2 - cubes[c - y]) % p
                rows[b][ends[b]] = y
                ends[b] += 1
    else:  # s = x + y over the integers: the ys in [s - p + 1, s]
        for s in range(2 * p - 1):
            for y2, y in desc[n - bisect_right(asc, s):n - bisect_left(asc, s - p + 1)]:
                b = (y2 - cubes[s - y]) % p
                rows[b][ends[b]] = y
                ends[b] += 1
    return rows
