"""Total orders on curve points and the orders they induce on y-sets.

Three strict total orders are supported: natural (lexicographic on (x, y)),
diffusion (integer coordinate sum, ties by x) and modulo diffusion
(coordinate sum mod p, ties by x).  Because each y in [0, p-1] lies on
exactly one point, every order on points induces an order on any subset of
y-values: `rank_of_y` orders the points of a y-set on one curve.  A sparse
y-set looks its points up with `mec.points`, one cube root each.  A dense
one walks x ascending instead (`_walk`): the ys of each x are the square
roots of x^3 + b, read from a table, so the points come out in natural
order with no cube root.  Either way, each point then gets one int key per
ordering, and sorting the keys orders the ys.

A point (x, y) lies on exactly one curve E_{p, b}, the one with
b = y^2 - x^3 mod p.  So `_curve_orders` walks F_p x Y once in key order and
hands each y, reduced mod m, to its curve, which gives every curve's order at
once, with no cube root and no sort.
"""

from bisect import bisect_left, bisect_right
from collections.abc import Collection, Iterable
from enum import Enum

from .field import PrimeModulus
from .mec import MordellCurve, points


class Ordering(Enum):
    NATURAL = "natural"
    DIFFUSION = "diffusion"
    MODULO = "modulo"


# rank_of_y walks x when ys holds at least p/_WALK_DENSITY of the p ys, and
# looks each y up otherwise.  The walk costs about p steps whatever |Y| is;
# the lookups cost one cube root and a share of the sort per y, and the cube
# root grows with log p.  Measured (CPython 3.11, shared 2-vCPU Xeon), the
# two broke even at |Y| = 0.21p (natural), 0.27p (diffusion) and 0.27p
# (modulo) for p = 3917, and at 0.15p, 0.18p and 0.18p for p = 65537.  The
# crossovers move more with p than with the ordering: at p/5 no ordering
# lost more than about a quarter on either side of its crossover, and no
# constant per ordering kept every loss within a tenth.
_WALK_DENSITY = 5


def rank_of_y(kind: Ordering, curve: MordellCurve, ys: Collection[int]) -> list[int]:
    """The distinct ys of [0, p-1] sorted by the curve-order position of their
    unique points.  A sparse set looks its points up; a set of at least
    p/_WALK_DENSITY ys takes them from `_walk`, in natural order already.
    Each point but the walk's in natural order then gets one int key, sorted:
    x*p + y (natural), read back as key mod p, or s*p + x with s the
    coordinate sum (diffusion) or its residue (modulo), read back as
    y = (s - x) mod p."""
    p = curve.p
    if len(ys) * _WALK_DENSITY < p:
        pts = points(curve, ys)
        if kind is Ordering.NATURAL:
            return [key % p for key in sorted([x * p + y for x, y in pts])]
    else:
        if len(ys) == p:
            keep = b"\x01" * p
        else:
            keep = bytearray(p)
            for y in ys:
                keep[y] = 1
        if kind is Ordering.NATURAL:
            return _walk(curve, keep)[1]
        pts = zip(*_walk(curve, keep))
    if kind is Ordering.DIFFUSION:
        keys = [(x + y) * p + x for x, y in pts]
    else:
        keys = [(x + y) % p * p + x for x, y in pts]
    keys.sort()
    return [(key // p - key % p) % p for key in keys]


def _walk(curve: MordellCurve, keep: bytes) -> tuple[list[int], list[int]]:
    """xs and ys of the curve's points (x, y) with keep[y], in natural order:
    for x ascending, the ys with y^2 = c = x^3 + b are lo[c] < p - lo[c], lo
    the table of the smaller square root of each nonzero square, or 0 alone
    when c = 0."""
    p, b = curve.p, curve.b
    lo = [0] * p
    for y in range(1, (p + 1) // 2):
        lo[y * y % p] = y
    xs, ys = [], []
    for x in range(p):
        c = (x * x * x + b) % p
        y = lo[c]
        if y:
            if keep[y]:
                xs.append(x)
                ys.append(y)
            if keep[p - y]:
                xs.append(x)
                ys.append(p - y)
        elif c == 0 and keep[0]:
            xs.append(x)
            ys.append(0)
    return xs, ys


def _curve_orders(modulus: PrimeModulus, kind: Ordering, ys: Iterable[int],
                  m: int) -> list[list[int]]:
    """rows with rows[b] the ys reduced mod m in E_{p, b}'s order, for every b
    in [0, p-1] (row 0 belongs to no admissible curve): one pass over the
    points (x, y), y in ys, in key order, putting each y mod m next in the row
    of its curve.  Each y is reduced once, before the pass; a complete set's
    row is then its curve's unshifted table."""
    p = modulus.p
    asc = sorted(ys)
    n = len(asc)
    cubes = [x * x * x % p for x in range(p)]
    # Each y lies once on every curve, so every row ends n long.  Rows sized
    # up front spare the allocator p lists growing in step, which at
    # p = 2207, n = 256 left about 3 MB of holes in the heap.
    rows = [[0] * n for _ in range(p)]
    ends = [0] * p
    # Natural keeps a loop of its own: run through the sum loop below, it took
    # 15-25 % longer (p = 2111, m = 256 and p = 491, m = 13).
    if kind is Ordering.NATURAL:  # x ascending, then y ascending
        pairs = [(y * y, y % m) for y in asc]
        for x3 in cubes:
            for y2, r in pairs:
                b = (y2 - x3) % p
                rows[b][ends[b]] = r
                ends[b] += 1
        return rows
    # For a fixed sum s = x + y, x = s - y rises as y falls: each sum takes the
    # ys in [s - p + 1, s] descending, and `cubes[s - y]` indexes x directly.
    # Modulo's residue c holds the sums c (the ys <= c) and c + p (the rest).
    desc = [(y * y, y, y % m) for y in reversed(asc)]
    sums = range(2 * p - 1)
    if kind is Ordering.MODULO:
        sums = [s for c in range(p) for s in (c, c + p)]
    for s in sums:
        for y2, y, r in desc[n - bisect_right(asc, s):n - bisect_left(asc, s - p + 1)]:
            b = (y2 - cubes[s - y]) % p
            rows[b][ends[b]] = r
            ends[b] += 1
    return rows
