"""Total orders on curve points and the orders they induce on y-sets.

Three strict total orders are supported: natural (lexicographic on (x, y)),
diffusion (integer coordinate sum, ties by x) and modulo diffusion
(coordinate sum mod p, ties by x).  Because each y in [0, p-1] lies on
exactly one point, every order on points induces an order on any subset of
y-values: `rank_of_y` sorts the points `mec.points` finds for them.
"""

from enum import Enum
from typing import Iterable

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
