"""Total orders on curve points and the orders they induce on y-sets.

Three strict total orders are supported: natural (lexicographic on (x, y)),
diffusion (integer coordinate sum, ties by x) and modulo diffusion
(coordinate sum mod p, ties by x).  Because each y in [0, p-1] lies on
exactly one point, every order on points induces an order on any subset of
y-values.
"""

from enum import Enum
from typing import Iterable

from .mec import MordellCurve, x_for_y


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
    """y-values sorted by the curve-order position of their unique points.

    Each y is sorted by the order's key on its point (x_for_y(curve, y), y).
    """
    if kind is Ordering.NATURAL:
        def key(y):
            return x_for_y(curve, y), y
    elif kind is Ordering.DIFFUSION:
        def key(y):
            x = x_for_y(curve, y)
            return x + y, x
    else:
        p = curve.p

        def key(y):
            x = x_for_y(curve, y)
            return (x + y) % p, x
    return sorted(ys, key=key)
