"""Total orders on curve points and the orders they induce on y-sets.

Three strict total orders are supported: natural (lexicographic on (x, y)),
diffusion (integer coordinate sum, ties by x) and modulo diffusion
(coordinate sum mod p, ties by x).  Because each y in [0, p-1] lies on
exactly one point, every order on points induces an order on any subset of
y-values, and from there on the residues of an (m, p)-complete set.
"""

from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable

from .field import PrimeModulus
from .mec import CurvePoint, MordellCurve, point_for_y

if TYPE_CHECKING:
    from .generator import CompleteSet


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


def sort_key(kind: Ordering, modulus: PrimeModulus) -> Callable[[CurvePoint], tuple[int, int]]:
    """The comparison key realizing each order on points of a curve over p."""
    if kind is Ordering.NATURAL:
        return lambda pt: (pt.x, pt.y)
    if kind is Ordering.DIFFUSION:
        return lambda pt: (pt.x + pt.y, pt.x)
    p = modulus.p
    return lambda pt: ((pt.x + pt.y) % p, pt.x)


def rank_of_y(kind: Ordering, curve: MordellCurve, ys: Iterable[int]) -> list[int]:
    """y-values sorted by the curve-order position of their unique points."""
    key = sort_key(kind, curve.modulus)
    return [pt.y for pt in sorted((point_for_y(curve, y) for y in ys), key=key)]


def ordered_complete_set(kind: Ordering, curve: MordellCurve, complete_set: "CompleteSet") -> list[int]:
    """Residues [0, m-1] in the order the curve imposes on their representatives.

    Each residue inherits the position of the unique curve point whose
    y-coordinate is the set element congruent to it mod m; the result is a
    permutation of [0, m-1].
    """
    m = complete_set.m
    return [y % m for y in rank_of_y(kind, curve, complete_set.elements)]
