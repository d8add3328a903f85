"""Mordell elliptic curves y^2 = x^3 + b over F_p with p = 2 (mod 3).

Every `PrimeModulus` is such a prime, so a curve checks only its b.
Because cubing is a bijection on F_p for such primes, every y in [0, p-1]
appears exactly once as a y-coordinate, so the curve has exactly p affine
points and point lookup by y-coordinate is a single cube root (`points`,
the package's only cube root).  Only sparse y-sets are looked up.  A dense
y-set on one curve walks x instead and reads the ys of each x off a table
of square roots (`ordering._walk`); the exhaustive paths, which need the
points of all p - 1 curves of one modulus, walk F_p x Y once and read each
point's curve off b = y^2 - x^3 (`ordering._curve_orders`).  The group law
is never used, nor is the isomorphism (x, y) -> (t^2 x, t^3 y) as a map on
points: an isomorphism class and a parameter t only select the curve
E_{p, t^6 b} for the class representative b.
"""

from collections.abc import Iterable, Iterator
from enum import Enum

from .errors import MecforgeError
from .field import PrimeModulus
from .record import Record


class CurveClass(Enum):
    """Isomorphism class of a Mordell curve; only two exist for p = 2 (mod 3):
    C1 when b is a quadratic residue, C2 when it is not."""

    C1 = "C1"
    C2 = "C2"


class MordellCurve(Record):
    __slots__ = ("modulus", "b")

    def __init__(self, modulus: PrimeModulus, b: int):
        _check_b(b, modulus.p)
        super().__init__(modulus, b)

    @property
    def p(self) -> int:
        return self.modulus.p

    def isomorphic(self, t: int) -> "MordellCurve":
        """E_{p, t^6 b}, the curve that (x, y) -> (t^2 x, t^3 y) maps this E_{p, b} onto."""
        return MordellCurve(self.modulus, pow(t, 6, self.p) * self.b % self.p)


def _check_b(b: int, p: int) -> None:
    if not 1 <= b <= p - 1:
        raise MecforgeError(f"b = {b} must lie in [1, p-1]")


def points(curve: MordellCurve, ys: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The point (x, y) of each y of ys, in their order: x = (y^2 - b)^d mod p
    with d = (2p-1)/3, the cube root because 3d = 1 (mod p-1) for p = 2 (mod 3)."""
    p, b = curve.p, curve.b
    d = (2 * p - 1) // 3
    return ((pow((y * y - b) % p, d, p), y) for y in ys)


def representative(modulus: PrimeModulus, curve_class: CurveClass) -> int:
    """Canonical b for each class: 1 for C1, the smallest QNR for C2."""
    return 1 if curve_class is CurveClass.C1 else modulus.smallest_qnr()
