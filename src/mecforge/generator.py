"""S-box and pseudo-random sequence generators over ordered Mordell curves.

An S-box is the complete set's residues in the order the curve imposes on
the points that carry its elements as y-coordinates, cyclically shifted.
`sbox_direct` takes the curve itself; `sbox_iso` takes a class
representative E_{p, b} and an isomorphism parameter, which only select the
curve E_{p, t^6 b}.  Both build the table the same way, and `sprn` orders
its y-set the same way: `ordering.rank_of_y` takes one cube root per element
of a sparse set, and none for a set of at least p/5 ys, which it orders in
one walk over x.  The exhaustive paths, `pstar` and `enumerate_family`,
order their y-set on all p - 1 curves of one modulus at once, in one pass
over F_p x Y (`ordering._curve_orders`), with no cube root and no sort.
The pass hands back each curve's ys already reduced mod m, so a family's
table is one rotation of its curve's row.  `pstar` reads every size below
its pass off the same rows, and orders only the few curves that still agree
at the pass one by one at each size above it.  A table built from a
validated complete set is a permutation by construction, so `_sbox`, which
makes every generated S-box from its p, b, parameters and table, skips the
permutation check that `SBox(...)` runs on a table read from outside.
"""

import math
import sys
from collections.abc import Iterable

from .errors import MecforgeError, TooLarge
from .field import PrimeModulus
from .mec import MordellCurve, _check_b
from .ordering import Ordering, _curve_orders, rank_of_y
from .record import Record


Provenance = tuple[tuple[str, object], ...]


def _check_set_size(m: int, p: int) -> None:
    if not 1 <= m <= p:
        raise MecforgeError(f"m = {m} must lie in [1, p] = [1, {p}]")


class CompleteSet(Record):
    """An (m, p)-complete set: m residues of [0, p-1], pairwise distinct mod m.
    Every instance is checked, so its residues ordered on any curve make a
    permutation of [0, m-1]."""

    __slots__ = ("elements", "m", "modulus")

    def __init__(self, elements: tuple[int, ...], m: int, modulus: PrimeModulus):
        p = modulus.p
        _check_set_size(m, p)
        if len(elements) != m:
            raise MecforgeError(f"expected {m} elements, got {len(elements)}")
        seen: dict[int, int] = {}
        for e in elements:
            if not 0 <= e <= p - 1:
                raise MecforgeError(f"element {e} outside [0, {p - 1}]")
            r = e % m
            if r in seen:
                raise MecforgeError(f"{seen[r]} and {e} are congruent mod {m}")
            seen[r] = e
        super().__init__(elements, m, modulus)

    @classmethod
    def validate(cls, elements: Iterable[int], m: int, modulus: PrimeModulus) -> "CompleteSet":
        _check_set_size(m, modulus.p)  # before the elements are read: range(m) may be huge
        return cls(tuple(elements), m, modulus)

    @classmethod
    def natural(cls, m: int, modulus: PrimeModulus) -> "CompleteSet":
        """The canonical set [0, m-1]."""
        return cls.validate(range(m), m, modulus)


class SBox(Record):
    """A bijection on [0, m-1] with the parameters that produced it."""

    __slots__ = ("table", "m", "provenance")

    def __init__(self, table: tuple[int, ...], m: int, provenance: Provenance = ()):
        # |table| = m first: range(m) is built at the table's size only
        if not 0 < len(table) == m or sorted(table) != list(range(m)):
            raise MecforgeError("S-box table is not a permutation of [0, m-1] with m >= 1")
        super().__init__(table, m, provenance)

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


class SprnSequence(Record):
    """A finite sequence of residues mod m derived from an ordered y-set."""

    __slots__ = ("values", "m", "provenance")

    def __init__(self, values: tuple[int, ...], m: int, provenance: Provenance = ()):
        super().__init__(values, m, provenance)

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


def _check_shift(k: int, m: int) -> None:
    if not 0 <= k < m:
        raise MecforgeError(f"shift k = {k} must lie in [0, m-1]")


def _shift_reduce(ordered: list[int], m: int, k: int) -> tuple[int, ...]:
    """Curve-ordered ys rotated left by k < |ys| and reduced mod m: entry i is
    the ((i + k) mod |ys|)-th ordered y."""
    return tuple(y % m for y in ordered[k:] + ordered[:k])


def _sbox(p: int, b: int, kind: Ordering, m: int, k: int, table: tuple[int, ...]) -> SBox:
    """The S-box of E_{p, b} with this table, as `SBox(...)` gives it but with
    no sort to check the table: a family builds one per curve."""
    box = object.__new__(SBox)
    object.__setattr__(box, "table", table)
    object.__setattr__(box, "m", m)
    object.__setattr__(box, "provenance", (("p", p), ("b", b), ("ordering", kind.value),
                                           ("set", "explicit"), ("m", m), ("k", k)))
    return box


def sbox_direct(curve: MordellCurve, kind: Ordering, complete_set: CompleteSet, k: int) -> SBox:
    """S-box from the ordered complete set on the target curve itself: each
    residue takes its element's curve position, and the table is shifted by k."""
    m = complete_set.m
    _check_shift(k, m)
    table = _shift_reduce(rank_of_y(kind, curve, complete_set.elements), m, k)
    return _sbox(curve.p, curve.b, kind, m, k, table)


def sbox_iso(rep_curve: MordellCurve, t_inv: int, kind: Ordering,
             complete_set: CompleteSet, k: int) -> SBox:
    """S-box on E_{p, t^6 b}, the curve isomorphic to the representative
    E_{p, b} under the parameter t = t_inv^-1.  Its table is the direct
    S-box of that curve."""
    _check_shift(k, complete_set.m)
    return sbox_direct(rep_curve.isomorphic(rep_curve.modulus.inverse(t_inv)), kind, complete_set, k)


def sprn(curve: MordellCurve, kind: Ordering, y_set: Iterable[int], m: int, k: int) -> SprnSequence:
    """Pseudo-random sequence: the y-set in curve order, reduced mod m.

    The output has length |A|; entry i is the ((i+k) mod |A|)-th element of
    the ordered set, reduced mod m.
    """
    # a range holds distinct ys already, with its least and greatest at its ends
    ys = y_set if isinstance(y_set, range) and y_set.step == 1 else set(y_set)
    if not ys:
        raise MecforgeError("input set A is empty")
    lo, hi = (ys[0], ys[-1]) if ys is y_set else (min(ys), max(ys))
    if lo < 0 or hi >= curve.p:  # y and y + p name the same point
        raise MecforgeError(f"element {lo if lo < 0 else hi} outside [0, {curve.p - 1}]")
    if not 1 <= m <= len(ys):
        raise MecforgeError(f"m = {m} must lie in [1, |A|] = [1, {len(ys)}]")
    _check_shift(k, m)
    prov = (("p", curve.p), ("b", curve.b), ("ordering", kind.value),
            ("A_size", len(ys)), ("m", m), ("k", k))
    return SprnSequence(_shift_reduce(rank_of_y(kind, curve, ys), m, k), m, prov)


MAX_COUNT_DIGITS = 4300


def count_sboxes(p: int, m: int) -> tuple[int, int]:
    """Number of (m, p)-complete S-boxes a fixed ordered curve can emit.

    Writing p = mq + r, there are q+1 choices for each of the r residue
    classes [0, r-1] and q for the rest, so per fixed shift there are
    (q+1)^r * q^(m-r) complete sets; the total additionally ranges over the
    m shifts.

    Raises TooLarge when the total has more decimal digits than the
    interpreter's limit on int-to-str conversion, or than MAX_COUNT_DIGITS
    (CPython's default) where that limit is off.  Its base-10 logarithm,
    with a digit to spare for rounding, refuses a total far past the limit
    before any power is taken (at p near 10^9 it can have 10^8 digits); the
    exact comparison decides the rest.
    """
    _check_set_size(m, p)
    # CPython before 3.10.7 has neither the limit nor this function: read it as off.
    digits = getattr(sys, "get_int_max_str_digits", int)() or MAX_COUNT_DIGITS
    q, r = divmod(p, m)
    if math.log10(m) + r * math.log10(q + 1) + (m - r) * math.log10(q) < digits + 1:
        per_k = (q + 1) ** r * q ** (m - r)
        if m * per_k < 10 ** digits:
            return per_k, m * per_k
    raise TooLarge(f"the count at p = {p}, m = {m} has more than {digits} digits")


DEFAULT_MAX_PSTAR_P = 2000


def pstar(modulus: PrimeModulus, kind: Ordering, max_p: int = DEFAULT_MAX_PSTAR_P) -> int:
    """Largest m at which two distinct curves still emit the same natural S-box.

    Uses k = 0 and Y = [0, m-1].  Exhaustive over all p-1 curves, hence
    guarded by ``max_p``.

    A table at size m is a permutation of [0, m-1], so below the floor, the
    least m with m! >= p - 1, two of the p - 1 curves must collide.  A table
    at m' < m is the table at m with the ys >= m' removed, so curves that
    agree at m agree at every m' < m.  One pass over F_p x [0, top-1], with
    top = min(floor + 2, p - 1), orders every curve at once.  If the curves
    all differ at top, m counts down from top - 1 to the floor, dropping
    y = m from every row, and the first m at which two rows agree is p*; if
    none does, p* is one below the floor.  Otherwise only the curves that
    agree with another go on: at m = top + 1, top + 2, ... each of them
    takes its table at m (two curves that differ below m differ at m), and
    p* is the last m at which two of them agreed, or p - 1 if two still do.
    """
    p = modulus.p
    if p > max_p:
        raise TooLarge(f"p = {p} exceeds the exhaustive guard {max_p}")
    low = next(m for m in range(1, p) if math.factorial(m) >= p - 1)
    top = min(low + 2, p - 1)
    rows = _curve_orders(modulus, kind, range(top), top)[1:]
    if len(set(map(tuple, rows))) == p - 1:
        for m in range(top - 1, low - 1, -1):
            for row in rows:
                row.remove(m)
            if len(set(map(tuple, rows))) < p - 1:
                return m
        return low - 1
    agree = range(1, p)  # tables at m: off the rows at top, then curve by curve
    for m in range(top, p):
        parts: dict[tuple, list[int]] = {}
        for b in agree:
            table = rows[b - 1] if m == top else rank_of_y(kind, MordellCurve(modulus, b), range(m))
            parts.setdefault(tuple(table), []).append(b)
        agree = [b for part in parts.values() if len(part) > 1 for b in part]
        if not agree:
            return m - 1
    return p - 1


class FamilyResult(Record):
    """A family's S-boxes, in the order of its b-values.  `errors` is always
    empty: a bad b is refused before the pass, not collected."""

    __slots__ = ("sboxes", "errors")  # list[SBox], list


def enumerate_family(modulus: PrimeModulus, kind: Ordering, complete_set: CompleteSet, k: int,
                     b_values: Iterable[int]) -> FamilyResult:
    """One S-box per curve E_{p, b}, b in ``b_values``, in that order.

    A shift k outside [0, m-1] and a b outside [1, p-1] are refused, the b
    with `MordellCurve`'s message, before the pass.
    One pass over F_p x Y orders the complete set on every curve of p at
    once and reduces it mod m; each row becomes its curve's S-box, rotated
    by k, where it lies, so the rows are freed as the S-boxes are built.
    Every curve of p is built, so a few curves of a large p cost the whole
    pass; `sbox_direct` builds one.  A b named twice gets its S-box twice.
    """
    _check_shift(k, complete_set.m)
    p, m = modulus.p, complete_set.m
    b_values = list(b_values)
    for b in b_values:
        _check_b(b, p)
    family = _curve_orders(modulus, kind, complete_set.elements, m)
    for b in range(1, p):
        row = family[b]
        family[b] = _sbox(p, b, kind, m, k, tuple(row[k:] + row[:k]))
    return FamilyResult([family[b] for b in b_values], [])
