"""S-box and pseudo-random sequence generators over ordered Mordell curves.

Two S-box construction paths are provided: a direct one that looks up the
curve point of every seed element on the target curve, and an accelerated
one that works on a class-representative curve and transports points through
the curve isomorphism, avoiding any dependence on p beyond single cube
roots.  Both emit identical tables.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BadModulus, BadShift, DuplicateResidue, EmptySet, OutOfRange, TooLarge, WrongSize
from .field import PrimeModulus
from .mec import CurveClass, CurvePoint, MordellCurve, representative, x_for_y
from .ordering import Ordering, ordered_complete_set, rank_of_y, sort_key


@dataclass(frozen=True)
class CompleteSet:
    """An (m, p)-complete set: m residues of [0, p-1], pairwise distinct mod m."""

    elements: tuple[int, ...]
    m: int
    modulus: PrimeModulus

    @classmethod
    def validate(cls, elements: Iterable[int], m: int, modulus: PrimeModulus) -> "CompleteSet":
        elems = tuple(elements)
        if len(elems) != m:
            raise WrongSize(f"expected {m} elements, got {len(elems)}")
        if not 1 <= m <= modulus.p:
            raise WrongSize(f"m = {m} must lie in [1, p] = [1, {modulus.p}]")
        seen: dict[int, int] = {}
        for e in elems:
            if not 0 <= e <= modulus.p - 1:
                raise OutOfRange(f"element {e} outside [0, {modulus.p - 1}]")
            r = e % m
            if r in seen:
                raise DuplicateResidue(f"{seen[r]} and {e} are congruent mod {m}")
            seen[r] = e
        return cls(elems, m, modulus)

    @classmethod
    def natural(cls, m: int, modulus: PrimeModulus) -> "CompleteSet":
        """The canonical set [0, m-1]."""
        return cls.validate(range(m), m, modulus)


@dataclass(frozen=True)
class SBox:
    """A bijection on [0, m-1] with the parameters that produced it."""

    table: tuple[int, ...]
    m: int
    provenance: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if sorted(self.table) != list(range(self.m)):
            raise AssertionError("S-box table is not a permutation of [0, m-1]")

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


@dataclass(frozen=True)
class SprnSequence:
    """A finite sequence of residues mod m derived from an ordered y-set."""

    values: tuple[int, ...]
    m: int
    provenance: tuple[tuple[str, object], ...] = ()

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


def validate_complete_set(elements: Iterable[int], m: int, modulus: PrimeModulus) -> CompleteSet:
    return CompleteSet.validate(elements, m, modulus)


def _shift(seq: Sequence[int], k: int) -> tuple[int, ...]:
    n = len(seq)
    return tuple(seq[(i + k) % n] for i in range(n))


def _provenance(p: int, b: int, kind: Ordering, source: str, m: int, k: int) -> tuple:
    return (("p", p), ("b", b), ("ordering", kind.value), ("set", source), ("m", m), ("k", k))


def sbox_direct(curve: MordellCurve, kind: Ordering, complete_set: CompleteSet, k: int) -> SBox:
    """S-box from the ordered complete set on the target curve itself."""
    m = complete_set.m
    if not 0 <= k < m:
        raise BadShift(f"shift k = {k} must lie in [0, m-1]")
    seq = ordered_complete_set(kind, curve, complete_set)
    return SBox(_shift(seq, k), m, _provenance(curve.p, curve.b, kind, "explicit", m, k))


def sbox_iso(rep_curve: MordellCurve, t_inv: int, kind: Ordering,
             complete_set: CompleteSet, k: int) -> SBox:
    """S-box on E_{p, t^6 b} built via the isomorphism from a representative curve.

    Points carrying y from the seed set are found by pulling y back to the
    representative curve (y' = t^-3 y), looking x up there, and pushing x
    forward (x = t^2 x'); only the representative curve is ever searched.
    """
    modulus = rep_curve.modulus
    p = modulus.p
    m = complete_set.m
    if not 0 <= k < m:
        raise BadShift(f"shift k = {k} must lie in [0, m-1]")
    t = modulus.inverse(t_inv)
    ti3 = pow(t_inv, 3, p)
    t2 = t * t % p
    b_target = pow(t, 6, p) * rep_curve.b % p
    points = []
    for y in complete_set.elements:
        y_rep = ti3 * y % p
        points.append(CurvePoint(t2 * x_for_y(rep_curve, y_rep) % p, y))
    points.sort(key=sort_key(kind, modulus))
    seq = [pt.y % m for pt in points]
    return SBox(_shift(seq, k), m, _provenance(p, b_target, kind, "explicit", m, k))


def sprn(curve: MordellCurve, kind: Ordering, y_set: Iterable[int], m: int, k: int) -> SprnSequence:
    """Pseudo-random sequence: the y-set in curve order, reduced mod m.

    The output has length |A|; entry i is the ((i+k) mod |A|)-th element of
    the ordered set, reduced mod m.
    """
    ys = sorted(set(y_set))
    if not ys:
        raise EmptySet("input set A is empty")
    if not 1 <= m <= len(ys):
        raise BadModulus(f"m = {m} must lie in [1, |A|] = [1, {len(ys)}]")
    if not 0 <= k < m:
        raise BadShift(f"shift k = {k} must lie in [0, m-1]")
    ordered = rank_of_y(kind, curve, ys)
    n = len(ordered)
    values = tuple(ordered[(i + k) % n] % m for i in range(n))
    prov = (("p", curve.p), ("b", curve.b), ("ordering", kind.value),
            ("A_size", n), ("m", m), ("k", k))
    return SprnSequence(values, m, prov)


def count_sboxes(modulus: PrimeModulus | int, m: int) -> tuple[int, int]:
    """Number of (m, p)-complete S-boxes a fixed ordered curve can emit.

    Writing p = mq + r, there are q+1 choices for each of the r residue
    classes [0, r-1] and q for the rest, so per fixed shift there are
    (q+1)^r * q^(m-r) complete sets; the total additionally ranges over the
    m shifts.
    """
    p = modulus.p if isinstance(modulus, PrimeModulus) else modulus
    if not 1 <= m <= p:
        raise BadModulus(f"m = {m} must lie in [1, p]")
    q, r = divmod(p, m)
    per_k = (q + 1) ** r * q ** (m - r)
    return per_k, m * per_k


DEFAULT_MAX_PSTAR_P = 2000


def _natural_permutations(modulus: PrimeModulus, kind: Ordering) -> list[list[int]]:
    """Full y-permutation of every curve over p, in curve order."""
    perms = []
    for b in range(1, modulus.p):
        curve = MordellCurve(modulus, b)
        perms.append(rank_of_y(kind, curve, range(modulus.p)))
    return perms


def pstar(modulus: PrimeModulus, kind: Ordering, max_p: int = DEFAULT_MAX_PSTAR_P) -> int:
    """Largest m at which two distinct curves still emit the same natural S-box.

    Uses k = 0 and Y = [0, m-1].  Returns 0 if all curves differ already at
    m = 1.  Exhaustive over all p-1 curves, hence guarded by ``max_p``.

    A collision at m filters down to every m' < m (the m'-sequence is a
    subsequence filter of the m-sequence), so the collision predicate is
    monotone and the largest colliding m can be found by bisection.
    """
    p = modulus.p
    if p > max_p:
        raise TooLarge(f"p = {p} exceeds the exhaustive guard {max_p}")
    perms = _natural_permutations(modulus, kind)

    def has_collision(m: int) -> bool:
        seen = set()
        for perm in perms:
            key = tuple(y for y in perm if y < m)
            if key in seen:
                return True
            seen.add(key)
        return False

    best, lo, hi = 0, 1, p - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if has_collision(mid):
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    return best


@dataclass
class FamilyResult:
    """Batch generation outcome: S-boxes ordered by parameter, errors collected."""

    sboxes: list[SBox]
    errors: list[tuple[object, Exception]]


def enumerate_family(modulus: PrimeModulus, kind: Ordering, complete_set: CompleteSet, k: int,
                     b_values: Optional[Iterable[int]] = None,
                     curve_class: Optional[CurveClass] = None,
                     t_values: Optional[Iterable[int]] = None) -> FamilyResult:
    """One S-box per curve parameter.

    With ``b_values`` each curve is built directly; with ``curve_class`` and
    ``t_values`` the S-boxes are built on the class representative via the
    isomorphism path.  Per-item failures are collected, not raised.
    """
    result = FamilyResult([], [])
    if b_values is not None:
        for b in b_values:
            try:
                result.sboxes.append(sbox_direct(MordellCurve(modulus, b), kind, complete_set, k))
            except Exception as exc:  # noqa: BLE001 - per-item error collection
                result.errors.append((b, exc))
    elif curve_class is not None and t_values is not None:
        rep = MordellCurve(modulus, representative(modulus, curve_class))
        for t in t_values:
            try:
                result.sboxes.append(
                    sbox_iso(rep, modulus.inverse(t % modulus.p), kind, complete_set, k))
            except Exception as exc:  # noqa: BLE001
                result.errors.append((t, exc))
    else:
        raise ValueError("provide either b_values or (curve_class and t_values)")
    return result
