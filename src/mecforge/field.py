"""Arithmetic over the prime field F_p.

Primality, inverses and quadratic-residue testing.  A `PrimeModulus` is a
prime p = 2 (mod 3), the only moduli the curves accept: it refuses any
other p when it is made.  All values are canonical residues in [0, p-1];
all operations are pure.  Cube roots, which exist uniquely exactly when
p = 2 (mod 3), are taken in `mec.points`.
"""

import math

from .errors import MecforgeError
from .record import Record

# Deterministic Miller-Rabin witness set, valid for every n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a witness set that is deterministic below 2^64.
    Above 2^64 some composites pass all 12 bases, so a strong Lucas test
    follows them there: with base 2 among them, that is the Baillie-PSW
    test, which no composite is known to pass."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 1 << 64 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """The strong Lucas test of odd n > 2^64 with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd, a prime n has U_d = 0 or
    V_{d 2^r} = 0 (mod n) for some 0 <= r < s."""
    if math.isqrt(n) ** 2 == n:  # a square has no such D
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -2 - D if D > 0 else 2 - D
    if j == 0:  # n > |D| shares a factor with D
        return False
    Q, half = (1 - D) // 4, (n + 1) // 2
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    u, v, qk = 1, 1, Q % n  # U_1, V_1 and Q^1; the index runs over d's bits
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # index doubled
        if bit == "1":  # index + 1
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


class PrimeModulus(Record):
    """A prime p = 2 (mod 3): a modulus over which the Mordell curve
    y^2 = x^3 + b carries every residue exactly once as a y-coordinate.
    Every instance is checked, so nothing that takes one checks p again."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise MecforgeError(f"{p} is not an odd prime")
        if p % 3 != 2:
            raise MecforgeError(f"p = {p} is not admissible (need p = 2 mod 3, p > 3)")
        super().__init__(p)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise MecforgeError(f"{a} is not a canonical residue mod {self.p}")
        return a

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a, a != 0."""
        if self._check(a) == 0:
            raise MecforgeError(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def is_quadratic_residue(self, a: int) -> bool:
        """Euler criterion: a is a QR iff a^((p-1)/2) = 1 (mod p)."""
        if self._check(a) == 0:
            raise MecforgeError("0 is neither a QR nor a QNR")
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def smallest_qnr(self) -> int:
        """Smallest quadratic non-residue in [2, p-1]."""
        for a in range(2, self.p):
            if not self.is_quadratic_residue(a):
                return a
        raise AssertionError("unreachable: every odd prime has a QNR")
