"""Independent arithmetic the benchmark checks mecforge's outputs against,
the helpers that draw its inputs, and the speed probe that scales its times.

Nothing here imports mecforge.  Orders are named by their CLI spelling
("natural", "diffusion", "modulo"); curve points are plain (x, y) tuples.
"""

import math
from collections import Counter

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
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
    return True


def admissible_primes(lo: int, hi: int) -> list[int]:
    """Primes p in [lo, hi] with p = 2 (mod 3)."""
    return [p for p in range(lo, hi + 1) if p % 3 == 2 and is_prime(p)]


def random_complete_set(rng, m: int, p: int) -> list[int]:
    """A uniformly drawn (m, p)-complete set, residue class r at position r."""
    q, r = divmod(p, m)
    return [rng.randrange(q + 1 if res < r else q) * m + res for res in range(m)]


def smallest_qnr(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)


def _key(kind: str, p: int):
    if kind == "natural":
        return lambda pt: pt
    if kind == "diffusion":
        return lambda pt: (pt[0] + pt[1], pt[0])
    if kind == "modulo":
        return lambda pt: ((pt[0] + pt[1]) % p, pt[0])
    raise ValueError(f"unknown ordering {kind!r}")


def ordered_ys(p: int, b: int, kind: str, ys) -> list[int]:
    """ys sorted by the position of their curve points on y^2 = x^3 + b.

    Each x is its own cube root by exponentiation and is checked against
    the curve equation before it is used.
    """
    e = (2 * p - 1) // 3
    points = []
    for y in ys:
        x = pow((y * y - b) % p, e, p)
        if (x * x * x + b - y * y) % p:
            raise ArithmeticError(f"({x}, {y}) is not on y^2 = x^3 + {b} mod {p}")
        points.append((x, y))
    points.sort(key=_key(kind, p))
    return [y for _, y in points]


def shifted_mod(ordered: list[int], m: int, k: int) -> list[int]:
    n = len(ordered)
    return [ordered[(i + k) % n] % m for i in range(n)]


def sbox_table(p: int, b: int, kind: str, elements, k: int) -> list[int]:
    return shifted_mod(ordered_ys(p, b, kind, elements), len(elements), k)


def pstar_holds(p: int, value: int) -> bool:
    """True iff, in natural order, two curves share the S-box on [0, value - 1]
    and no two curves share the one on [0, value].

    The S-box on [0, m - 1] depends only on the points with y < m, so each
    side costs m cube roots per curve.
    """
    def collides(m: int) -> bool:
        seen = set()
        for b in range(1, p):
            key = tuple(ordered_ys(p, b, "natural", range(m)))
            if key in seen:
                return True
            seen.add(key)
        return False

    if value >= 1 and not collides(value):
        return False
    return value + 1 > p - 1 or not collides(value + 1)


def period(values) -> int:
    """Least period by the Knuth-Morris-Pratt prefix function: n - pi[n-1]."""
    n = len(values)
    pi = [0] * n
    j = 0
    for i in range(1, n):
        while j and values[i] != values[j]:
            j = pi[j - 1]
        if values[i] == values[j]:
            j += 1
        pi[i] = j
    return n - pi[-1]


def entropy(values) -> float:
    n = len(values)
    return -sum(f / n * math.log2(f / n) for f in Counter(values).values())


def decode_hex_rows(text: str) -> list[int]:
    """Entries of a two-digit-per-entry hex S-box, rows concatenated."""
    digits = "".join(text.split())
    return [int(digits[i:i + 2], 16) for i in range(0, len(digits), 2)]


def is_permutation(table) -> bool:
    return sorted(table) == list(range(len(table)))


_PROBE_TABLE = [(v * 167 + 13) % 256 for v in range(256)]


def speed_probe() -> None:
    """A fixed piece of pure-Python work, timed to gauge the machine's speed.

    It mixes what mecforge's layers do: list arithmetic in a Walsh-Hadamard
    transform, modular exponentiation and a sort, and a scan for a period.
    """
    for a in range(1, 16):
        w = [1 if bin(a & v).count("1") % 2 == 0 else -1 for v in _PROBE_TABLE]
        h = 1
        while h < 256:
            for i in range(0, 256, 2 * h):
                for j in range(i, i + h):
                    u, v = w[j], w[j + h]
                    w[j], w[j + h] = u + v, u - v
            h *= 2
    ordered_ys(52511, 5, "diffusion", range(1500))
    period([y % 7 for y in range(2000)])
