"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately brute force and shares no code with the
package internals beyond the public data types `SBox` and `Ordering`.
Nothing here imports `mecforge.field`, `mecforge.mec` or `mecforge.gf256`:
field and curve arithmetic is done on plain integers, and GF(2^8) has its
own shift-and-add multiply here, with no log/antilog tables.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from statistics import correlation
from typing import Optional

from mecforge.generator import SBox
from mecforge.ordering import Ordering

GF256_POLY = 0x11B


def brute_force_points(p: int, b: int) -> list[tuple[int, int]]:
    """All affine (x, y) with y^2 = x^3 + b (mod p), by full scan."""
    return [(x, y) for x in range(p) for y in range(p)
            if (y * y - x * x * x - b) % p == 0]


def brute_force_cube_roots(p: int) -> dict[int, int]:
    """a -> x with x^3 = a (mod p), by cubing every x in [0, p-1]; it has p
    entries exactly when cubing is a bijection."""
    return {x * x * x % p: x for x in range(p)}


def trial_division_prime(n: int) -> bool:
    """n is prime: no d in [2, sqrt(n)] divides it."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def brute_force_squares(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


def ordering_key(kind: Ordering, p: int):
    if kind is Ordering.NATURAL:
        return lambda pt: (pt[0], pt[1])
    if kind is Ordering.DIFFUSION:
        return lambda pt: (pt[0] + pt[1], pt[0])
    return lambda pt: ((pt[0] + pt[1]) % p, pt[0])


def _sbox_from_points(points: list[tuple[int, int]], p: int, kind: Ordering, k: int) -> SBox:
    points = sorted(points, key=ordering_key(kind, p))
    m = len(points)
    seq = [y % m for _, y in points]
    return SBox(tuple(seq[(i + k) % m] for i in range(m)), m)


def trial_point(p: int, b: int, y: int) -> tuple[int, int]:
    """The point (x, y) of E_{p, b}, x found by trying every x in [0, p-1]
    until the curve equation holds; no cube roots."""
    target = (y * y - b) % p
    for x in range(p):
        if (x * x % p) * x % p == target:
            return (x, y)
    raise AssertionError(f"no x found for y={y}")


def sbox_trial_loop(p: int, b: int, kind: Ordering, elements, k: int) -> SBox:
    """S-box built exactly as the O(mp) construction prescribes: each seed
    y's x-partner is found by trial."""
    return _sbox_from_points([trial_point(p, b, y) for y in elements], p, kind, k)


def iso_map_point(point: tuple[int, int], t: int, p: int) -> tuple[int, int]:
    """Image (t^2 x, t^3 y) of a point of E_{p, b} on E_{p, t^6 b}."""
    if t % p == 0:
        raise ValueError("isomorphism parameter t must be non-zero")
    x, y = point
    return (t * t * x % p, t * t * t * y % p)


def iso_param(b1: int, b2: int, p: int) -> Optional[int]:
    """The t in [1, (p-1)/2] with t^6 b1 = b2 (mod p), by trying each t;
    None when E_{p, b1} and E_{p, b2} lie in different classes."""
    for t in range(1, (p - 1) // 2 + 1):
        if pow(t, 6, p) * b1 % p == b2:
            return t
    return None


def rep_and_param(p: int, reps, b: int) -> tuple[int, int]:
    """The representative among `reps` whose curve is isomorphic to E_{p, b},
    with the t that carries it there, by trying each t."""
    for rep in reps:
        t = iso_param(rep, b, p)
        if t is not None:
            return rep, t
    raise AssertionError(f"no representative in {reps} reaches b = {b} mod {p}")


def sbox_transport(p: int, b_rep: int, t: int, kind: Ordering, elements, k: int) -> SBox:
    """S-box on E_{p, t^6 b_rep}, built on the representative E_{p, b_rep}.

    Each seed y is pulled back to y' = t^-3 y, its partner x' is looked up
    on the representative curve in a table of all cubes, and the point is
    pushed forward to (t^2 x', y); the target curve is never searched.
    """
    cube_root = brute_force_cube_roots(p)
    t_inv3 = pow(t, -3, p)
    points = []
    for y in elements:
        y_rep = t_inv3 * y % p
        points.append((t * t * cube_root[(y_rep * y_rep - b_rep) % p] % p, y))
    return _sbox_from_points(points, p, kind, k)


def sprn_trial_loop(p: int, b: int, kind: Ordering, y_set, m: int, k: int) -> list[int]:
    points = sorted((trial_point(p, b, y) for y in set(y_set)), key=ordering_key(kind, p))
    n = len(points)
    return [points[(i + k) % n][1] % m for i in range(n)]


def pstar_direct(p: int, kind: Ordering) -> int:
    """Largest m in [1, p-1] at which two curves E_{p, b} emit the same
    natural S-box, 0 if there is none.

    Each curve's points are found by trial and sorted whole; every m is
    tested, with no assumption that collisions are monotone in m.
    """
    key = ordering_key(kind, p)
    perms = [[y for _, y in sorted((trial_point(p, b, y) for y in range(p)), key=key)]
             for b in range(1, p)]
    best = 0
    for m in range(1, p):
        filtered = [tuple(y for y in perm if y < m) for perm in perms]
        if len(set(filtered)) < len(filtered):
            best = m
    return best


def natural_tables(p: int, kind: Ordering, m: int) -> list[tuple[int, ...]]:
    """Every curve E_{p, b}'s table at k = 0 over Y = [0, m-1], b = 1..p-1:
    each y's partner x read from a table of all cubes, and the m points
    sorted whole."""
    cube_root = brute_force_cube_roots(p)
    key = ordering_key(kind, p)
    return [tuple(y for _, y in sorted(((cube_root[(y * y - b) % p], y) for y in range(m)), key=key))
            for b in range(1, p)]


def pairwise_correlation(tables) -> tuple[float, float, float]:
    """Least, greatest and average Pearson correlation of the tables, one
    `statistics.correlation` per pair, with no use of their being permutations."""
    ccs = [correlation(s, t) for s, t in combinations(tables, 2)]
    return min(ccs), max(ccs), sum(ccs) / len(ccs)


def count_complete_sets_exhaustive(p: int, m: int) -> int:
    """Enumerate every (m, p)-complete set explicitly and count them."""
    classes = [[v for v in range(p) if v % m == r] for r in range(m)]
    count = 0
    for candidate in product(*classes):
        assert len({v % m for v in candidate}) == m
        count += 1
    return count


def fixed_points_direct(table) -> int:
    """How many i have table[i] == i, counted one index at a time."""
    count = 0
    for i in range(len(table)):
        if table[i] == i:
            count += 1
    return count


def nonlinearity_direct(sbox: SBox) -> int:
    """Definitional nonlinearity: exhaustive distance to every affine function."""
    n = (sbox.m - 1).bit_length()
    size = sbox.m
    best = size
    for a in range(1, size):
        comp = [bin(a & v).count("1") & 1 for v in sbox.table]
        for beta in range(size):
            lin = [bin(beta & x).count("1") & 1 for x in range(size)]
            d = sum(c ^ l for c, l in zip(comp, lin))
            best = min(best, d, size - d)
    return best


def max_abs_walsh(sbox: SBox) -> int:
    """max over non-zero output masks a and all input masks b of |W(a, b)|,
    by a fast Walsh-Hadamard transform of each +-1 component function."""
    size = sbox.m
    best = 0
    for a in range(1, size):
        w = [1 if bin(a & v).count("1") % 2 == 0 else -1 for v in sbox.table]
        h = 1
        while h < size:
            for i in range(0, size, h * 2):
                for j in range(i, i + h):
                    u, v = w[j], w[j + h]
                    w[j], w[j + h] = u + v, u - v
            h *= 2
        best = max(best, max(abs(x) for x in w))
    return best


def _bit(value: int, i: int) -> int:
    return (value >> i) & 1


def sac_matrix_direct(sbox: SBox) -> list[list[Fraction]]:
    """entry[i][j]: share of inputs x for which flipping bit j flips output bit i."""
    n = (sbox.m - 1).bit_length()
    size, table = sbox.m, sbox.table
    return [[Fraction(sum(_bit(table[x ^ (1 << j)] ^ table[x], i) for x in range(size)), size)
             for j in range(n)] for i in range(n)]


def bic_matrix_direct(sbox: SBox) -> list[list[Optional[Fraction]]]:
    """entry[i][r]: share of (x, j) for which flipping input bit j flips
    exactly one of output bits i and r; diagonal entries are None."""
    n = (sbox.m - 1).bit_length()
    size, table = sbox.m, sbox.table
    matrix: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for r in range(i + 1, n):
            total = 0
            for j in range(n):
                for x in range(size):
                    d = table[x ^ (1 << j)] ^ table[x]
                    total += _bit(d, i) ^ _bit(d, r)
            matrix[i][r] = matrix[r][i] = Fraction(total, n * size)
    return matrix


@cache  # a Lagrange table takes about 200k products, of only 65536 distinct ones
def gf_mul(a: int, b: int) -> int:
    """Product in GF(2^8) modulo 0x11B, by shift-and-add."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= GF256_POLY
        b >>= 1
    return r


def gf_inv(a: int) -> int:
    """The b with a * b = 1 in GF(2^8), by trying every b."""
    for b in range(1, 256):
        if gf_mul(a, b) == 1:
            return b
    raise ZeroDivisionError("0 has no inverse in GF(2^8)")


def poly_eval(coeffs: list[int], x: int) -> int:
    """Horner evaluation over GF(2^8); coeffs[i] is the coefficient of x^i."""
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, x) ^ c
    return acc


def interpolate_lagrange(values: list[int]) -> list[int]:
    """Coefficients of the polynomial through all 256 points, in Lagrange form.

    The master product M(x) = prod(x - x_j) over all of GF(2^8) is
    x^256 + x; each basis numerator is M(x) / (x - x_i) by synthetic
    division, and the denominator is its value at x_i.
    """
    coeffs = [0] * 256
    master = [0] * 257
    master[256] = 1
    master[1] = 1
    for xi, yi in enumerate(values):
        if yi == 0:
            continue
        q = [0] * 256
        carry = master[256]
        for d in range(255, -1, -1):
            q[d] = carry
            carry = master[d] ^ gf_mul(carry, xi)
        scale = gf_mul(yi, gf_inv(poly_eval(q, xi)))
        for d in range(256):
            if q[d]:
                coeffs[d] ^= gf_mul(scale, q[d])
    return coeffs


def period_direct(values) -> int:
    """Least h >= 1 with values[i + h] == values[i] wherever both are defined,
    by trying every h in turn."""
    n = len(values)
    for h in range(1, n):
        if all(values[i + h] == values[i] for i in range(n - h)):
            return h
    return n
