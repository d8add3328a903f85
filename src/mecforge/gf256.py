"""GF(2^8) arithmetic and univariate polynomial interpolation.

Multiplication uses log/antilog tables built for the chosen reduction
polynomial (default 0x11B, the one under which the AES S-box has the
classic 9-term algebraic expression).
"""

from functools import lru_cache

DEFAULT_POLY = 0x11B


def _raw_mul(a: int, b: int, poly: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= poly
        b >>= 1
    return r


@lru_cache(maxsize=None)
def _tables(poly: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(log, exp) tables over a generator of the multiplicative group."""
    for g in range(2, 256):
        exp = [1]
        x = 1
        for _ in range(254):
            x = _raw_mul(x, g, poly)
            exp.append(x)
        if len(set(exp)) == 255:
            log = [0] * 256
            for i, v in enumerate(exp):
                log[v] = i
            return tuple(log), tuple(exp)
    raise ValueError(f"0x{poly:X} is not a valid GF(2^8) reduction polynomial")


def mul(a: int, b: int, poly: int = DEFAULT_POLY) -> int:
    if a == 0 or b == 0:
        return 0
    log, exp = _tables(poly)
    return exp[(log[a] + log[b]) % 255]


def inv(a: int, poly: int = DEFAULT_POLY) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    log, exp = _tables(poly)
    return exp[(255 - log[a]) % 255]


def gf_pow(a: int, e: int, poly: int = DEFAULT_POLY) -> int:
    if a == 0:
        return 0 if e else 1
    log, exp = _tables(poly)
    return exp[log[a] * e % 255]


def interpolate(values: list[int], poly: int = DEFAULT_POLY) -> list[int]:
    """Coefficients of the unique polynomial with P(i) = values[i] for all i in [0, 255].

    Closed form over GF(q), q = 256 (Lidl & Niederreiter, Finite Fields,
    ch. 7): c_0 = f(0), c_d = sum over x != 0 of f(x) * x^-d for
    1 <= d <= 254, and c_255 = sum over all x of f(x).
    """
    if len(values) != 256:
        raise ValueError("interpolation is defined on all 256 field points")
    log, exp = _tables(poly)
    # cycle[e] = g^(e mod 255) for every e < 255^2.  For each x != 0 the
    # terms f(x) * x^-d = g^(log f(x) + d * (255 - log x)), d = 1..254, are
    # then one strided slice of it; summing them over x is XOR of the slices
    # read as 254-byte integers, whose byte d - 1 is c_d.
    cycle = bytes(exp) * 255
    middle = 0
    total = values[0]
    for x in range(1, 256):
        y = values[x]
        if y:
            total ^= y
            step = 255 - log[x]
            start = log[y] + step
            middle ^= int.from_bytes(cycle[start:start + 254 * step:step], "little")
    return [values[0], *middle.to_bytes(254, "little"), total]
