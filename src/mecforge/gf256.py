"""Univariate polynomial interpolation over GF(2^8).

The field is fixed at the reduction polynomial 0x11B, the one under which
the AES S-box has the classic 9-term algebraic expression.  Its log/antilog
tables are built once, at import.
"""

_POLY = 0x11B


def _tables() -> tuple[list[int], list[int]]:
    """(log, exp) tables over the generator 3 = x + 1 of the multiplicative group."""
    log, exp = [0] * 256, []
    x = 1
    for i in range(255):
        log[x] = i
        exp.append(x)
        x ^= (x << 1) ^ (_POLY if x & 0x80 else 0)  # x * 3 = x * 2 + x
    return log, exp


_LOG, _EXP = _tables()


def interpolate(values: list[int]) -> list[int]:
    """Coefficients of the unique polynomial with P(i) = values[i] for all i in [0, 255].

    Closed form over GF(q), q = 256 (Lidl & Niederreiter, Finite Fields,
    ch. 7): c_0 = f(0), c_d = sum over x != 0 of f(x) * x^-d for
    1 <= d <= 254, and c_255 = sum over all x of f(x).
    """
    if len(values) != 256:
        raise ValueError("interpolation is defined on all 256 field points")
    # cycle[e] = g^(e mod 255) for every e < 255^2.  For each x != 0 the
    # terms f(x) * x^-d = g^(log f(x) + d * (255 - log x)), d = 1..254, are
    # then one strided slice of it; summing them over x is XOR of the slices
    # read as 254-byte integers, whose byte d - 1 is c_d.
    cycle = bytes(_EXP) * 255
    middle = 0
    total = values[0]
    for x in range(1, 256):
        y = values[x]
        if y:
            total ^= y
            step = 255 - _LOG[x]
            start = _LOG[y] + step
            middle ^= int.from_bytes(cycle[start:start + 254 * step:step], "little")
    return [values[0], *middle.to_bytes(254, "little"), total]
