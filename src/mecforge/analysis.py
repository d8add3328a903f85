"""Cryptographic quality metrics for S-boxes and randomness tests for sequences.

`analyze_sbox` reports the S-box metrics together: nonlinearity, linear and
differential approximation probability, algebraic complexity and the ranges
of the avalanche and bit-independence matrices.  They require the table size
to be a power of two; probabilities are exact fractions.
Sequence tests (histogram, entropy, period) apply to any finite sequence.
"""

import json
import math
import operator
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

from . import gf256
from .errors import MecforgeError, NotPowerOfTwo, TooLarge
from .generator import SBox, SprnSequence
from .record import Record

# analyze_sbox refuses more than 2^12 entries: its time grows about 5x per
# input bit, to 14 s at 2^12 (CPython 3.11, one core of a shared 2-vCPU host).
MAX_ANALYZE_BITS = 12


def _nbits(sbox: SBox) -> int:
    n = (sbox.m - 1).bit_length()
    if sbox.m < 2 or sbox.m != 1 << n:
        raise NotPowerOfTwo(f"S-box size {sbox.m} is not a power of two")
    return n


# The S-box metrics work on bit-sliced truth tables: a Boolean function on
# n input bits is one 2^n-bit int whose bit x is its value at x, so XOR and
# popcount act on all 2^n inputs at once.

def _bit_planes(values: Sequence[int], n: int) -> list[int]:
    """planes[i] has bit x set iff bit i of values[x] is set."""
    rows = [format(v, f"0{n}b") for v in reversed(values)]
    return [int("".join(column), 2) for column in reversed(list(zip(*rows)))]


def _combinations(planes: Sequence[int]) -> list[int]:
    """Entry a is the XOR of planes[j] over the set bits j of a."""
    out = [0]
    for plane in planes:
        out += [t ^ plane for t in out]
    return out


def _walsh_spectrum_row(component: int, linear: Sequence[int], size: int) -> int:
    """max over input masks b of |W(a, b)| = |size - 2 wt(f_a ^ l_b)| for one
    component function f_a, given the truth tables l_b of the linear functions."""
    weights = [(component ^ lin).bit_count() for lin in linear]
    return max(size - 2 * min(weights), 2 * max(weights) - size)


def _max_abs_walsh(outputs: Sequence[int], inputs: Sequence[int]) -> int:
    """max over non-zero output masks a and all input masks b of |W(a, b)|,
    from the bit planes of the S-box and of the identity."""
    size = 1 << len(inputs)
    linear = _combinations(inputs)
    return max(_walsh_spectrum_row(f, linear, size) for f in _combinations(outputs)[1:])


def _derivative_planes(outputs: Sequence[int], inputs: Sequence[int]) -> list[list[int]]:
    """D[j][i]: bit plane i of the derivative S(x ^ e_j) ^ S(x)."""
    full = (1 << (1 << len(inputs))) - 1
    table = []
    for j, high in enumerate(inputs):
        h, low = 1 << j, full ^ high
        table.append([((t & high) >> h | (t & low) << h) ^ t for t in outputs])
    return table


def _sac_range(derivatives: list[list[int]]) -> tuple[Fraction, Fraction]:
    """Least and greatest SAC entry: the share of inputs at which flipping
    input bit j flips output bit i."""
    counts = [plane.bit_count() for row in derivatives for plane in row]
    size = 1 << len(derivatives)
    return Fraction(min(counts), size), Fraction(max(counts), size)


def _bic_range(derivatives: list[list[int]]) -> tuple[Fraction | None, Fraction | None]:
    """Least and greatest BIC entry over the output-bit pairs i < r, or
    (None, None) for a 2-entry S-box, which has no pair."""
    n = len(derivatives)
    totals = [sum((d[i] ^ d[r]).bit_count() for d in derivatives)
              for i in range(n) for r in range(i + 1, n)]
    if not totals:
        return None, None
    return Fraction(min(totals), n << n), Fraction(max(totals), n << n)


def dap(sbox: SBox) -> Fraction:
    """Largest differential propagation probability over non-zero input differences."""
    n = _nbits(sbox)
    size = sbox.m
    table = sbox.table
    best = 0
    for dx in range(1, size):
        counts = [0] * size
        for x in range(size):
            counts[table[x ^ dx] ^ table[x]] += 1
        best = max(best, max(counts))
    return Fraction(best, 1 << n)


def fixed_points(sbox: SBox) -> int:
    return sum(1 for i, v in enumerate(sbox.table) if i == v)


def family_correlation(family: Sequence[SBox]) -> tuple[Fraction, Fraction, Fraction]:
    """Least, greatest and average Pearson correlation over all pairs of the
    family's tables, exactly.

    Every table is a permutation of [0, m-1], so all share the mean
    mu = (m-1)/2 and m sigma^2 = m (m^2-1)/12, and the correlation of s and t
    is (<s, t> - m mu^2) / (m sigma^2): only the dot product is per pair.
    The average takes no pair: the dot products over i < j sum to half of
    |sum of the tables|^2 less the tables' own squared norms.
    """
    tables = [sbox.table for sbox in family]
    n, m = len(tables), len(tables[0]) if tables else 0
    if n < 2 or m < 2 or any(len(t) != m for t in tables):
        raise MecforgeError("correlation needs at least two S-boxes of one size m >= 2")
    lo, hi = math.inf, -math.inf
    for i, s in enumerate(tables[:-1]):
        dots = [sum(map(operator.mul, s, t)) for t in tables[i + 1:]]
        lo, hi = min(lo, min(dots)), max(hi, max(dots))
    pairs = n * (n - 1) // 2
    norm = (m - 1) * m * (2 * m - 1) // 6
    pair_sum = (sum(c * c for c in map(sum, zip(*tables))) - n * norm) // 2

    def r(dot) -> Fraction:
        return (dot - Fraction(m * (m - 1) ** 2, 4)) / Fraction(m * (m * m - 1), 12)
    return r(lo), r(hi), r(Fraction(pair_sum, pairs))


def distinct_count(family: Sequence[SBox]) -> int:
    return len({sbox.table for sbox in family})


class AnalysisReport(Record):
    __slots__ = ("nl", "lap", "dap", "ac", "sac_min", "sac_max", "bic_min", "bic_max",
                 "fixed_points")

    def __init__(self, nl: int, lap: Fraction, dap: Fraction, ac: int | None,
                 sac_min: Fraction, sac_max: Fraction, bic_min: Fraction | None,
                 bic_max: Fraction | None, fixed_points: int):
        super().__init__(nl, lap, dap, ac, sac_min, sac_max, bic_min, bic_max, fixed_points)

    def to_json(self, indent: int | None = None) -> str:
        def frac(f: Fraction) -> dict:
            return {"num": f.numerator, "den": f.denominator, "approx": round(float(f), 4)}

        payload = {
            "nl": self.nl,
            "lap": frac(self.lap),
            "dap": frac(self.dap),
            "ac": self.ac if self.ac is not None else "n/a",
            "sac": {"min": frac(self.sac_min), "max": frac(self.sac_max)},
            "bic": ({"min": frac(self.bic_min), "max": frac(self.bic_max)}
                    if self.bic_min is not None else "n/a"),
            "fixed_points": self.fixed_points,
        }
        return json.dumps(payload, indent=indent)


def analyze_sbox(sbox: SBox) -> AnalysisReport:
    """Full metric battery; AC is reported as None for sizes other than 256,
    and the BIC range as None for 2-entry S-boxes, which have one output bit.
    An S-box of more than 2**MAX_ANALYZE_BITS entries is refused as TooLarge.

    The bit planes, the Walsh spectrum's maximum and the derivative table are
    each built once and shared by the metrics that read them.
    """
    n = _nbits(sbox)
    if n > MAX_ANALYZE_BITS:
        raise TooLarge(f"S-box size {sbox.m} too large to analyze "
                       f"(at most {1 << MAX_ANALYZE_BITS})")
    outputs, inputs = _bit_planes(sbox.table, n), _bit_planes(range(sbox.m), n)
    walsh = _max_abs_walsh(outputs, inputs)
    derivatives = _derivative_planes(outputs, inputs)
    sac_lo, sac_hi = _sac_range(derivatives)
    bic_lo, bic_hi = _bic_range(derivatives)
    return AnalysisReport(
        nl=(1 << (n - 1)) - walsh // 2,
        lap=Fraction(walsh, 1 << (n + 1)),
        dap=dap(sbox),
        ac=sum(1 for c in gf256.interpolate(sbox.table) if c) if sbox.m == 256 else None,
        sac_min=sac_lo,
        sac_max=sac_hi,
        bic_min=bic_lo,
        bic_max=bic_hi,
        fixed_points=fixed_points(sbox),
    )


class Histogram(Record):
    __slots__ = ("frequencies", "length")  # dict[int, int], int


def histogram(seq: SprnSequence | Sequence[int]) -> Histogram:
    values = seq.values if isinstance(seq, SprnSequence) else tuple(seq)
    return Histogram(dict(Counter(values)), len(values))


def entropy(seq: SprnSequence | Sequence[int]) -> float:
    """Shannon entropy in bits over the observed symbols."""
    values = seq.values if isinstance(seq, SprnSequence) else tuple(seq)
    if not values:
        raise MecforgeError("entropy of an empty sequence")
    n = len(values)
    return 0.0 - sum(f / n * math.log2(f / n) for f in Counter(values).values())  # +0.0, not -0.0


def period(seq: SprnSequence | Sequence[int]) -> int:
    """Least h >= 1 with values[i + h] == values[i] wherever both are defined."""
    values = seq.values if isinstance(seq, SprnSequence) else tuple(seq)
    if not values:
        raise MecforgeError("period of an empty sequence")
    # Knuth-Morris-Pratt prefix function: border[i] is the length of the
    # longest proper prefix of values[:i + 1] that is also its suffix.  The
    # least period of the whole window is its length minus its longest border.
    border = [0] * len(values)
    k = 0
    for i in range(1, len(values)):
        v = values[i]
        while k and values[k] != v:
            k = border[k - 1]
        if values[k] == v:
            k += 1
        border[i] = k
    return len(values) - border[-1]
