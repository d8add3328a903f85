import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mecforge.analysis import (
    AnalysisReport,
    analyze_sbox,
    dap,
    distinct_count,
    entropy,
    family_correlation,
    fixed_points,
    histogram,
    period,
)
from mecforge.errors import MecforgeError, NotPowerOfTwo
from mecforge.field import PrimeModulus
from mecforge.generator import SBox, sprn
from mecforge.gf256 import interpolate
from mecforge.mec import MordellCurve
from mecforge.ordering import Ordering

from oracles import (
    bic_matrix_direct,
    fixed_points_direct,
    interpolate_lagrange,
    max_abs_walsh,
    nonlinearity_direct,
    pairwise_correlation,
    period_direct,
    sac_matrix_direct,
)


def permutation_sboxes(n):
    size = 1 << n
    return st.permutations(range(size)).map(lambda t: SBox(tuple(t), size))


def sboxes_up_to_8_bits():
    return st.integers(1, 8).flatmap(permutation_sboxes)


def identity_sbox(n):
    return SBox(tuple(range(1 << n)), 1 << n)


def span(matrix):
    """Least and greatest entry of an oracle matrix, skipping None; (None,
    None) when there is none, as for the BIC of a 2-entry S-box."""
    entries = [e for row in matrix for e in row if e is not None]
    return (min(entries), max(entries)) if entries else (None, None)


# --- S-box metrics -----------------------------------------------------------

def test_size_must_be_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        dap(SBox((1, 2, 0), 3))


@pytest.mark.parametrize("table", [(0,), (1, 2, 0)], ids=["m=1", "m=3"])
def test_analyze_sbox_of_other_sizes_reports_fixed_points_only(table):
    """Below 2 or off the powers of two only the fixed points apply; the JSON
    is byte for byte the report `analyze` prints for such an S-box."""
    report = analyze_sbox(SBox(table, len(table)))
    fixed = fixed_points_direct(table)
    assert report == AnalysisReport(*(None,) * 8, fixed)
    assert report.to_json(indent=2) == json.dumps({
        "nl": "n/a", "lap": "n/a", "dap": "n/a", "ac": "n/a", "sac": "n/a", "bic": "n/a",
        "fixed_points": fixed}, indent=2)


def test_identity_metrics():
    s = identity_sbox(3)
    report = analyze_sbox(s)
    assert report.nl == 0
    assert report.lap == Fraction(1, 2)
    assert report.dap == 1
    assert report.fixed_points == 8
    # output bit i flips exactly when input bit i does
    assert (report.sac_min, report.sac_max) == (0, 1)


def test_affine_sbox_metrics():
    # x -> x ^ 5 is affine over GF(2)^3
    report = analyze_sbox(SBox(tuple(x ^ 5 for x in range(8)), 8))
    assert report.nl == 0
    assert report.dap == 1
    assert report.fixed_points == 0


@given(permutation_sboxes(3))
@settings(max_examples=30, deadline=None)
def test_nonlinearity_matches_definition_n3(sbox):
    assert analyze_sbox(sbox).nl == nonlinearity_direct(sbox)


@given(permutation_sboxes(4))
@settings(max_examples=10, deadline=None)
def test_nonlinearity_matches_definition_n4(sbox):
    assert analyze_sbox(sbox).nl == nonlinearity_direct(sbox)


@given(sboxes_up_to_8_bits())
@settings(max_examples=20, deadline=None)
def test_nonlinearity_and_lap_match_walsh_oracle(sbox):
    n = (sbox.m - 1).bit_length()
    walsh = max_abs_walsh(sbox)
    report = analyze_sbox(sbox)
    assert report.nl == (1 << (n - 1)) - walsh // 2
    assert report.lap == Fraction(walsh, 1 << (n + 1))


@given(sboxes_up_to_8_bits())
@settings(max_examples=20, deadline=None)
def test_sac_and_bic_match_direct_oracle(sbox):
    report = analyze_sbox(sbox)
    assert (report.sac_min, report.sac_max) == span(sac_matrix_direct(sbox))
    assert (report.bic_min, report.bic_max) == span(bic_matrix_direct(sbox))


# Shrinking a 256-entry permutation against the slow oracles takes minutes,
# so the 8-bit cases report the first failing table as found.
@given(permutation_sboxes(8))
@settings(max_examples=5, deadline=None, phases=[Phase.generate])
def test_battery_matches_oracles_on_8_bit_permutations(sbox):
    report = analyze_sbox(sbox)
    walsh = max_abs_walsh(sbox)
    coeffs = interpolate_lagrange(list(sbox.table))
    assert interpolate(list(sbox.table)) == coeffs
    assert report.ac == sum(1 for c in coeffs if c)
    assert report.nl == 128 - walsh // 2 and report.lap == Fraction(walsh, 512)
    assert (report.sac_min, report.sac_max) == span(sac_matrix_direct(sbox))
    assert (report.bic_min, report.bic_max) == span(bic_matrix_direct(sbox))


@given(permutation_sboxes(4))
@settings(max_examples=15, deadline=None)
def test_metric_invariants(sbox):
    report = analyze_sbox(sbox)
    nl = report.nl
    assert 0 <= nl <= 6  # optimal for n=4 is 4; 2^{n-1} - 2^{n/2 - 1} bound applies to bent-like
    assert nl == 8 - report.lap * 32 / 2
    assert Fraction(1, 8) <= report.dap <= 1
    assert report.dap == dap(sbox)
    assert 0 <= report.sac_min <= report.sac_max <= 1
    assert 0 <= report.bic_min <= report.bic_max <= 1


@given(st.integers(1, 300).flatmap(lambda m: st.permutations(range(m))))
@example([0])
@example([0, 1])
@example([1, 0])
@settings(max_examples=100)
def test_fixed_points_matches_direct_count(table):
    assert fixed_points(SBox(tuple(table), len(table))) == fixed_points_direct(table)


def test_aes_reference_metrics(aes_sbox_table):
    s = SBox(tuple(aes_sbox_table), 256)
    report = analyze_sbox(s)
    assert report.nl == 112
    assert report.lap == Fraction(1, 16)
    assert report.dap == dap(s) == Fraction(1, 64)
    assert report.ac == 9
    assert report.fixed_points == fixed_points(s) == 0
    assert report.sac_min == Fraction(116, 256) and report.sac_max == Fraction(144, 256)


def test_algebraic_complexity_sizes():
    # AC is defined for 256-entry S-boxes only; the identity is the monomial x
    assert analyze_sbox(identity_sbox(3)).ac is None
    assert analyze_sbox(identity_sbox(8)).ac == 1


def test_bic_matrix_shape_and_symmetry(aes_sbox_table):
    sbox = SBox(tuple(aes_sbox_table), 256)
    report = analyze_sbox(sbox)
    assert report.bic_min == Fraction(123, 256)
    assert (report.bic_min, report.bic_max) == span(bic_matrix_direct(sbox))


def test_correlation():
    a = identity_sbox(3)
    rev = SBox(tuple(7 - x for x in range(8)), 8)
    # pairs (a, a), (a, rev), (a, rev): 1, -1, -1
    assert family_correlation([a, a, rev]) == (-1, 1, Fraction(-1, 3))
    for family in ([a, identity_sbox(4)], [a], [], [SBox((0,), 1)] * 2):
        with pytest.raises(MecforgeError, match="at least two S-boxes of one size m >= 2"):
            family_correlation(family)


@given(st.integers(2, 40).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=2, max_size=12)))
@settings(max_examples=60)
def test_family_correlation_matches_pairwise_pearson(tables):
    family = [SBox(tuple(t), len(t)) for t in tables]
    exact = family_correlation(family)
    assert [float(r) for r in exact] == pytest.approx(pairwise_correlation(tables), abs=1e-12)


def test_distinct_count():
    a = identity_sbox(3)
    b = SBox(tuple(7 - x for x in range(8)), 8)
    assert distinct_count([a, a, b]) == 2
    assert distinct_count([]) == 0


def test_analyze_sbox_report(aes_sbox_table):
    report = analyze_sbox(SBox(tuple(aes_sbox_table), 256))
    assert isinstance(report, AnalysisReport)
    assert report.nl == 112 and report.ac == 9
    payload = report.to_json()
    assert '"nl": 112' in payload and '"approx"' in payload


def test_aes_report_json_is_pinned(aes_sbox_table):
    """The benchmark's `screen` digest hashes these bytes, so they must not drift."""
    payload = analyze_sbox(SBox(tuple(aes_sbox_table), 256)).to_json()
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "a7a50a89f5f549ed44676456519ee31966993d92d70e9ab2b4b3cb6c1bf47317")


def test_analyze_small_sbox_has_no_ac():
    report = analyze_sbox(identity_sbox(4))
    assert report.ac is None
    assert '"ac": "n/a"' in report.to_json()


@pytest.mark.parametrize("table", [(0, 1), (1, 0)])
def test_analyze_two_entry_sbox_has_no_bic(table):
    """One output bit leaves no pair of output bits for BIC to compare."""
    report = analyze_sbox(SBox(table, 2))
    assert report.bic_min is None and report.bic_max is None
    assert report.sac_min == report.sac_max == 1
    assert report.nl == 0 and report.ac is None
    assert '"bic": "n/a"' in report.to_json()


# --- sequence statistics -----------------------------------------------------

def test_histogram_basic():
    h = histogram([0, 1, 1, 2, 2, 2])
    assert h.length == 6
    assert h.frequencies == {0: 1, 1: 2, 2: 3}
    assert histogram([3, 3, 5, 5]).frequencies == {3: 2, 5: 2}


def test_full_curve_sequence_frequencies():
    """With A = [0, p-1] and p = mq + r, residues below r appear q+1 times
    and the rest q times."""
    p, m = 101, 6
    modulus = PrimeModulus(p)
    seq = sprn(MordellCurve(modulus, 35), Ordering.NATURAL, range(p), m, 0)
    h = histogram(seq)
    q, r = divmod(p, m)
    assert h.frequencies == {v: q + 1 if v < r else q for v in range(m)}


def test_uniform_case_entropy():
    p, m = 3917, 3917
    modulus = PrimeModulus(p)
    seq = sprn(MordellCurve(modulus, 301), Ordering.NATURAL, range(p), m, 0)
    assert histogram(seq).frequencies == dict.fromkeys(range(p), 1)
    assert entropy(seq) == pytest.approx(math.log2(p))
    assert period(seq) == p


def test_entropy_bounds_and_examples():
    assert entropy([7] * 10) == 0
    assert math.copysign(1, entropy([5] * 7)) == 1.0  # +0.0, which prints as 0.0
    assert entropy([0, 1, 0, 1]) == 1
    assert entropy(list(range(16))) == 4
    with pytest.raises(MecforgeError, match="entropy of an empty sequence"):
        entropy([])


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
def test_entropy_bounded_by_log_alphabet(values):
    e = entropy(values)
    assert -1e-9 <= e <= math.log2(len(set(values))) + 1e-9


def test_period_examples():
    assert period([1, 2, 3, 1, 2, 3, 1]) == 3
    assert period([5]) == 1
    assert period([1, 2, 3, 4]) == 4
    assert period([0, 0, 0]) == 1
    with pytest.raises(MecforgeError, match="period of an empty sequence"):
        period([])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(1, 4))
def test_period_of_explicit_repetition(block, reps):
    h = period(block)
    assert 1 <= h <= len(block)
    # repeating the block keeps it h'-periodic for some h' <= len(block)
    full = block * reps
    hp = period(full)
    assert hp <= len(block)
    assert all(full[i + hp] == full[i] for i in range(len(full) - hp))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=8), st.integers(1, 40),
       st.lists(st.integers(0, 2), max_size=8))
def test_period_matches_definition(block, length, tail):
    # a truncated repetition of a block, then a few free symbols
    values = (block * length)[:length] + tail
    assert period(values) == period_direct(values)


def test_period_is_linear_on_long_borderless_input():
    # the definitional scan is quadratic here: every shift fails only at the end
    assert period([0] * 20000 + [1]) == 20001


def test_period_detects_truncated_tail():
    # period is defined on the finite window: a trailing partial block counts
    assert period([1, 2, 3, 1, 2]) == 3
