import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mecforge.gf256 import DEFAULT_POLY, gf_pow, interpolate, inv, mul

from oracles import interpolate_lagrange, poly_eval

elements = st.integers(0, 255)
nonzero = st.integers(1, 255)


def test_mul_examples():
    # AES reduction polynomial worked examples
    assert mul(0x53, 0xCA) == 0x01
    assert mul(2, 0x80) == 0x1B
    assert mul(3, 3) == 5
    assert mul(0, 0xFF) == 0


def test_inv_examples():
    assert inv(1) == 1
    assert inv(0x53) == 0xCA
    with pytest.raises(ZeroDivisionError):
        inv(0)


@given(nonzero)
def test_inverse_property(a):
    assert mul(a, inv(a)) == 1


@given(elements, elements, elements)
@settings(max_examples=200)
def test_field_axioms(a, b, c):
    # addition is XOR
    assert a ^ b == b ^ a
    assert mul(a, b) == mul(b, a)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert a ^ a == 0
    assert mul(a, 1) == a
    assert 0 <= mul(a, b) <= 0xFF
    if a:
        assert mul(a, inv(a)) == 1


@given(nonzero, st.integers(0, 510))
def test_gf_pow_matches_repeated_mul(a, e):
    acc = 1
    for _ in range(e):
        acc = mul(acc, a)
    assert gf_pow(a, e) == acc


@given(nonzero)
def test_fermat(a):
    assert gf_pow(a, 255) == 1
    assert gf_pow(a, 254) == inv(a)


def test_poly_eval_examples():
    # P(x) = x^2 + 1
    assert poly_eval([1, 0, 1], 0) == 1
    assert poly_eval([1, 0, 1], 1) == 0
    assert poly_eval([1, 0, 1], 2) == 5
    assert poly_eval([], 7) == 0


def test_interpolate_identity():
    coeffs = interpolate(list(range(256)))
    assert coeffs[1] == 1
    assert all(c == 0 for i, c in enumerate(coeffs) if i != 1)


def test_interpolate_constant():
    coeffs = interpolate([0x42] * 256)
    assert coeffs[0] == 0x42
    assert all(c == 0 for c in coeffs[1:])


def test_interpolate_inverse_map_is_monomial():
    # x -> x^254 is the inversion map extended by 0 -> 0
    table = [0] + [inv(a) for a in range(1, 256)]
    coeffs = interpolate(table)
    assert coeffs[254] == 1
    assert sum(1 for c in coeffs if c) == 1


@given(st.lists(elements, min_size=1, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_interpolate_roundtrip(low_coeffs, rng):
    """Interpolating the value table of a polynomial recovers its coefficients."""
    table = [poly_eval(low_coeffs, x) for x in range(256)]
    coeffs = interpolate(table)
    padded = low_coeffs + [0] * (256 - len(low_coeffs))
    assert coeffs == padded
    for x in rng.sample(range(256), 16):
        assert poly_eval(coeffs, x) == table[x]


# Shrinking a 256-entry table against the slow Lagrange oracle takes minutes,
# so this reports the first failing table as found.  Permutations are
# covered by test_analysis.test_battery_matches_oracles_on_8_bit_permutations.
@given(st.lists(elements, min_size=256, max_size=256), st.sampled_from([DEFAULT_POLY, 0x165]))
@settings(max_examples=10, deadline=None, phases=[Phase.generate])
def test_interpolate_matches_lagrange_on_tables(table, poly):
    assert interpolate(table, poly) == interpolate_lagrange(table, poly)


def test_interpolate_requires_full_domain():
    with pytest.raises(ValueError):
        interpolate([0] * 255)


def test_alternate_reduction_polynomial():
    # 0x165 is irreducible over GF(2); the field axioms must hold there too
    alt = 0x165
    assert mul(mul(3, 7, alt), inv(mul(3, 7, alt), alt), alt) == 1
    assert mul(0x53, 0xCA, alt) != mul(0x53, 0xCA, DEFAULT_POLY)
    table = [poly_eval([5, 1], x, alt) for x in range(256)]
    coeffs = interpolate(table, alt)
    assert coeffs[:2] == [5, 1] and not any(coeffs[2:])
