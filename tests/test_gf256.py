import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mecforge.gf256 import interpolate

from oracles import gf_inv, gf_mul, interpolate_lagrange, poly_eval

elements = st.integers(0, 255)
nonzero = st.integers(1, 255)


# The field arithmetic below is the oracles', which the Lagrange oracle
# builds on; the package itself only interpolates.

def test_mul_examples():
    # AES reduction polynomial worked examples
    assert gf_mul(0x53, 0xCA) == 0x01
    assert gf_mul(2, 0x80) == 0x1B
    assert gf_mul(3, 3) == 5
    assert gf_mul(0, 0xFF) == 0


def test_inv_examples():
    assert gf_inv(1) == 1
    assert gf_inv(0x53) == 0xCA
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(nonzero)
def test_inverse_property(a):
    assert gf_mul(a, gf_inv(a)) == 1


@given(elements, elements, elements)
@settings(max_examples=200)
def test_field_axioms(a, b, c):
    # addition is XOR
    assert a ^ b == b ^ a
    assert gf_mul(a, b) == gf_mul(b, a)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
    assert a ^ a == 0
    assert gf_mul(a, 1) == a
    assert 0 <= gf_mul(a, b) <= 0xFF
    if a:
        assert gf_mul(a, gf_inv(a)) == 1


@given(nonzero)
def test_fermat(a):
    power = 1
    for _ in range(254):
        power = gf_mul(power, a)
    assert power == gf_inv(a)
    assert gf_mul(power, a) == 1


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
    table = [0] + [gf_inv(a) for a in range(1, 256)]
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
@given(st.lists(elements, min_size=256, max_size=256))
@settings(max_examples=10, deadline=None, phases=[Phase.generate])
def test_interpolate_matches_lagrange_on_tables(table):
    assert interpolate(table) == interpolate_lagrange(table)


def test_interpolate_requires_full_domain():
    with pytest.raises(ValueError):
        interpolate([0] * 255)
