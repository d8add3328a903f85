import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge.errors import MecforgeError
from mecforge.field import PrimeModulus, _is_strong_lucas_prp, _jacobi, is_prime
from mecforge.mec import MordellCurve, points

from conftest import SMALL_ADMISSIBLE
from oracles import trial_division_prime

admissible = st.sampled_from(SMALL_ADMISSIBLE)


def test_primality_validation():
    PrimeModulus(11)
    PrimeModulus(52511)
    with pytest.raises(MecforgeError, match="12 is not an odd prime"):
        PrimeModulus(12)
    with pytest.raises(MecforgeError, match="1 is not an odd prime"):
        PrimeModulus(1)
    with pytest.raises(MecforgeError, match="2 is not an odd prime"):
        PrimeModulus(2)  # even


def test_prime_modulus_matches_the_oracle():
    """PrimeModulus(n) is made exactly for the primes n > 3 with n = 2 (mod 3),
    and a refusal names the first rule n breaks: odd prime, then admissible."""
    for n in range(-5, 2000):
        if trial_division_prime(n) and n > 3 and n % 3 == 2:
            assert PrimeModulus(n).p == n
            continue
        with pytest.raises(MecforgeError) as caught:
            PrimeModulus(n)
        if n > 2 and trial_division_prime(n):
            assert str(caught.value) == f"p = {n} is not admissible (need p = 2 mod 3, p > 3)"
        else:
            assert str(caught.value) == f"{n} is not an odd prime"


def test_is_prime_samples():
    assert is_prime(2) and is_prime(3) and is_prime(52511)
    assert not is_prime(52511 * 3)
    # strong-pseudoprime classic
    assert not is_prime(3215031751)


@pytest.mark.parametrize("n", [
    318665857834031151167461,  # 399165290221 * 798330580441
    3317044064679887385961981,
])
def test_is_prime_refuses_strong_pseudoprimes_above_2_64(n):
    """Composites that pass Miller-Rabin to every base from 2 to 37: the
    strong Lucas test above 2^64 refuses them, and so does PrimeModulus."""
    assert not is_prime(n)
    with pytest.raises(MecforgeError, match="is not an odd prime"):
        PrimeModulus(n)


def test_is_prime_accepts_primes_above_2_64():
    """2^64 + 37 passes the strong Lucas test on U_d = 0 alone, the
    Mersenne primes (d = 1) only on some V_{d 2^r} = 0 with r > 0."""
    for n in (2**64 + 13, 2**64 + 37, 2**89 - 1, 2**127 - 1):
        assert is_prime(n)
    assert PrimeModulus(2**64 + 13).p == 2**64 + 13  # 2 mod 3


def test_strong_lucas_refuses_a_square_and_a_multiple_of_d():
    """Composites that Miller-Rabin refuses first, given to the Lucas test
    alone: a square has no D with (D/n) = -1, and 5n shares D = 5."""
    p = 2**64 + 13
    assert not _is_strong_lucas_prp(p * p)
    assert not _is_strong_lucas_prp(5 * p)


@pytest.mark.parametrize("factors", [(3,), (7,), (3, 5), (3, 3, 7), (5, 11, 13)])
def test_jacobi_is_the_product_of_legendre_symbols(factors):
    n = math.prod(factors)
    for a in range(-n, 2 * n):
        legendre = [pow(a, (q - 1) // 2, q) for q in factors]  # 0, 1 or q - 1
        assert _jacobi(a, n) == math.prod(v if v < 2 else -1 for v in legendre)


def test_mod_inverse():
    m = PrimeModulus(11)
    assert m.inverse(1) == 1
    assert m.inverse(8) == 7
    assert PrimeModulus(52511).inverse(2) == 26256
    with pytest.raises(MecforgeError, match="0 has no inverse mod 11"):
        m.inverse(0)


def test_quadratic_residue_brute_force():
    m = PrimeModulus(11)
    squares = {x * x % 11 for x in range(1, 11)}
    assert squares == {1, 3, 4, 5, 9}
    for a in range(1, 11):
        assert m.is_quadratic_residue(a) == (a in squares)
    with pytest.raises(MecforgeError, match="0 is neither a QR nor a QNR"):
        m.is_quadratic_residue(0)


@given(admissible)
def test_qr_count_is_half(p):
    m = PrimeModulus(p)
    assert sum(m.is_quadratic_residue(a) for a in range(1, p)) == (p - 1) // 2


def test_smallest_qnr():
    assert PrimeModulus(5).smallest_qnr() == 2
    assert PrimeModulus(11).smallest_qnr() == 2
    assert PrimeModulus(17).smallest_qnr() == 3
    assert PrimeModulus(23).smallest_qnr() == 5


def test_cube_root_examples():
    # the point with y = 0 on y^2 = x^3 + b has x = cbrt(-b)
    m = PrimeModulus(11)
    assert list(points(MordellCurve(m, 3), [0])) == [(2, 0)]  # cbrt(8) = 2
    assert list(points(MordellCurve(m, 10), [0])) == [(1, 0)]  # cbrt(1) = 1
    assert list(points(MordellCurve(m, 1), [0])) == [(10, 0)]  # 10^3 = 1000 = 10 (mod 11)


@given(admissible, st.integers(1, 10 ** 6))
def test_inverse_property(p, raw):
    m = PrimeModulus(p)
    a = raw % p
    if a == 0:
        return
    assert m.inverse(a) * a % p == 1
