import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from mecforge import CompleteSet, MordellCurve, PrimeModulus, data

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Admissible primes (p = 2 mod 3) used across the suite.
SMALL_ADMISSIBLE = [5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101]


@pytest.fixture(scope="session")
def mod11():
    return PrimeModulus(11)


@pytest.fixture(scope="session")
def curve_11_1(mod11):
    return MordellCurve(mod11, 1)


@pytest.fixture(scope="session")
def mod52511():
    return PrimeModulus(52511)


@pytest.fixture(scope="session")
def curve_52511_1(mod52511):
    return MordellCurve(mod52511, 1)


@pytest.fixture(scope="session")
def reference_set_52511(mod52511):
    return CompleteSet.validate(data.reference_complete_set_52511(), 256, mod52511)


@pytest.fixture(scope="session")
def golden_sbox_52511():
    """The published 256-entry S-box for p=52511, b=1, natural order, k=0."""
    digits = "".join(DATA_DIR.joinpath("sbox_52511_natural_k0.hex").read_text().split())
    return [int(digits[i:i + 2], 16) for i in range(0, len(digits), 2)]


@pytest.fixture(scope="session")
def aes_sbox_table():
    """The standard AES S-box, bundled for `mecforge analyze aes`."""
    return [int(tok, 16) for tok in data.path("aes_sbox.txt").read_text().split()]
