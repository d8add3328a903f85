"""The package's value types are plain immutable records: each checks its
fields once, in its constructor, and then equals, hashes and prints by them."""

import copy
import pickle
from fractions import Fraction

import pytest

from mecforge.analysis import AnalysisReport, Histogram
from mecforge.errors import MecforgeError
from mecforge.field import PrimeModulus
from mecforge.generator import CompleteSet, FamilyResult, SBox, SprnSequence
from mecforge.mec import MordellCurve

MOD = PrimeModulus(11)
HALF = Fraction(1, 2)

# One builder per class; two calls make equal records from equal, not identical, fields.
RECORDS = {
    "PrimeModulus": lambda: PrimeModulus(11),
    "MordellCurve": lambda: MordellCurve(PrimeModulus(11), 3),
    "CompleteSet": lambda: CompleteSet(tuple([0, 1, 2]), 3, PrimeModulus(11)),
    "SBox": lambda: SBox(tuple([2, 0, 1]), 3, (("p", 11), ("b", 3))),
    "SprnSequence": lambda: SprnSequence(tuple([4, 0, 4]), 5, (("p", 11),)),
    "FamilyResult": lambda: FamilyResult([SBox((0, 1), 2)], []),
    "AnalysisReport": lambda: AnalysisReport(
        nl=2, lap=HALF, dap=HALF, ac=None, sac_min=HALF, sac_max=HALF,
        bic_min=None, bic_max=None, fixed_points=1),
    "Histogram": lambda: Histogram({4: 2, 0: 1}, 3),
}
UNHASHABLE = {"FamilyResult", "Histogram"}  # they hold a list or a dict


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    before = repr(record)
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None  # no other attribute either
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(name, clone):
    record = RECORDS[name]()
    twin = clone(record)
    assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
    with pytest.raises(AttributeError):
        setattr(twin, type(twin).__slots__[0], None)


def test_records_differ_by_field_and_by_class():
    assert MordellCurve(MOD, 3) != MordellCurve(MOD, 4)
    assert PrimeModulus(11) != PrimeModulus(17)
    assert SBox((1, 0), 2) != SBox((1, 0), 2, (("p", 11),))
    # the same fields under another class are another value
    assert SBox((1, 0), 2) != SprnSequence((1, 0), 2)
    assert PrimeModulus(11) != (11, True)


def test_record_repr_names_every_field():
    assert repr(MordellCurve(MOD, 3)) == \
        "MordellCurve(modulus=PrimeModulus(p=11), b=3)"
    assert repr(SBox((1, 0), 2)) == "SBox(table=(1, 0), m=2, provenance=())"


# Every input a constructor refuses, with its message; where an input breaks
# two rules, the message shows which check runs first.
REFUSED = [
    (lambda: PrimeModulus(1), "1 is not an odd prime"),
    (lambda: PrimeModulus(2), "2 is not an odd prime"),
    (lambda: PrimeModulus(-7), "-7 is not an odd prime"),
    (lambda: PrimeModulus(9), "9 is not an odd prime"),
    (lambda: PrimeModulus(561), "561 is not an odd prime"),  # a Carmichael number
    (lambda: PrimeModulus(3), "p = 3 is not admissible (need p = 2 mod 3, p > 3)"),
    (lambda: PrimeModulus(7), "p = 7 is not admissible (need p = 2 mod 3, p > 3)"),
    (lambda: PrimeModulus(13), "p = 13 is not admissible (need p = 2 mod 3, p > 3)"),
    (lambda: PrimeModulus(4999), "p = 4999 is not admissible (need p = 2 mod 3, p > 3)"),
    (lambda: MordellCurve(MOD, 0), "b = 0 must lie in [1, p-1]"),
    (lambda: MordellCurve(MOD, 11), "b = 11 must lie in [1, p-1]"),
    (lambda: MordellCurve(MOD, -1), "b = -1 must lie in [1, p-1]"),
    (lambda: CompleteSet((), 0, MOD), "m = 0 must lie in [1, p] = [1, 11]"),
    (lambda: CompleteSet(tuple(range(12)), 12, MOD), "m = 12 must lie in [1, p] = [1, 11]"),
    (lambda: CompleteSet((0, 1), 12, MOD), "m = 12 must lie in [1, p] = [1, 11]"),
    (lambda: CompleteSet((0, 1), 3, MOD), "expected 3 elements, got 2"),
    (lambda: CompleteSet((0, 11), 2, MOD), "element 11 outside [0, 10]"),
    (lambda: CompleteSet((-1, 0), 2, MOD), "element -1 outside [0, 10]"),
    (lambda: CompleteSet((1, 3), 2, MOD), "1 and 3 are congruent mod 2"),
    (lambda: CompleteSet((1, 4, 11), 3, MOD), "1 and 4 are congruent mod 3"),
    (lambda: CompleteSet((1, 11, 4), 3, MOD), "element 11 outside [0, 10]"),
    (lambda: SBox((), 0), "S-box table is not a permutation of [0, m-1] with m >= 1"),
    (lambda: SBox((), -1), "S-box table is not a permutation of [0, m-1] with m >= 1"),
    (lambda: SBox((0, 0, 1), 3), "S-box table is not a permutation of [0, m-1] with m >= 1"),
    (lambda: SBox((0, 1), 3), "S-box table is not a permutation of [0, m-1] with m >= 1"),
    (lambda: SBox((1, 2), 2), "S-box table is not a permutation of [0, m-1] with m >= 1"),
    # |table| != m is refused before range(m) is built
    (lambda: SBox((0,), 10 ** 15), "S-box table is not a permutation of [0, m-1] with m >= 1"),
]


@pytest.mark.parametrize("build, message", REFUSED)
def test_invalid_fields_are_refused(build, message):
    with pytest.raises(MecforgeError) as caught:
        build()
    assert str(caught.value) == message
