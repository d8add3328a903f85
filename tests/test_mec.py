import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge.errors import BadCoefficient, MecforgeError, NotAdmissible, TooLarge
from mecforge.field import PrimeModulus
from mecforge.mec import (
    CurveClass,
    CurvePoint,
    MordellCurve,
    classify,
    enumerate_points,
    point_for_y,
    representative,
    x_for_y,
)

from conftest import SMALL_ADMISSIBLE
from oracles import brute_force_points, iso_map_point, iso_param

admissible = st.sampled_from([p for p in SMALL_ADMISSIBLE if p > 3])


def curves(p_strategy=admissible):
    return p_strategy.flatmap(
        lambda p: st.integers(1, p - 1).map(lambda b: MordellCurve(PrimeModulus(p), b)))


def test_curve_validation(mod11):
    with pytest.raises(ValueError):
        MordellCurve(mod11, 0)
    with pytest.raises(ValueError):
        MordellCurve(PrimeModulus(7), 1)  # p = 1 (mod 3)
    # both are package errors as well, so the CLI maps them to exit 2
    with pytest.raises(BadCoefficient) as bad_b:
        MordellCurve(mod11, 11)
    with pytest.raises(NotAdmissible) as bad_p:
        MordellCurve(PrimeModulus(13), 1)
    assert isinstance(bad_b.value, MecforgeError) and isinstance(bad_p.value, MecforgeError)


def test_x_for_y_examples(curve_11_1):
    assert x_for_y(curve_11_1, 1) == 0
    assert x_for_y(curve_11_1, 0) == 10
    assert x_for_y(curve_11_1, 3) == 2


def test_enumerate_points_matches_brute_force(curve_11_1):
    pts = enumerate_points(curve_11_1)
    assert sorted((pt.x, pt.y) for pt in pts) == brute_force_points(11, 1)
    assert sorted((pt.x, pt.y) for pt in pts) == [
        (0, 1), (0, 10), (2, 3), (2, 8), (5, 4), (5, 7),
        (7, 5), (7, 6), (9, 2), (9, 9), (10, 0)]


@given(curves())
@settings(max_examples=30)
def test_point_count_and_y_coverage(curve):
    pts = enumerate_points(curve)
    assert len(pts) == curve.p
    assert sorted(pt.y for pt in pts) == list(range(curve.p))
    assert all(curve.contains(pt) for pt in pts)


def test_enumeration_guard(curve_11_1):
    with pytest.raises(TooLarge):
        enumerate_points(curve_11_1, max_p=7)


def test_classify_examples(mod11):
    assert classify(MordellCurve(mod11, 1)) is CurveClass.C1
    assert classify(MordellCurve(mod11, 9)) is CurveClass.C1
    assert classify(MordellCurve(mod11, 2)) is CurveClass.C2


def test_representative(mod11):
    assert representative(mod11, CurveClass.C1) == 1
    assert representative(mod11, CurveClass.C2) == 2
    assert classify(MordellCurve(mod11, representative(mod11, CurveClass.C2))) is CurveClass.C2


@given(admissible)
@settings(max_examples=20)
def test_classes_split_evenly(p):
    modulus = PrimeModulus(p)
    tags = [classify(MordellCurve(modulus, b)) for b in range(1, p)]
    assert tags.count(CurveClass.C1) == (p - 1) // 2
    assert tags.count(CurveClass.C2) == (p - 1) // 2


def test_iso_map_point_example(mod11):
    image = iso_map_point(CurvePoint(0, 1), 2, 11)
    assert image == CurvePoint(0, 8)
    assert MordellCurve(mod11, 9).contains(image)
    assert iso_map_point(CurvePoint(5, 4), 1, 11) == CurvePoint(5, 4)
    with pytest.raises(ValueError):
        iso_map_point(CurvePoint(0, 1), 0, 11)


@given(curves(), st.data())
@settings(max_examples=40)
def test_iso_map_is_class_preserving_bijection(curve, data):
    modulus = curve.modulus
    p = curve.p
    t = data.draw(st.integers(1, p - 1))
    b2 = pow(t, 6, p) * curve.b % p
    target = MordellCurve(modulus, b2)
    assert classify(target) is classify(curve)
    pts = enumerate_points(curve)
    images = [iso_map_point(pt, t, p) for pt in pts]
    assert all(target.contains(img) for img in images)
    assert len(set(images)) == len(pts)
    t_inv = modulus.inverse(t)
    assert [iso_map_point(img, t_inv, p) for img in images] == pts


def test_iso_param_between_examples():
    assert iso_param(1, 9, 11) == 2
    assert iso_param(1, 2, 11) is None
    for b in range(1, 11):
        assert iso_param(b, b, 11) == 1


@given(admissible, st.data())
@settings(max_examples=40)
def test_iso_param_consistency(p, data):
    modulus = PrimeModulus(p)
    b1 = data.draw(st.integers(1, p - 1))
    b2 = data.draw(st.integers(1, p - 1))
    t = iso_param(b1, b2, p)
    same_class = classify(MordellCurve(modulus, b1)) is classify(MordellCurve(modulus, b2))
    if t is None:
        assert not same_class
    else:
        assert same_class
        assert 1 <= t <= (p - 1) // 2
        assert pow(t, 6, p) * b1 % p == b2


def test_iso_y_set_image_example(mod11):
    # mapping the y-set {0..9} off E_{11,9} back to E_{11,1} with t = 2
    t_inv = mod11.inverse(2)
    ti3 = pow(t_inv, 3, 11)
    image = sorted(ti3 * y % 11 for y in range(10))
    assert image == [0, 1, 2, 3, 5, 6, 7, 8, 9, 10]


def test_x_for_y_agrees_with_membership(curve_11_1):
    for y in range(11):
        assert curve_11_1.contains(point_for_y(curve_11_1, y))
