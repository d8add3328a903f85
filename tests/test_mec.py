import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge.errors import MecforgeError
from mecforge.field import PrimeModulus
from mecforge.mec import CurveClass, MordellCurve, points, representative

from conftest import SMALL_ADMISSIBLE
from oracles import (brute_force_cube_roots, brute_force_points, iso_map_point, iso_param,
                     trial_point)

admissible = st.sampled_from([p for p in SMALL_ADMISSIBLE if p > 3])


def curves(p_strategy=admissible):
    return p_strategy.flatmap(
        lambda p: st.integers(1, p - 1).map(lambda b: MordellCurve(PrimeModulus(p), b)))


def on_curve(p: int, b: int, point: tuple[int, int]) -> bool:
    x, y = point
    return (y * y - x * x * x - b) % p == 0


def test_curve_validation(mod11):
    with pytest.raises(ValueError):
        MordellCurve(mod11, 0)
    # a package error as well, so the CLI maps it to exit 2
    with pytest.raises(MecforgeError, match=r"b = 11 must lie in \[1, p-1\]"):
        MordellCurve(mod11, 11)


def test_x_for_y_examples(curve_11_1):
    # x = cbrt(y^2 - 1): cbrt(0) = 0, cbrt(10) = 10 (10^3 = 1000 = 10 mod 11), cbrt(8) = 2
    assert list(points(curve_11_1, [1, 0, 3])) == [(0, 1), (10, 0), (2, 3)]
    assert list(points(curve_11_1, [])) == []


def test_enumerate_points_matches_brute_force(curve_11_1):
    pts = sorted(points(curve_11_1, range(11)))
    assert pts == brute_force_points(11, 1)
    assert pts == [
        (0, 1), (0, 10), (2, 3), (2, 8), (5, 4), (5, 7),
        (7, 5), (7, 6), (9, 2), (9, 9), (10, 0)]


@given(curves(), st.data())
@settings(max_examples=30)
def test_points_match_trial_search(curve, data):
    """Any ys, in any order and with repeats, give their points in that order."""
    ys = data.draw(st.lists(st.integers(0, curve.p - 1), max_size=2 * curve.p))
    assert list(points(curve, iter(ys))) == [trial_point(curve.p, curve.b, y) for y in ys]


@given(admissible)
@settings(max_examples=20)
def test_points_take_every_cube_root(p):
    """y = 0 on E_{p, b} has x = cbrt(-b), so the curves over p reach the
    cube root of every non-zero residue."""
    cbrt = brute_force_cube_roots(p)
    assert len(cbrt) == p  # cubing is a bijection for p = 2 (mod 3)
    modulus = PrimeModulus(p)
    for b in range(1, p):
        assert list(points(MordellCurve(modulus, b), [0])) == [(cbrt[-b % p], 0)]


@given(curves())
@settings(max_examples=30)
def test_point_count_and_y_coverage(curve):
    """points over every y finds all p points of the curve and no others."""
    pts = list(points(curve, range(curve.p)))
    assert sorted(pts) == brute_force_points(curve.p, curve.b)


def test_classify_examples():
    # E_{11,1} and E_{11,9} (t = 2) share C1's representative; E_{11,2} is C2's
    c1, c2 = (representative(PrimeModulus(11), cls) for cls in (CurveClass.C1, CurveClass.C2))
    assert iso_param(c1, 1, 11) == 1
    assert iso_param(c1, 9, 11) == 2
    assert iso_param(c1, 2, 11) is None and iso_param(c2, 2, 11) == 1


def test_representative(mod11):
    assert representative(mod11, CurveClass.C1) == 1
    assert representative(mod11, CurveClass.C2) == 2
    assert not mod11.is_quadratic_residue(representative(mod11, CurveClass.C2))


@given(admissible)
@settings(max_examples=20)
def test_classes_split_evenly(p):
    """Each representative reaches (p-1)/2 curves with t in [1, (p-1)/2]."""
    modulus = PrimeModulus(p)
    for cls in (CurveClass.C1, CurveClass.C2):
        rep = representative(modulus, cls)
        assert sum(iso_param(rep, b, p) is not None for b in range(1, p)) == (p - 1) // 2


def test_iso_map_point_example():
    image = iso_map_point((0, 1), 2, 11)
    assert image == (0, 8)
    assert on_curve(11, 9, image)
    assert iso_map_point((5, 4), 1, 11) == (5, 4)
    with pytest.raises(ValueError):
        iso_map_point((0, 1), 0, 11)


@given(curves(), st.data())
@settings(max_examples=40)
def test_iso_map_is_class_preserving_bijection(curve, data):
    modulus = curve.modulus
    p = curve.p
    t = data.draw(st.integers(1, p - 1))
    b2 = curve.isomorphic(t).b
    assert modulus.is_quadratic_residue(b2) == modulus.is_quadratic_residue(curve.b)
    pts = list(points(curve, range(p)))
    images = [iso_map_point(pt, t, p) for pt in pts]
    assert all(on_curve(p, b2, img) for img in images)
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
    same_class = modulus.is_quadratic_residue(b1) == modulus.is_quadratic_residue(b2)
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


def test_points_agree_with_membership(curve_11_1):
    for point in points(curve_11_1, range(11)):
        assert on_curve(11, 1, point)
