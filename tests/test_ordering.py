import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge.field import PrimeModulus
from mecforge.generator import CompleteSet
from mecforge.mec import CurvePoint, MordellCurve, enumerate_points
from mecforge.ordering import Ordering, ordered_complete_set, rank_of_y, sort_key

from conftest import SMALL_ADMISSIBLE
from oracles import ordering_key

ALL_ORDERINGS = list(Ordering)


def sorted_ys(kind, points, modulus):
    return [pt.y for pt in sorted(points, key=sort_key(kind, modulus))]


def test_parse_names():
    assert Ordering.parse("natural") is Ordering.NATURAL
    assert Ordering.parse("Diffusion") is Ordering.DIFFUSION
    assert Ordering.parse("MODULO") is Ordering.MODULO
    with pytest.raises(ValueError):
        Ordering.parse("zigzag")


def test_compare_examples(mod11):
    for kind, first, second in [(Ordering.NATURAL, CurvePoint(0, 1), CurvePoint(0, 10)),
                                (Ordering.DIFFUSION, CurvePoint(10, 0), CurvePoint(9, 2)),
                                (Ordering.MODULO, CurvePoint(9, 2), CurvePoint(0, 1))]:
        key = sort_key(kind, mod11)
        assert key(first) < key(second)


def test_sort_points_published_sequences(curve_11_1, mod11):
    pts = enumerate_points(curve_11_1)
    assert sorted_ys(Ordering.NATURAL, pts, mod11) == [1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0]
    assert sorted_ys(Ordering.DIFFUSION, pts, mod11) == [1, 3, 4, 10, 8, 0, 2, 7, 5, 6, 9]
    assert sorted_ys(Ordering.MODULO, pts, mod11) == [2, 1, 7, 5, 6, 3, 9, 4, 10, 8, 0]


@pytest.mark.parametrize("kind", ALL_ORDERINGS)
@pytest.mark.parametrize("p", [11, 17, 29])
def test_strict_total_order(kind, p):
    modulus = PrimeModulus(p)
    key = sort_key(kind, modulus)

    def compare(a, b):
        return (key(a) > key(b)) - (key(a) < key(b))

    pts = enumerate_points(MordellCurve(modulus, 1))
    for a, b in itertools.combinations(pts, 2):
        assert compare(a, b) == -compare(b, a)
        assert compare(a, b) != 0
    for a, b, c in itertools.islice(itertools.combinations(pts, 3), 200):
        ab = compare(a, b)
        bc = compare(b, c)
        if ab == bc:
            assert compare(a, c) == ab


def test_natural_sort_pairs_adjacent(curve_11_1, mod11):
    pts = sorted(enumerate_points(curve_11_1), key=sort_key(Ordering.NATURAL, mod11))
    xs = [pt.x for pt in pts]
    assert xs == sorted(xs)
    # each x != x_of_y0 carries the conjugate pair (x, y), (x, p-y) adjacently
    for a, b in zip(pts, pts[1:]):
        if a.x == b.x:
            assert a.y + b.y == 11


@given(st.sampled_from(SMALL_ADMISSIBLE), st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=40)
def test_rank_of_y_matches_full_sort(p, kind, data):
    modulus = PrimeModulus(p)
    b = data.draw(st.integers(1, p - 1))
    curve = MordellCurve(modulus, b)
    full = sorted_ys(kind, enumerate_points(curve), modulus)
    assert rank_of_y(kind, curve, range(p)) == full
    subset = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    ranked = rank_of_y(kind, curve, subset)
    assert set(ranked) == subset
    # subsequence of the full order
    positions = {y: i for i, y in enumerate(full)}
    assert [positions[y] for y in ranked] == sorted(positions[y] for y in subset)


def test_rank_of_y_examples(curve_11_1):
    assert rank_of_y(Ordering.NATURAL, curve_11_1, range(11)) == [1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0]
    assert rank_of_y(Ordering.NATURAL, curve_11_1, {0, 1}) == [1, 0]
    assert rank_of_y(Ordering.MODULO, curve_11_1, {5}) == [5]


def test_ordered_complete_set_natural_identity(curve_11_1, mod11):
    cs = CompleteSet.natural(11, mod11)
    assert ordered_complete_set(Ordering.NATURAL, curve_11_1, cs) == [1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0]
    assert ordered_complete_set(Ordering.NATURAL, curve_11_1, cs)[0] == 1


@given(st.sampled_from([p for p in SMALL_ADMISSIBLE if p >= 11]),
       st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=40)
def test_ordered_complete_set_is_permutation(p, kind, data):
    modulus = PrimeModulus(p)
    b = data.draw(st.integers(1, p - 1))
    m = data.draw(st.integers(2, p))
    q, r = divmod(p, m)
    elems = [data.draw(st.integers(0, (q if res >= r else q + 1) - 1)) * m + res
             for res in range(m)]
    cs = CompleteSet.validate(elems, m, modulus)
    seq = ordered_complete_set(kind, MordellCurve(modulus, b), cs)
    assert sorted(seq) == list(range(m))


def test_ordered_complete_set_reference(curve_52511_1, reference_set_52511, golden_sbox_52511):
    seq = ordered_complete_set(Ordering.NATURAL, curve_52511_1, reference_set_52511)
    assert seq == golden_sbox_52511


def test_ordering_matches_oracle_keys(curve_11_1, mod11):
    pts = enumerate_points(curve_11_1)
    for kind in ALL_ORDERINGS:
        ours = sorted(pts, key=sort_key(kind, mod11))
        theirs = sorted([(pt.x, pt.y) for pt in pts], key=ordering_key(kind, 11))
        assert [(pt.x, pt.y) for pt in ours] == theirs
