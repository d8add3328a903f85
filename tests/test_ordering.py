import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge import mec, ordering
from mecforge.field import PrimeModulus
from mecforge.generator import CompleteSet, sbox_direct
from mecforge.mec import MordellCurve, points
from mecforge.ordering import Ordering, _curve_orders, rank_of_y

from conftest import SMALL_ADMISSIBLE
from oracles import brute_force_points, ordering_key

ALL_ORDERINGS = list(Ordering)


def test_compare_examples(curve_11_1):
    # natural: (0, 1) < (0, 10); diffusion: (10, 0) < (9, 2); modulo: (9, 2) < (0, 1)
    for kind, first, second in [(Ordering.NATURAL, 1, 10),
                                (Ordering.DIFFUSION, 0, 2),
                                (Ordering.MODULO, 2, 1)]:
        assert rank_of_y(kind, curve_11_1, [second, first]) == [first, second]


def test_sort_points_published_sequences(curve_11_1):
    assert rank_of_y(Ordering.NATURAL, curve_11_1, range(11)) == [1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0]
    assert rank_of_y(Ordering.DIFFUSION, curve_11_1, range(11)) == [1, 3, 4, 10, 8, 0, 2, 7, 5, 6, 9]
    assert rank_of_y(Ordering.MODULO, curve_11_1, range(11)) == [2, 1, 7, 5, 6, 3, 9, 4, 10, 8, 0]


@pytest.mark.parametrize("kind", ALL_ORDERINGS)
@pytest.mark.parametrize("p", [11, 17, 29])
def test_strict_total_order(kind, p):
    """No two points tie: the order of any pair or triple of ys does not
    depend on the order they are given in, and pairs compose transitively."""
    curve = MordellCurve(PrimeModulus(p), 1)

    def before(a, b):
        return rank_of_y(kind, curve, [a, b])[0] == a

    for a, b in itertools.combinations(range(p), 2):
        assert before(a, b) != before(b, a)
    for a, b, c in itertools.islice(itertools.combinations(range(p), 3), 200):
        ranked = rank_of_y(kind, curve, [a, b, c])
        assert rank_of_y(kind, curve, [c, b, a]) == ranked
        assert all(before(u, v) for u, v in itertools.combinations(ranked, 2))


def test_natural_sort_pairs_adjacent(curve_11_1):
    pts = list(points(curve_11_1, rank_of_y(Ordering.NATURAL, curve_11_1, range(11))))
    xs = [x for x, _ in pts]
    assert xs == sorted(xs)
    # each x != x_of_y0 carries the conjugate pair (x, y), (x, p-y) adjacently
    for a, b in zip(pts, pts[1:]):
        if a[0] == b[0]:
            assert a[1] + b[1] == 11


@given(st.sampled_from(SMALL_ADMISSIBLE), st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=40)
def test_rank_of_y_matches_full_sort(p, kind, data):
    modulus = PrimeModulus(p)
    b = data.draw(st.integers(1, p - 1))
    curve = MordellCurve(modulus, b)
    full = [y for _, y in sorted(brute_force_points(p, b), key=ordering_key(kind, p))]
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


# The S-box at shift 0 is the complete set's residues in curve order.

def test_ordered_complete_set_natural_identity(curve_11_1, mod11):
    cs = CompleteSet.natural(11, mod11)
    assert sbox_direct(curve_11_1, Ordering.NATURAL, cs, 0).table == \
        tuple(rank_of_y(Ordering.NATURAL, curve_11_1, range(11)))


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
    curve = MordellCurve(modulus, b)
    seq = sbox_direct(curve, kind, cs, 0).table
    assert sorted(seq) == list(range(m))
    assert list(seq) == [y % m for y in rank_of_y(kind, curve, elems)]


def test_ordered_complete_set_reference(curve_52511_1, reference_set_52511, golden_sbox_52511):
    seq = sbox_direct(curve_52511_1, Ordering.NATURAL, reference_set_52511, 0).table
    assert list(seq) == golden_sbox_52511


def test_ordering_matches_oracle_keys(curve_11_1):
    by_y = {y: (x, y) for x, y in brute_force_points(11, 1)}
    for kind in ALL_ORDERINGS:
        ours = [by_y[y] for y in rank_of_y(kind, curve_11_1, range(11))]
        assert ours == sorted(by_y.values(), key=ordering_key(kind, 11))


def _count_points_calls(monkeypatch):
    calls = []

    def counted(curve, ys):
        calls.append(curve)
        return mec.points(curve, ys)

    monkeypatch.setattr(ordering, "points", counted)
    return calls


def test_rank_of_y_looks_up_points_once_per_call(monkeypatch, curve_11_1):
    calls = _count_points_calls(monkeypatch)
    for kind in ALL_ORDERINGS:
        assert sorted(rank_of_y(kind, curve_11_1, [7, 2])) == [2, 7]
    assert calls == [curve_11_1] * len(ALL_ORDERINGS)


def test_dense_rank_of_y_looks_up_no_points(monkeypatch):
    """A y-set of at least p/_WALK_DENSITY ys is ordered by the walk over x;
    one y fewer takes the lookups."""
    calls = _count_points_calls(monkeypatch)
    for p in (5, 107):  # at p = 5 the threshold p/_WALK_DENSITY is a whole number of ys
        curve = MordellCurve(PrimeModulus(p), 3)
        fewest = -(-p // ordering._WALK_DENSITY)
        for kind in ALL_ORDERINGS:
            for ys in (range(p), range(0, p, 2), range(fewest)):
                assert sorted(rank_of_y(kind, curve, ys)) == list(ys)
        assert calls == []
        for kind in ALL_ORDERINGS:
            assert sorted(rank_of_y(kind, curve, range(fewest - 1))) == list(range(fewest - 1))
        assert calls == [curve] * len(ALL_ORDERINGS)
        calls.clear()


WALK_CASES = [(p, kind) for p in (5, 11, 17, 53, 107) for kind in ALL_ORDERINGS]


@pytest.mark.parametrize("p, kind", WALK_CASES, ids=[f"{p}-{kind.value}" for p, kind in WALK_CASES])
def test_walk_matches_lookups_and_brute_force(monkeypatch, p, kind):
    """The walk over x, the lookups and the brute-force points order a y-set
    alike on every curve: the full Y, sets one y either side of the density
    threshold, and sets holding 0 and p - 1."""
    rng = random.Random(f"walk-{p}-{kind.value}")
    modulus = PrimeModulus(p)
    fewest = -(-p // ordering._WALK_DENSITY)
    y_sets = [range(p), list(range(p - 1, -1, -1)), rng.sample(range(p), p - 1),
              rng.sample(range(p), fewest - 1), rng.sample(range(p), fewest),
              [p - 1, 0] + rng.sample(range(1, p - 1), fewest),
              rng.sample(range(p), rng.randint(fewest, p))]
    for b in range(1, p):
        curve = MordellCurve(modulus, b)
        full = [y for _, y in sorted(brute_force_points(p, b), key=ordering_key(kind, p))]
        position = {y: i for i, y in enumerate(full)}
        for ys in y_sets:
            expected = sorted(ys, key=position.__getitem__)
            assert rank_of_y(kind, curve, ys) == expected, (b, ys)
            for density in (0, p):  # every set looked up, every nonempty set walked
                with monkeypatch.context() as patched:
                    patched.setattr(ordering, "_WALK_DENSITY", density)
                    assert rank_of_y(kind, curve, ys) == expected, (b, ys, density)


@given(st.sampled_from(SMALL_ADMISSIBLE), st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=40)
def test_dense_rank_of_y_matches_full_sort(p, kind, data):
    b = data.draw(st.integers(1, p - 1))
    ys = data.draw(st.sets(st.integers(0, p - 1), min_size=-(-p // ordering._WALK_DENSITY)))
    full = [y for _, y in sorted(brute_force_points(p, b), key=ordering_key(kind, p))]
    assert rank_of_y(kind, MordellCurve(PrimeModulus(p), b), ys) == [y for y in full if y in ys]


CURVE_ORDER_CASES = [(p, kind) for p in (5, 11, 17, 53, 107) for kind in ALL_ORDERINGS]


@pytest.mark.parametrize("p, kind", CURVE_ORDER_CASES,
                         ids=[f"{p}-{kind.value}" for p, kind in CURVE_ORDER_CASES])
def test_curve_orders_match_rank_of_y(p, kind):
    """The one pass over F_p x Y orders Y on every curve as `rank_of_y` does:
    for initial segments, complete sets and subsets, given in any order.  It
    reduces each y mod m, which for a complete set at m < p gives its
    residues."""
    rng = random.Random(f"{p}-{kind.value}")
    modulus = PrimeModulus(p)
    y_sets = [range(m) for m in (1, 2, rng.randint(3, p), p)]
    complete_sets = []
    for m in (1, 2, rng.randint(3, p), p):
        q, r = divmod(p, m)
        complete_sets.append(([rng.randrange(q + 1 if res < r else q) * m + res
                               for res in range(m)], m))
    y_sets += [ys for ys, _ in complete_sets]
    y_sets += [[0], [rng.randrange(1, p)], rng.sample(range(p), rng.randint(2, p)),
               [0] + rng.sample(range(1, p), rng.randint(1, p - 1))]
    curves = [MordellCurve(modulus, b) for b in range(1, p)]
    for ys in y_sets:
        rows = _curve_orders(modulus, kind, ys, p)  # y < p: unchanged mod p
        assert len(rows) == p
        assert rows[1:] == [rank_of_y(kind, curve, ys) for curve in curves], ys
    for ys, m in complete_sets:  # each row holds its curve's unshifted table
        rows = _curve_orders(modulus, kind, ys, m)
        assert rows[1:] == [[y % m for y in rank_of_y(kind, curve, ys)] for curve in curves], m


@pytest.mark.parametrize("p", [5, 11, 17])
def test_curve_orders_match_brute_force(p):
    for kind in ALL_ORDERINGS:
        rows = _curve_orders(PrimeModulus(p), kind, range(p), p)
        for b in range(1, p):
            full = sorted(brute_force_points(p, b), key=ordering_key(kind, p))
            assert rows[b] == [y for _, y in full]
