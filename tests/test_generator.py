import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge import generator, ordering
from mecforge.cli import main
from mecforge.errors import MecforgeError, TooLarge
from mecforge.field import PrimeModulus, is_prime
from mecforge.generator import (
    CompleteSet,
    SBox,
    count_sboxes,
    enumerate_family,
    pstar,
    sbox_direct,
    sbox_iso,
    sprn,
)
from mecforge.mec import CurveClass, MordellCurve, representative
from mecforge.ordering import Ordering

from conftest import SMALL_ADMISSIBLE
from oracles import (count_complete_sets_exhaustive, natural_tables, pstar_direct, rep_and_param,
                     sbox_transport, sbox_trial_loop, sprn_trial_loop)

ALL_ORDERINGS = list(Ordering)


def random_complete_set(data, modulus, m):
    q, r = divmod(modulus.p, m)
    elems = [data.draw(st.integers(0, (q + 1 if res < r else q) - 1),
                       label=f"multiplier[{res}]") * m + res for res in range(m)]
    return CompleteSet.validate(elems, m, modulus)


# --- complete sets -----------------------------------------------------------

def test_validate_accepts_reference_set(reference_set_52511):
    assert reference_set_52511.m == 256
    assert len(set(e % 256 for e in reference_set_52511.elements)) == 256


def test_validate_natural(mod11):
    for m in range(1, 12):
        cs = CompleteSet.natural(m, mod11)
        assert cs.elements == tuple(range(m))


def test_validate_errors(mod11):
    with pytest.raises(MecforgeError, match="0 and 2 are congruent mod 2"):
        CompleteSet.validate([0, 2], 2, mod11)
    with pytest.raises(MecforgeError, match=r"element 11 outside \[0, 10\]"):
        CompleteSet.validate([0, 11], 2, mod11)
    with pytest.raises(MecforgeError, match="expected 2 elements, got 3"):
        CompleteSet.validate([0, 1, 2], 2, mod11)
    # built directly, a set is checked the same way: S-boxes rely on it
    with pytest.raises(MecforgeError, match="0 and 3 are congruent mod 3"):
        CompleteSet((0, 1, 3), 3, mod11)
    with pytest.raises(MecforgeError, match=r"m = 0 must lie in \[1, p\]"):
        CompleteSet((), 0, mod11)


# --- S-box generation --------------------------------------------------------

def test_sbox_direct_natural_11(curve_11_1, mod11):
    sbox = sbox_direct(curve_11_1, Ordering.NATURAL, CompleteSet.natural(11, mod11), 0)
    assert list(sbox.table) == [1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0]


def test_k_shift_is_rotation(curve_11_1, mod11):
    cs = CompleteSet.natural(11, mod11)
    base = sbox_direct(curve_11_1, Ordering.NATURAL, cs, 0).table
    for k in range(11):
        shifted = sbox_direct(curve_11_1, Ordering.NATURAL, cs, k).table
        assert all(shifted[i] == base[(i + k) % 11] for i in range(11))


def test_sbox_reference_table(curve_52511_1, reference_set_52511, golden_sbox_52511):
    sbox = sbox_direct(curve_52511_1, Ordering.NATURAL, reference_set_52511, 0)
    assert list(sbox.table) == golden_sbox_52511
    assert sbox.provenance_dict()["p"] == 52511


def test_sbox_iso_example(mod11):
    # t = 2 transports the representative curve b=1 onto b = 2^6 = 9 (mod 11)
    rep = MordellCurve(mod11, 1)
    cs = CompleteSet.natural(11, mod11)
    via_iso = sbox_iso(rep, mod11.inverse(2), Ordering.NATURAL, cs, 0)
    direct = sbox_direct(MordellCurve(mod11, 9), Ordering.NATURAL, cs, 0)
    assert via_iso.table == direct.table
    assert via_iso.provenance_dict()["b"] == 9


def test_sbox_iso_identity_parameter(mod11):
    rep = MordellCurve(mod11, 1)
    cs = CompleteSet.natural(11, mod11)
    assert sbox_iso(rep, 1, Ordering.NATURAL, cs, 0).table == \
        sbox_direct(rep, Ordering.NATURAL, cs, 0).table


def test_sbox_iso_errors(mod11):
    rep = MordellCurve(mod11, 1)
    cs = CompleteSet.natural(11, mod11)
    with pytest.raises(MecforgeError, match="0 has no inverse mod 11"):
        sbox_iso(rep, 0, Ordering.NATURAL, cs, 0)
    with pytest.raises(MecforgeError, match=r"shift k = 11 must lie in \[0, m-1\]"):
        sbox_iso(rep, 0, Ordering.NATURAL, cs, 11)  # the shift is checked first


def test_sbox_rejects_non_permutation():
    with pytest.raises(MecforgeError, match="not a permutation"):
        SBox((0, 0, 1), 3)
    with pytest.raises(ValueError):
        SBox((0, 1), 3)
    # an S-box has at least one entry, and m is its table's length
    for table, m in (((), 0), ((), -1), ((0,), 3), ((0, 1), 1)):
        with pytest.raises(MecforgeError, match=r"not a permutation of \[0, m-1\] with m >= 1"):
            SBox(table, m)


@pytest.mark.parametrize("kind", ALL_ORDERINGS)
def test_generated_sboxes_match_checked_construction(kind):
    """A generated table is a permutation by construction and skips the check;
    the S-box still equals, hashes and prints as `SBox(...)` of its fields,
    from a whole family, a family of two curves and both single paths."""
    modulus = PrimeModulus(101)
    cs = CompleteSet.natural(13, modulus)
    boxes = enumerate_family(modulus, kind, cs, 5, b_values=range(1, 101)).sboxes
    boxes += enumerate_family(modulus, kind, cs, 5, b_values=[3, 7]).sboxes
    curve = MordellCurve(modulus, 3)
    boxes += [sbox_direct(curve, kind, cs, 5), sbox_iso(curve, 2, kind, cs, 5)]
    assert len(boxes) == 104
    for s in boxes:
        checked = SBox(s.table, s.m, s.provenance)
        assert s == checked and hash(s) == hash(checked) and repr(s) == repr(checked)
        assert s.provenance_dict() == checked.provenance_dict()


@given(st.sampled_from([p for p in SMALL_ADMISSIBLE if p >= 11]),
       st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=60, deadline=None)
def test_three_paths_agree(p, kind, data):
    """Direct path, isomorphism path, the trial-loop construction and the
    point transport from the class representative coincide."""
    modulus = PrimeModulus(p)
    b = data.draw(st.integers(1, p - 1))
    m = data.draw(st.integers(1, p))
    k = data.draw(st.integers(0, m - 1))
    cs = random_complete_set(data, modulus, m)
    curve = MordellCurve(modulus, b)

    direct = sbox_direct(curve, kind, cs, k)
    assert sorted(direct.table) == list(range(m))

    oracle = sbox_trial_loop(p, b, kind, cs.elements, k)
    assert direct.table == oracle.table

    rep_b, t = rep_and_param(p, [representative(modulus, cls) for cls in CurveClass], b)
    via_iso = sbox_iso(MordellCurve(modulus, rep_b), modulus.inverse(t), kind, cs, k)
    assert via_iso.table == direct.table
    assert via_iso.provenance == direct.provenance
    assert sbox_transport(p, rep_b, t, kind, cs.elements, k).table == direct.table


# --- SPRN --------------------------------------------------------------------

def test_sprn_full_permutation():
    modulus = PrimeModulus(3917)
    seq = sprn(MordellCurve(modulus, 301), Ordering.NATURAL, range(3917), 3917, 0)
    assert sorted(seq.values) == list(range(3917))


def test_sprn_modulus_one(curve_11_1):
    seq = sprn(curve_11_1, Ordering.NATURAL, range(11), 1, 0)
    assert seq.values == (0,) * 11


def test_sprn_errors(curve_11_1):
    with pytest.raises(MecforgeError, match="input set A is empty"):
        sprn(curve_11_1, Ordering.NATURAL, [], 1, 0)
    with pytest.raises(MecforgeError, match=r"m = 6 must lie in \[1, \|A\|\] = \[1, 5\]"):
        sprn(curve_11_1, Ordering.NATURAL, range(5), 6, 0)
    # y, y + p and y - p name one point: the set must lie in [0, p-1]
    with pytest.raises(MecforgeError, match=r"element -10 outside \[0, 10\]"):
        sprn(curve_11_1, Ordering.NATURAL, [1, 12, -10], 3, 0)
    with pytest.raises(MecforgeError, match=r"element 11 outside \[0, 10\]"):
        sprn(curve_11_1, Ordering.NATURAL, range(12), 3, 0)
    # a range is read off its ends, as a set is off its least and greatest
    with pytest.raises(MecforgeError, match="input set A is empty"):
        sprn(curve_11_1, Ordering.NATURAL, range(5, 5), 1, 0)
    with pytest.raises(MecforgeError, match=r"element -3 outside \[0, 10\]"):
        sprn(curve_11_1, Ordering.NATURAL, range(-3, 5), 1, 0)
    with pytest.raises(MecforgeError, match=r"element 12 outside \[0, 10\]"):
        sprn(curve_11_1, Ordering.NATURAL, range(12, 0, -1), 1, 0)  # ends reversed


@pytest.mark.parametrize("kind", ALL_ORDERINGS)
def test_sprn_takes_a_range_as_its_set(kind):
    curve = MordellCurve(PrimeModulus(101), 7)
    for ys in (range(101), range(20, 60), range(0, 101, 3), range(100, 0, -1)):
        seq = sprn(curve, kind, ys, 4, 1)
        assert seq == sprn(curve, kind, set(ys), 4, 1) == sprn(curve, kind, list(ys)[::-1], 4, 1)


@given(st.sampled_from([p for p in SMALL_ADMISSIBLE if p >= 11]),
       st.sampled_from(ALL_ORDERINGS), st.data())
@settings(max_examples=40, deadline=None)
def test_sprn_matches_trial_loop(p, kind, data):
    modulus = PrimeModulus(p)
    b = data.draw(st.integers(1, p - 1))
    y_set = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    m = data.draw(st.integers(1, len(y_set)))
    k = data.draw(st.integers(0, m - 1))
    seq = sprn(MordellCurve(modulus, b), kind, y_set, m, k)
    assert list(seq.values) == sprn_trial_loop(p, b, kind, y_set, m, k)
    assert len(seq.values) == len(y_set)
    assert all(v < m for v in seq.values)


# --- counting ----------------------------------------------------------------

def test_count_published_value():
    per_k, total = count_sboxes(263, 256)
    assert per_k == 128
    assert total == 256 * 128


def test_count_degenerate_cases():
    assert count_sboxes(11, 11) == (1, 11)
    per_k, total = count_sboxes(11, 4)
    assert per_k == 54 and total == 216
    for m in (0, 12):  # the complete set's own range check and message
        with pytest.raises(MecforgeError, match=rf"m = {m} must lie in \[1, p\] = \[1, 11\]"):
            count_sboxes(11, m)


@pytest.mark.parametrize("p", [5, 11, 17, 23, 29, 31])
def test_count_matches_exhaustive_enumeration(p):
    for m in range(1, min(9, p + 1)):
        per_k, total = count_sboxes(p, m)
        assert per_k == count_complete_sets_exhaustive(p, m)
        assert total == m * per_k


def test_count_no_overflow():
    per_k, total = count_sboxes(52511, 256)
    assert per_k == 206 ** 31 * 205 ** 225  # p = 256*205 + 31
    assert total == 256 * per_k


def test_count_refuses_totals_too_long_to_print():
    # At p = 52511 the total first exceeds CPython's 4300-digit int-to-str
    # limit at m = 3748; the count just below it still prints.
    per_k, total = count_sboxes(52511, 3747)
    assert len(str(total)) == 4300 and total == 3747 * per_k
    with pytest.raises(TooLarge):
        count_sboxes(52511, 3748)
    with pytest.raises(TooLarge):  # about 1.5e8 digits: refused before any power
        count_sboxes(1000000007, 500000004)


# --- pstar and families ------------------------------------------------------

PSTAR_CASES = [(p, kind) for p in range(5, 54) if is_prime(p) and p % 3 == 2
               for kind in ALL_ORDERINGS]


@pytest.mark.parametrize("p, kind", PSTAR_CASES,
                         ids=[f"{p}-{kind.value}" for p, kind in PSTAR_CASES])
def test_pstar_exhaustive_small(p, kind):
    assert pstar(PrimeModulus(p), kind) == pstar_direct(p, kind)


def test_pstar_guard():
    with pytest.raises(TooLarge):
        pstar(PrimeModulus(52511), Ordering.NATURAL)


def test_family_over_all_b(mod11):
    cs = CompleteSet.natural(11, mod11)
    result = enumerate_family(mod11, Ordering.NATURAL, cs, 0, b_values=range(1, 11))
    assert len(result.sboxes) == 10 and not result.errors
    for b, sbox in zip(range(1, 11), result.sboxes):
        assert sbox.table == sbox_direct(MordellCurve(mod11, b), Ordering.NATURAL, cs, 0).table


FAMILY_CASES = [(p, kind) for p in (11, 17, 53, 107) for kind in ALL_ORDERINGS]


@pytest.mark.parametrize("p, kind", FAMILY_CASES,
                         ids=[f"{p}-{kind.value}" for p, kind in FAMILY_CASES])
def test_family_matches_trial_loop(p, kind):
    """Every curve's S-box from the one pass over F_p x Y is the one the
    trial search builds, for a random complete set and shift."""
    rng = random.Random(f"{p}-{kind.value}")
    modulus = PrimeModulus(p)
    m = rng.randint(2, p)
    q, r = divmod(p, m)
    elements = [rng.randrange(q + 1 if res < r else q) * m + res for res in range(m)]
    k = rng.randrange(m)
    result = enumerate_family(modulus, kind, CompleteSet.validate(elements, m, modulus), k,
                              b_values=range(1, p))
    assert not result.errors
    assert [s.table for s in result.sboxes] == [sbox_trial_loop(p, b, kind, elements, k).table
                                                for b in range(1, p)]


def test_single_curve_paths_build_no_table(monkeypatch, capsys):
    """Criterion 09: one S-box or sequence costs its own lookups, or one walk
    over x for a dense set, never a pass over F_p x Y, through the API and
    the CLI."""
    def refuse(modulus, kind, ys, m):
        raise AssertionError("a pass over F_p x Y was taken")
    for module in (ordering, generator):
        monkeypatch.setattr(module, "_curve_orders", refuse)
    modulus = PrimeModulus(1048583)
    cs = CompleteSet.natural(256, modulus)
    curve = MordellCurve(modulus, 5)
    sbox = sbox_direct(curve, Ordering.DIFFUSION, cs, 3)
    assert sbox_iso(curve, 1, Ordering.DIFFUSION, cs, 3) == sbox
    assert sprn(curve, Ordering.MODULO, range(1000), 16, 2).m == 16
    assert main(["gen-sbox", "--p", "52511", "--b", "1", "--ordering", "natural",
                 "--set", "natural", "--m", "256"]) == 0
    assert main(["gen-prn", "--p", "3917", "--b", "301", "--ordering", "modulo",
                 "--A", "full", "--m", "16"]) == 0
    capsys.readouterr()


def test_exhaustive_paths_build_one_table_per_call(monkeypatch):
    """pstar takes one pass, at two above the least m with m! >= p - 1 or at
    p - 1 if that is less, for every admissible p in 5..499 under each
    ordering; a family takes one, of any b-list."""
    passes = []

    def count(modulus, kind, ys, m):
        passes.append((modulus.p, len(ys)))
        return ordering._curve_orders(modulus, kind, ys, m)
    monkeypatch.setattr(generator, "_curve_orders", count)
    assert pstar(PrimeModulus(53), Ordering.NATURAL) == pstar_direct(53, Ordering.NATURAL)
    assert passes == [(53, 7)]  # 4! < 52 <= 5!
    for kind in ALL_ORDERINGS:
        for p in range(5, 500):
            if is_prime(p) and p % 3 == 2:
                passes.clear()
                pstar(PrimeModulus(p), kind)
                low = next(m for m in range(1, p) if math.factorial(m) >= p - 1)
                assert passes == [(p, min(low + 2, p - 1))], (p, kind, passes)
    passes.clear()
    modulus = PrimeModulus(101)
    result = enumerate_family(modulus, Ordering.MODULO, CompleteSet.natural(13, modulus), 4,
                              b_values=range(1, 101))
    assert len(result.sboxes) == 100 and passes == [(101, 13)]
    result = enumerate_family(modulus, Ordering.MODULO, CompleteSet.natural(13, modulus), 4,
                              b_values=[3, 3])
    assert len(result.sboxes) == 2 and passes == [(101, 13)] * 2


@pytest.mark.parametrize("p", [29, 53])
@pytest.mark.parametrize("kind", ALL_ORDERINGS, ids=lambda kind: kind.value)
def test_pstar_splits_the_curves_that_agree_at_its_pass(monkeypatch, p, kind):
    """With the pigeonhole floor forced down to m = 1, pstar still takes one
    pass, at m = 3, where nearly every curve agrees with another, and finds
    p* by splitting them size by size."""
    passes = []

    def count(modulus, kind, ys, m):
        passes.append(m)
        return ordering._curve_orders(modulus, kind, ys, m)
    monkeypatch.setattr(generator, "_curve_orders", count)
    monkeypatch.setattr(generator.math, "factorial", lambda m: p)  # every m! >= p - 1
    assert pstar(PrimeModulus(p), kind) == pstar_direct(p, kind)
    assert passes == [3]


@pytest.mark.parametrize("p", [29, 53])
def test_pstar_is_p_minus_1_while_two_curves_agree(monkeypatch, p):
    """If every curve orders [0, m-1] alike at every m, both at the pass and
    split by split, p* is p - 1, the largest size there is."""
    monkeypatch.setattr(generator, "_curve_orders",
                        lambda modulus, kind, ys, m: [list(range(m)) for _ in range(p)])
    monkeypatch.setattr(generator, "rank_of_y", lambda kind, curve, ys: list(ys))
    assert pstar(PrimeModulus(p), Ordering.NATURAL) == p - 1


# Primes in 11..499 where some curves still agree at pstar's pass, under each
# ordering: the least, the first with the largest p*, and the greatest.
SPLIT_CASES = [(p, kind) for kind, primes in ((Ordering.NATURAL, (113, 293, 491)),
                                              (Ordering.DIFFUSION, (41, 293, 491)),
                                              (Ordering.MODULO, (71, 443, 491)))
               for p in primes]


@pytest.mark.parametrize("p, kind", SPLIT_CASES, ids=[f"{p}-{kind.value}" for p, kind in SPLIT_CASES])
def test_pstar_split_matches_tables_from_cube_roots(monkeypatch, p, kind):
    """Where curves still agree at the pass, the split finds p*: two curves'
    tables, built from a table of all cubes, agree at p* and none at p* + 1.
    Agreement only shrinks as m grows, so this pins p* exactly."""
    calls = []

    def count(kind, curve, ys):
        calls.append(len(ys))
        return ordering.rank_of_y(kind, curve, ys)
    monkeypatch.setattr(generator, "rank_of_y", count)
    p_star = pstar(PrimeModulus(p), kind)
    low = next(m for m in range(1, p) if math.factorial(m) >= p - 1)
    assert len(set(natural_tables(p, kind, low + 2))) < p - 1  # curves agree at the pass
    assert calls and min(calls) == low + 3  # so the split ran, from the size above it
    assert len(set(natural_tables(p, kind, p_star))) < p - 1
    assert len(set(natural_tables(p, kind, p_star + 1))) == p - 1


@pytest.mark.parametrize("kind", ALL_ORDERINGS, ids=lambda kind: kind.value)
def test_pstar_first_exceeds_12_at_10463(kind):
    """p* <= 12 holds for every admissible p below 10463 and fails there:
    under each ordering, E_{10463, 1279} and E_{10463, 3437} emit the same
    natural S-box at m = 13, no other two curves do, and they differ at 14."""
    modulus = PrimeModulus(10463)
    assert pstar(modulus, kind, 10463) == 13
    curves = [MordellCurve(modulus, b) for b in (1279, 3437)]
    for m, agree in ((13, True), (14, False)):
        tables = [sbox_direct(c, kind, CompleteSet.natural(m, modulus), 0).table for c in curves]
        assert (tables[0] == tables[1]) is agree
    family = enumerate_family(modulus, kind, CompleteSet.natural(13, modulus), 0, range(1, 10463))
    curves_of = {}
    for b, sbox in enumerate(family.sboxes, 1):
        curves_of.setdefault(sbox.table, []).append(b)
    assert [bs for bs in curves_of.values() if len(bs) > 1] == [[1279, 3437]]


@pytest.mark.parametrize("b_values", [[0], [-1], [11], [1, 2, 0, 3], [2, 11, -1]],
                         ids=["zero", "negative", "p", "mixed", "mixed-bad-last"])
def test_family_refuses_a_bad_b_before_the_pass(monkeypatch, mod11, b_values):
    """A b outside [1, p-1] is refused with `MordellCurve`'s message, before
    the pass: b = 0 and b = -1 would name rows 0 and 10 of it."""
    def refuse(modulus, kind, ys, m):
        raise AssertionError("a pass over F_p x Y was taken")
    monkeypatch.setattr(generator, "_curve_orders", refuse)
    bad = next(b for b in b_values if not 1 <= b <= 10)
    with pytest.raises(MecforgeError) as caught:
        enumerate_family(mod11, Ordering.MODULO, CompleteSet.natural(11, mod11), 3, b_values)
    assert type(caught.value) is MecforgeError
    assert str(caught.value) == f"b = {bad} must lie in [1, p-1]"
    with pytest.raises(MecforgeError, match=rf"b = {bad} must lie in \[1, p-1\]"):
        MordellCurve(mod11, bad)


@pytest.mark.parametrize("kind", ALL_ORDERINGS, ids=lambda kind: kind.value)
def test_family_of_some_b_matches_sbox_direct(kind):
    """Any b-list reads its S-boxes off the whole family, in its own order;
    a b named twice gets the same S-box twice."""
    modulus = PrimeModulus(101)
    cs = CompleteSet.natural(13, modulus)
    b_values = [7, 2, 100, 7, 1, 2]
    result = enumerate_family(modulus, kind, cs, 4, b_values)
    assert result.sboxes == [sbox_direct(MordellCurve(modulus, b), kind, cs, 4) for b in b_values]
    assert result.errors == []
    assert enumerate_family(modulus, kind, cs, 4, iter([5])).sboxes == \
        [sbox_direct(MordellCurve(modulus, 5), kind, cs, 4)]


@pytest.mark.parametrize("p, b_values", [(11, range(1, 11)), (11, [2, 3])],
                         ids=["one-pass", "two-b"])
def test_family_raises_a_fault_in_the_build(monkeypatch, p, b_values):
    """A fault in building a curve's S-box raises, for a whole family and
    for a few of its curves alike."""
    def broken(*args, **kwargs):
        raise RuntimeError("broken build")
    monkeypatch.setattr(generator, "_sbox", broken)
    modulus = PrimeModulus(p)
    with pytest.raises(RuntimeError, match="broken build"):
        enumerate_family(modulus, Ordering.NATURAL, CompleteSet.natural(11, modulus), 0, b_values)


def test_family_refuses_a_bad_shift_once(mod11):
    """k is one parameter of the whole family: refused, not collected per curve."""
    cs = CompleteSet.natural(11, mod11)
    with pytest.raises(MecforgeError, match=r"shift k = 11 must lie in \[0, m-1\]"):
        enumerate_family(mod11, Ordering.NATURAL, cs, 11, b_values=range(1, 11))


def test_family_over_t_covers_all_curves(mod11):
    """The representatives of both classes and t in [1, (p-1)/2] reach every curve."""
    cs = CompleteSet.natural(11, mod11)
    seen = set()
    for cls in (CurveClass.C1, CurveClass.C2):
        rep = MordellCurve(mod11, representative(mod11, cls))
        for t in range(1, 6):
            sbox = sbox_iso(rep, mod11.inverse(t), Ordering.NATURAL, cs, 0)
            seen.add(sbox.provenance_dict()["b"])
    assert seen == set(range(1, 11))


@pytest.mark.parametrize("p", [11, 17, 23, 29])
def test_first_output_separation_lower_bound(p):
    """Distinct C1 curves differ at input k under the natural order, so the
    family contains at least min(m-1, (p-1)/2) distinct tables."""
    modulus = PrimeModulus(p)
    c1_bs = [b for b in range(1, p) if modulus.is_quadratic_residue(b)]
    for m in range(2, p + 1):
        cs = CompleteSet.natural(m, modulus)
        for k in (0, m // 2):
            tables = [sbox_direct(MordellCurve(modulus, b), Ordering.NATURAL, cs, k).table
                      for b in c1_bs]
            assert len(set(tables)) >= min(m - 1, (p - 1) // 2)


def test_sbox_entropy_consistency(curve_52511_1, reference_set_52511):
    sbox = sbox_direct(curve_52511_1, Ordering.NATURAL, reference_set_52511, 0)
    assert math.log2(sbox.m) == 8
