"""End-to-end acceptance checks.

One test per published claim the package is expected to reproduce, each at
its stated tolerance.  The full-scale family statistics are expensive and
live in the opt-in slow tier (``pytest -m slow``).
"""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from mecforge import data
from mecforge.analysis import (
    analyze_sbox,
    distinct_count,
    entropy,
    fixed_points,
    histogram,
    period,
)
from mecforge.cli import main
from mecforge.field import PrimeModulus, is_prime
from mecforge.generator import CompleteSet, count_sboxes, pstar, sbox_direct, sbox_iso, sprn
from mecforge.mec import CurveClass, MordellCurve, representative
from mecforge.ordering import Ordering

from oracles import count_complete_sets_exhaustive, rep_and_param, sbox_transport, sbox_trial_loop

ADMISSIBLE_UNDER_200 = [p for p in range(5, 200) if is_prime(p) and p % 3 == 2]


def close3(value, printed):
    """Match a value printed with 3 decimals (half-up or half-even)."""
    return abs(float(value) - printed) <= 5.0001e-4


def test_criterion_01_reference_sbox_byte_exact(capsys, golden_sbox_52511):
    start = time.perf_counter()
    code = main(["gen-sbox", "--p", "52511", "--b", "1", "--ordering", "natural",
                 "--set", str(data.path("complete_set_52511.txt")), "--format", "hex"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    digits = "".join(out.split())
    table = [int(digits[i:i + 2], 16) for i in range(0, len(digits), 2)]
    assert table == golden_sbox_52511
    assert elapsed < 1.0


def test_criterion_02_aes_reference_metrics(aes_sbox_table):
    from mecforge.generator import SBox
    report = analyze_sbox(SBox(tuple(aes_sbox_table), 256))
    assert report.nl == 112
    assert report.lap == Fraction(1, 16)
    assert report.dap == Fraction(1, 64)
    assert report.ac == 9
    assert close3(report.sac_min, 0.453)
    assert close3(report.sac_max, 0.562)
    assert close3(report.bic_min, 0.480)


@pytest.mark.xfail(strict=True, reason="pair-averaged BIC maximum of the AES "
                   "S-box is 0.525; the 0.504 reference figure matches the "
                   "matrix-wide average, not the maximum")
def test_criterion_02b_aes_bic_max(aes_sbox_table):
    from mecforge.generator import SBox
    report = analyze_sbox(SBox(tuple(aes_sbox_table), 256))
    assert close3(report.bic_max, 0.504)


def test_criterion_03_generated_sbox_metrics(curve_52511_1, reference_set_52511):
    sbox = sbox_direct(curve_52511_1, Ordering.NATURAL, reference_set_52511, 0)
    report = analyze_sbox(sbox)
    assert report.nl == 112
    assert close3(report.lap, 0.063)
    assert close3(report.dap, 0.016)
    assert report.ac == 255
    assert close3(report.sac_min, 0.438)
    assert close3(report.sac_max, 0.563)
    assert close3(report.bic_min, 0.479)
    assert close3(report.bic_max, 0.521)


def test_criterion_04_counting_formula():
    per_k, _ = count_sboxes(263, 256)
    assert per_k == 128
    for p in [5, 11, 17, 23, 29]:
        for m in range(1, min(9, p + 1)):
            assert count_sboxes(p, m)[0] == count_complete_sets_exhaustive(p, m)
    assert count_sboxes(31, 8)[0] == count_complete_sets_exhaustive(31, 8)


def test_criterion_05_sequence_statistics(curve_52511_1, reference_set_52511):
    x2 = sprn(curve_52511_1, Ordering.NATURAL, reference_set_52511.elements, 16, 0)
    assert entropy(x2) == 4.0

    mod3917 = PrimeModulus(3917)
    x4 = sprn(MordellCurve(mod3917, 301), Ordering.NATURAL, range(3917), 3917, 0)
    assert abs(entropy(x4) - 11.9355) <= 1e-4
    assert period(x4) == 3917
    hist = histogram(x4)
    assert hist.frequencies == dict.fromkeys(range(3917), 1)

    mod101 = PrimeModulus(101)
    x3 = sprn(MordellCurve(mod101, 35), Ordering.NATURAL, range(101), 6, 0)
    assert period(x3) == 99


def test_criterion_06_construction_paths_agree():
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    for _ in range(200):
        p = rng.choice([q for q in ADMISSIBLE_UNDER_200 if q >= 11])
        modulus = PrimeModulus(p)
        b = rng.randrange(1, p)
        m = rng.randrange(1, p + 1)
        k = rng.randrange(m)
        kind = rng.choice(list(Ordering))
        q, r = divmod(p, m)
        elements = [rng.randrange(q + 1 if res < r else q) * m + res for res in range(m)]
        cs = CompleteSet.validate(elements, m, modulus)
        curve = MordellCurve(modulus, b)

        direct = sbox_direct(curve, kind, cs, k)
        assert sorted(direct.table) == list(range(m))
        rep_b, t = rep_and_param(p, [representative(modulus, cls) for cls in CurveClass], b)
        via_iso = sbox_iso(MordellCurve(modulus, rep_b), modulus.inverse(t), kind, cs, k)
        assert via_iso.table == direct.table
        assert via_iso.provenance == direct.provenance
        assert sbox_trial_loop(p, b, kind, cs.elements, k).table == direct.table
        assert sbox_transport(p, rep_b, t, kind, cs.elements, k).table == direct.table
    assert time.perf_counter() - start < 30


def test_criterion_07_histogram_and_entropy_closed_forms():
    rng = random.Random(0xFEED)
    for _ in range(100):
        p = rng.choice([q for q in ADMISSIBLE_UNDER_200 if q >= 11])
        modulus = PrimeModulus(p)
        m = rng.randrange(1, p + 1)
        h = rng.randrange(1, m + 1)
        k = rng.randrange(h)
        b = rng.randrange(1, p)
        kind = rng.choice(list(Ordering))
        seq = sprn(MordellCurve(modulus, b), kind, range(m), h, k)

        q, r = divmod(m, h)
        hist = histogram(seq)
        assert hist.frequencies == {w: q + 1 if w < r else q for w in range(h)}

        if r == 0:
            expected = math.log2(h)
        else:
            expected = (-r * ((q + 1) / m) * math.log2((q + 1) / m)
                        - (h - r) * (q / m) * math.log2(q / m))
        assert abs(entropy(seq) - expected) <= 1e-10


def test_criterion_08_distinctness_desk_scale():
    primes = [p for p in range(11, 500) if is_prime(p) and p % 3 == 2]
    worst = 0
    for p in primes:
        modulus = PrimeModulus(p)
        worst = max(worst, pstar(modulus, Ordering.NATURAL))
    assert worst <= 12

    for p in [17, 53, 101, 293, 443, 491]:
        modulus = PrimeModulus(p)
        cs = CompleteSet.natural(13, modulus)
        boxes = [sbox_direct(MordellCurve(modulus, b), Ordering.NATURAL, cs, 0)
                 for b in range(1, p)]
        assert distinct_count(boxes) == p - 1


def _median_times(small, large, repeats):
    """Median run times of two functions, timed in alternation, so that a
    drift in host speed during the samples falls on both alike."""
    times = ([], [])
    for _ in range(repeats):
        for fn, samples in zip((small, large), times):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    return statistics.median(times[0]), statistics.median(times[1])


def test_criterion_09_generation_scales_with_m_not_p():
    def iso_run(p):
        modulus = PrimeModulus(p)
        rep = MordellCurve(modulus, 1)
        cs = CompleteSet.natural(256, modulus)
        t = (p - 1) // 3
        return lambda: sbox_iso(rep, modulus.inverse(t), Ordering.NATURAL, cs, 0)

    small, large = _median_times(iso_run(16421), iso_run(1048583), 7)  # ~2^14, ~2^20
    assert large < 2 * small

    def oracle_run(p):
        cs = CompleteSet.natural(32, PrimeModulus(p))
        return lambda: sbox_trial_loop(p, 1, Ordering.NATURAL, cs.elements, 0)

    oracle_small, oracle_large = _median_times(oracle_run(4127), oracle_run(16421), 3)  # ~2^12, ~2^14
    assert oracle_large > 1.8 * oracle_small


def _sample_family(p, b, samples, seed):
    modulus = PrimeModulus(p)
    curve = MordellCurve(modulus, b)
    rng = random.Random(seed)
    q, r = divmod(p, 256)
    tables = set()
    fp_total = 0
    for _ in range(samples):
        elements = [rng.randrange(q + 1 if res < r else q) * 256 + res for res in range(256)]
        cs = CompleteSet.validate(elements, 256, modulus)
        sbox = sbox_direct(curve, Ordering.NATURAL, cs, 0)
        tables.add(sbox.table)
        fp_total += fixed_points(sbox)
    return tables, fp_total / samples


@pytest.mark.slow
def test_criterion_10_full_scale_distinct_count():
    """Sampled family at p = 1889, b = 1888, natural order, k = 0 exceeds
    32768 distinct tables."""
    tables, _ = _sample_family(1889, 1888, 33000, seed=1889)
    assert len(tables) > 32768


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="the reference fixed-point averages "
                   "come from one specific structured sample of complete sets "
                   "that was never published (its modulo-order variant even "
                   "contains mass collisions, which uniform sampling cannot "
                   "produce); uniform resampling converges to 1.25 at p=1889 "
                   "while matching the other two primes within tolerance")
def test_criterion_10b_family_average_fixed_points():
    for p, b, printed in [(1889, 1888, 1.1298), (2111, 1, 1.0844), (2141, 7, 1.0972)]:
        _, avg = _sample_family(p, b, 8000, seed=p)
        assert abs(avg - printed) <= 0.05, f"p={p}: sampled {avg:.4f} vs {printed}"
