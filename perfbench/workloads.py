"""The benchmark's three workloads, their inputs and their output checks.

A workload is a sequence of rounds.  Round r draws its inputs from
random.Random(f"{workload}:{seed}:{r}") and always has the same make-up
of op kinds, so every round costs about the same and the op-time
distribution does not drift with the seed.  Each round also repeats the
workload's pinned anchors, published values that must be reproduced
exactly.

An op's `run` is the timed part: calls into mecforge's public functions,
as the CLI makes them.  It builds its own modulus, curve and complete
set, as one CLI invocation does, so that whatever mecforge builds or
caches on those objects is paid inside the op and not at input time.
Its `check` runs outside the timed region, recomputes what it can with
the arithmetic in reference.py and returns a list of problems;
`canonical` turns the output into bytes for the digest.
"""

import hashlib
import math
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

import reference

ORDERINGS = ("natural", "diffusion", "modulo")
# The golden S-box the tier-1 tests guard, read from the checkout under test.
GOLDEN_HEX = (pathlib.Path(__file__).resolve().parent.parent
              / "tests" / "data" / "sbox_52511_natural_k0.hex")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    canonical: Callable[[object], bytes]
    items: int
    anchor: Optional[str] = None


def _close3(value, printed) -> bool:
    """A value printed with three decimals (half-up or half-even)."""
    return abs(float(value) - printed) <= 5.0001e-4


class Workload:
    name = ""
    # op_tail_ms keeps at least this share of the ops beyond it, as well as
    # ten.  Preemptions on a shared host lengthen some tens of ops per run
    # by a few ms; at the rank with only ten ops beyond, whether a run
    # caught ten of them or not made stream's tail read 20 ms or 25 ms.
    tail_share = 0.02

    def __init__(self, mf, seed: int):
        self.mf = mf
        self.seed = seed

    def rng(self, r: int) -> Random:
        return Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> list[Op]:
        """Ops run during set-up so that lazy tables are built before timing."""
        raise NotImplementedError


# --- screen: gen-sbox | analyze - at p = 52511, m = 256 -----------------------

SCREEN_P = 52511
SCREEN_M = 256
SCREEN_DRAWN_PER_ROUND = 8


class Screen(Workload):
    """S-box search loop: generate, write as hex, read back, analyse."""

    name = "screen"

    def __init__(self, mf, seed):
        super().__init__(mf, seed)
        self.reference_set = mf.data.reference_complete_set_52511()
        self.aes_text = mf.data.path("aes_sbox.txt").read_text()
        self.golden = GOLDEN_HEX.read_text()
        self.qnr = reference.smallest_qnr(SCREEN_P)

    def round(self, r):
        rng = self.rng(r)
        ops = [self._golden_op(), self._aes_op()]
        ops += [self._drawn_op(rng) for _ in range(SCREEN_DRAWN_PER_ROUND)]
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        return [self._drawn_op(self.rng(-1))]

    def _pipeline(self, make_sbox):
        cli, analysis = self.mf.cli, self.mf.analysis

        def run():
            sbox = make_sbox()
            text = cli.format_sbox(sbox, "hex")
            parsed = cli.parse_sbox(text)
            return sbox, text, parsed, analysis.analyze_sbox(parsed)
        return run

    def _sbox_problems(self, out, b: int, kind: str, elements, k: int) -> list[str]:
        sbox, text, parsed, report = out
        table = list(sbox.table)
        problems = []
        if not reference.is_permutation(table):
            problems.append("table is not a permutation")
        if reference.decode_hex_rows(text) != table or list(parsed.table) != table:
            problems.append("hex format -> parse is not a round trip")
        if reference.sbox_table(SCREEN_P, b, kind, elements, k) != table:
            problems.append("table differs from the independently ordered points")
        if sbox.provenance_dict().get("b") != b:
            problems.append("provenance names another curve")
        problems += _report_problems(report, table)
        return problems

    def _drawn_op(self, rng: Random) -> Op:
        mf, p = self.mf, SCREEN_P
        kind = rng.choice(ORDERINGS)
        elements = reference.random_complete_set(rng, SCREEN_M, p)
        k = rng.randrange(SCREEN_M)
        ordering = mf.ordering.Ordering(kind)
        if rng.random() < 0.5:
            b = rng.randrange(1, p)
            label = "gen-sbox --b"

            def make():
                modulus = mf.field.PrimeModulus(p)
                cs = mf.generator.CompleteSet.validate(elements, SCREEN_M, modulus)
                return mf.generator.sbox_direct(mf.mec.MordellCurve(modulus, b), ordering, cs, k)
        else:
            c1 = rng.random() < 0.5
            t = rng.randrange(1, (p - 1) // 2 + 1)
            b = pow(t, 6, p) * (1 if c1 else self.qnr) % p
            label = "gen-sbox --class --t"
            curve_class = mf.mec.CurveClass.C1 if c1 else mf.mec.CurveClass.C2

            def make():
                modulus = mf.field.PrimeModulus(p)
                cs = mf.generator.CompleteSet.validate(elements, SCREEN_M, modulus)
                rep = mf.mec.MordellCurve(modulus, mf.mec.representative(modulus, curve_class))
                return mf.generator.sbox_iso(rep, modulus.inverse(t), ordering, cs, k)

        def check(out):
            return self._sbox_problems(out, b, kind, elements, k)

        def canonical(out):
            return _sbox_canonical(f"{label} b={b} {kind} k={k}", out)
        return Op(label, self._pipeline(make), check, canonical, 1)

    def _golden_op(self) -> Op:
        mf = self.mf
        natural = mf.ordering.Ordering.NATURAL

        def make():
            modulus = mf.field.PrimeModulus(SCREEN_P)
            cs = mf.generator.CompleteSet.validate(self.reference_set, SCREEN_M, modulus)
            return mf.generator.sbox_direct(mf.mec.MordellCurve(modulus, 1), natural, cs, 0)

        def check(out):
            problems = self._sbox_problems(out, 1, "natural", self.reference_set, 0)
            report = out[3]
            if out[1] != self.golden:
                problems.append("anchor: golden S-box is not byte-exact")
            if not (report.nl == 112 and _close3(report.lap, 0.063) and _close3(report.dap, 0.016)
                    and report.ac == 255 and _close3(report.sac_min, 0.438)
                    and _close3(report.sac_max, 0.563) and _close3(report.bic_min, 0.479)
                    and _close3(report.bic_max, 0.521)):
                problems.append("anchor: golden S-box metrics differ from the published ones")
            return problems

        def canonical(out):
            return _sbox_canonical("golden", out)
        return Op("gen-sbox golden", self._pipeline(make), check, canonical, 1,
                  anchor="screen.golden_sbox")

    def _aes_op(self) -> Op:
        cli, analysis = self.mf.cli, self.mf.analysis

        def run():
            parsed = cli.parse_sbox(self.aes_text)
            return parsed, analysis.analyze_sbox(parsed)

        def check(out):
            parsed, report = out
            problems = _report_problems(report, list(parsed.table))
            if not (report.nl == 112 and report.lap == Fraction(1, 16)
                    and report.dap == Fraction(1, 64) and report.ac == 9
                    and _close3(report.sac_min, 0.453) and _close3(report.sac_max, 0.562)
                    and _close3(report.bic_min, 0.480)):
                problems.append("anchor: AES metrics differ from the published ones")
            return problems

        def canonical(out):
            return out[1].to_json().encode()
        return Op("analyze aes", run, check, canonical, 1, anchor="screen.aes_metrics")


def _report_problems(report, table) -> list[str]:
    """Consistency of an analysis report with itself and with the table."""
    n = (len(table) - 1).bit_length()
    problems = []
    if report.nl != (1 << (n - 1)) - report.lap * (1 << n):
        problems.append("NL and LAP disagree")
    if report.fixed_points != sum(1 for i, v in enumerate(table) if i == v):
        problems.append("fixed-point count is wrong")
    if not 0 < report.dap <= 1 or not 0 <= report.sac_min <= report.sac_max <= 1 \
            or not 0 <= report.bic_min <= report.bic_max <= 1:
        problems.append("a probability lies outside [0, 1]")
    return problems


def _sbox_canonical(tag: str, out) -> bytes:
    return f"{tag}\n{out[1]}{out[3].to_json()}\n".encode()


# --- sweep: pstar over 11..499 and whole families near p = 2111 ---------------

PSTAR_PRIMES = reference.admissible_primes(11, 499)
PSTAR_ANCHOR_MAX = 12
DISTINCT_ANCHOR_PRIMES = (17, 53, 101, 293, 443, 491)
DISTINCT_ANCHOR_M = 13
FAMILY_PRIMES = reference.admissible_primes(2011, 2211)
FAMILY_M = 256
FAMILIES_PER_ROUND = 2
FAMILY_SPOT_CHECKS = 8


class Sweep(Workload):
    """Exhaustive family statistics: every curve of one modulus per op."""

    name = "sweep"
    # A round is 55 ops of very different sizes, and a run holds one, two
    # or three rounds as the machine's speed allows.  A fixed share keeps
    # the tail at the same op whatever the count: ten ops beyond is p81.8
    # of one round but p90.9 of two.
    tail_share = 0.182

    def round(self, r):
        rng = self.rng(r)
        ops = [self._pstar_op(p) for p in PSTAR_PRIMES]
        ops += [self._family_op(p, "natural", list(range(DISTINCT_ANCHOR_M)), 0,
                                range(1, p), anchor=True)
                for p in DISTINCT_ANCHOR_PRIMES]
        for _ in range(FAMILIES_PER_ROUND):
            p = rng.choice(FAMILY_PRIMES)
            ops.append(self._family_op(p, rng.choice(ORDERINGS),
                                       reference.random_complete_set(rng, FAMILY_M, p),
                                       rng.randrange(FAMILY_M),
                                       rng.sample(range(1, p), FAMILY_SPOT_CHECKS)))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        return [self._pstar_op(11), self._family_op(11, "natural", list(range(11)), 0, [1])]

    def _pstar_op(self, p: int) -> Op:
        mf = self.mf
        natural = mf.ordering.Ordering.NATURAL

        def run():
            return mf.generator.pstar(mf.field.PrimeModulus(p), natural)

        def check(value):
            problems = []
            if value > PSTAR_ANCHOR_MAX:
                problems.append(f"anchor: p* = {value} > {PSTAR_ANCHOR_MAX} at p = {p}")
            if not reference.pstar_holds(p, value):
                problems.append(f"p* = {value} at p = {p} fails the collision test")
            return problems

        def canonical(value):
            return f"pstar {p} {value}\n".encode()
        return Op(f"pstar {p}", run, check, canonical, p - 1, anchor="sweep.pstar_max_12")

    def _family_op(self, p: int, kind: str, elements: list[int], k: int, spot,
                   anchor: bool = False) -> Op:
        """enumerate_family over every b, then distinct_count and fixed_points.

        `spot` names the b whose tables are rebuilt independently.
        """
        mf = self.mf
        m = len(elements)
        ordering = mf.ordering.Ordering(kind)

        def run():
            modulus = mf.field.PrimeModulus(p)
            cs = mf.generator.CompleteSet.validate(elements, m, modulus)
            result = mf.generator.enumerate_family(modulus, ordering, cs, k, b_values=range(1, p))
            boxes = result.sboxes
            return (result, mf.analysis.distinct_count(boxes),
                    [mf.analysis.fixed_points(s) for s in boxes])

        def check(out):
            result, distinct, fps = out
            tables = [s.table for s in result.sboxes]
            problems = []
            if result.errors or len(tables) != p - 1:
                problems.append(f"family at p = {p} has {len(result.errors)} errors")
            elif not all(reference.is_permutation(t) for t in tables):
                problems.append("a family table is not a permutation")
            elif any(list(tables[b - 1]) != reference.sbox_table(p, b, kind, elements, k)
                     for b in spot):
                problems.append("a family table differs from the independently ordered points")
            if distinct != len(set(tables)):
                problems.append("distinct_count is wrong")
            if fps != [sum(1 for i, v in enumerate(t) if i == v) for t in tables]:
                problems.append("fixed_points is wrong")
            if anchor and distinct != p - 1:
                problems.append(f"anchor: {distinct} distinct S-boxes at p = {p}, m = {m}, "
                                f"expected {p - 1}")
            return problems

        def canonical(out):
            result, distinct, fps = out
            tables = [s.table for s in result.sboxes]
            h = hashlib.sha256(repr((tables, fps)).encode()).hexdigest()
            return f"family {p} {kind} m={m} k={k} {distinct} {len(result.errors)} {h}\n".encode()
        return Op(f"family {p} m={m}", run, check, canonical, p - 1,
                  anchor="sweep.distinct_m13" if anchor else None)


# --- stream: sequences and single S-boxes, work scaling with |A| or m ----------

STREAM_FULL_P = 3917
STREAM_FULL_MS = (STREAM_FULL_P, 16, 2)
STREAM_LARGE_P = (1 << 16, (1 << 20) - 1000)
STREAM_SUBSET_SIZE = (2048, 4096)
STREAM_GROUPS_PER_ROUND = 20
STREAM_SUBSETS_PER_GROUP = 3
STREAM_SBOXES_PER_GROUP = 10
STREAM_SBOX_M = 256


class Stream(Workload):
    """One curve at a time: lookups for |A| or m points, never all p."""

    name = "stream"

    def round(self, r):
        rng = self.rng(r)
        ops = [self._sprn_op(STREAM_FULL_P, 301, "natural", range(STREAM_FULL_P),
                             STREAM_FULL_P, 0, histogram=True, anchor="stream.p3917_b301"),
               self._sprn_op(101, 35, "natural", range(101), 6, 0, anchor="stream.p101_b35")]
        for _ in range(STREAM_GROUPS_PER_ROUND):
            for m in STREAM_FULL_MS:
                ops.append(self._sprn_op(STREAM_FULL_P, rng.randrange(1, STREAM_FULL_P),
                                         rng.choice(ORDERINGS), range(STREAM_FULL_P), m,
                                         rng.randrange(m), histogram=True))
            for _ in range(STREAM_SUBSETS_PER_GROUP):
                p = _large_prime(rng)
                ys = rng.sample(range(p), rng.randint(*STREAM_SUBSET_SIZE))
                m = rng.choice((len(ys), 16, 2))
                ops.append(self._sprn_op(p, rng.randrange(1, p), rng.choice(ORDERINGS), ys, m,
                                         rng.randrange(m)))
            ops += [self._sbox_op(rng) for _ in range(STREAM_SBOXES_PER_GROUP)]
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        rng = self.rng(-1)
        return [self._sprn_op(101, 1, "natural", range(101), 6, 0, histogram=True),
                self._sbox_op(rng)]

    def _sprn_op(self, p: int, b: int, kind: str, ys, m: int, k: int,
                 histogram: bool = False, anchor: Optional[str] = None) -> Op:
        mf = self.mf
        ordering = mf.ordering.Ordering(kind)
        analysis = mf.analysis

        def run():
            curve = mf.mec.MordellCurve(mf.field.PrimeModulus(p), b)
            seq = mf.generator.sprn(curve, ordering, ys, m, k)
            hist = analysis.histogram(seq) if histogram else None
            return seq, analysis.entropy(seq), analysis.period(seq), hist

        def check(out):
            seq, ent, per, hist = out
            values = list(seq.values)
            problems = []
            ordered = reference.ordered_ys(p, b, kind, sorted(set(ys)))
            if values != reference.shifted_mod(ordered, m, k):
                problems.append("sequence differs from the independently ordered points")
            if not math.isclose(ent, reference.entropy(values), rel_tol=1e-12):
                problems.append("entropy is wrong")
            if per != reference.period(values):
                problems.append("period is wrong")
            if hist is not None and (sum(hist.frequencies.values()) != len(ordered)
                                     or hist.length != len(ordered)):
                problems.append("histogram counts do not sum to |A|")
            if anchor == "stream.p3917_b301" and not (
                    abs(ent - 11.9355) <= 1e-4 and per == 3917
                    and set(hist.frequencies.values()) == {1}):
                problems.append("anchor: p = 3917, b = 301 entropy/period/histogram")
            if anchor == "stream.p101_b35" and per != 99:
                problems.append(f"anchor: period {per} at p = 101, b = 35, m = 6, expected 99")
            return problems

        def canonical(out):
            seq, ent, per, hist = out
            h = hashlib.sha256(repr((seq.values, hist and sorted(hist.frequencies.items())))
                               .encode()).hexdigest()
            return f"sprn {p} {b} {kind} |A|={len(seq.values)} m={m} k={k} {ent!r} {per} {h}\n".encode()
        return Op(f"gen-prn p={p} m={m}", run, check, canonical, len(ys), anchor=anchor)

    def _sbox_op(self, rng: Random) -> Op:
        mf = self.mf
        p = _large_prime(rng)
        c1 = rng.random() < 0.5
        t = rng.randrange(1, (p - 1) // 2 + 1)
        kind = rng.choice(ORDERINGS)
        elements = reference.random_complete_set(rng, STREAM_SBOX_M, p)
        k = rng.randrange(STREAM_SBOX_M)
        ordering = mf.ordering.Ordering(kind)
        curve_class = mf.mec.CurveClass.C1 if c1 else mf.mec.CurveClass.C2
        b = pow(t, 6, p) * (1 if c1 else reference.smallest_qnr(p)) % p

        def run():
            modulus = mf.field.PrimeModulus(p)
            cs = mf.generator.CompleteSet.validate(elements, STREAM_SBOX_M, modulus)
            rep = mf.mec.MordellCurve(modulus, mf.mec.representative(modulus, curve_class))
            return mf.generator.sbox_iso(rep, modulus.inverse(t), ordering, cs, k)

        def check(sbox):
            table = list(sbox.table)
            problems = []
            if not reference.is_permutation(table):
                problems.append("table is not a permutation")
            if table != reference.sbox_table(p, b, kind, elements, k):
                problems.append("table differs from the independently ordered points")
            if sbox.provenance_dict().get("b") != b:
                problems.append("provenance names another curve")
            return problems

        def canonical(sbox):
            return f"sbox {p} {b} {kind} k={k} {bytes(sbox.table).hex()}\n".encode()
        return Op("gen-sbox --class --t", run, check, canonical, STREAM_SBOX_M)


def _large_prime(rng: Random) -> int:
    p = rng.randrange(*STREAM_LARGE_P)
    while not (p % 3 == 2 and reference.is_prime(p)):
        p += 1
    return p


WORKLOADS = {w.name: w for w in (Screen, Sweep, Stream)}
