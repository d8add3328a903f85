"""Command-line front end.

Subcommands: gen-sbox, gen-prn, analyze, count, pstar, family.
stdout carries data, stderr carries diagnostics and provenance lines.  A
closed stdin or stdout is an I/O failure (3); a closed or full stderr loses
only the diagnostics.
gen-sbox and gen-prn write hex, CSV or JSON (--format); analyze reads what
they write and tells the three apart by shape; the others print JSON.
Exit codes: 0 success, 2 invalid parameters, 3 I/O failure, 4 a metric was
not applicable to the input size, 5 exhaustive range too large.  Each class
in `errors` carries its code; argparse's usage errors exit 2.  Each flag's
`type=` callable converts and checks it, for --config values too.  An integer,
in a flag or a file, is ASCII digits (hex in hex formats): no sign, '_' or gap.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence

from . import analysis, data
from .errors import IOFailure, MecforgeError, NotPowerOfTwo, TooLarge
from .field import PrimeModulus
from .generator import (
    DEFAULT_MAX_PSTAR_P,
    CompleteSet,
    SBox,
    SprnSequence,
    count_sboxes,
    enumerate_family,
    pstar,
    sbox_direct,
    sprn,
)
from .mec import CurveClass, MordellCurve, representative
from .ordering import Ordering

EXIT_OK = 0
EXIT_BAD_PARAMS = MecforgeError.exit_code
EXIT_IO = IOFailure.exit_code
EXIT_UNSUPPORTED_METRIC = NotPowerOfTwo.exit_code
EXIT_RANGE_TOO_LARGE = TooLarge.exit_code

# gen-prn --A full and gen-sbox --set natural order up to this many ys.  At
# p = 1048571, peak RSS above the import per y: 83 bytes (natural) and 137
# (diffusion, modulo) for --A full; up to about 190 for --set natural --m p,
# which also validates and writes its table, and about 170 for an m just
# below p/5, which looks its points up.  So at most about 0.8 GB here.
MAX_ORDERED_YS = 1 << 22
# family --correlation multiplies m entries for each of the (p-1)(p-2)/2
# pairs of S-boxes, about 70 ns a product (CPython 3.11, one core of a
# shared 2-vCPU Xeon): at most about 10 s.
MAX_CORRELATION_PRODUCTS = 1 << 27


# --- input parsing -----------------------------------------------------------

_DIGITS = {10: frozenset("0123456789"), 16: frozenset("0123456789abcdefABCDEF")}
_BOUND = 1 << 2048  # 617 digits: int() and str() pass any CPython digit limit (>= 640)


def _integers(tokens: Iterable[str], base: int = 10) -> list[int]:
    """The one integer reader: each token is ASCII digits of `base`, below _BOUND."""
    digits, values = _DIGITS[base], []
    for tok in tokens:
        if not tok or not digits.issuperset(tok):
            raise MecforgeError(f"malformed integer token {tok!r}")
        values.append(int(tok, base) if len(tok) <= 640 else _BOUND)
        if values[-1] >= _BOUND:
            raise MecforgeError(f"integer token of {len(tok)} digits: at most 640, below 2^2048")
    return values


def parse_integer_tokens(text: str) -> list[int]:
    """Whitespace-separated integers of complete-set and --A files: hex once any
    token is not all decimal digits (as in the published complete sets), else decimal."""
    tokens = text.split()
    if not tokens:
        raise MecforgeError("empty integer list")
    return _integers(tokens, 10 if _DIGITS[10].issuperset("".join(tokens)) else 16)


def read_text(path: str) -> str:
    try:
        # undecodable bytes read as lone surrogates, which no reader accepts: exit 2
        if path == "-":
            if sys.stdin is None:  # Python's stdin when descriptor 0 was closed at start
                raise OSError("stdin is closed")
            return sys.stdin.read()
        with open(path, errors="surrogateescape") as f:
            return f.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IOFailure(f"cannot read {path}: {exc}") from exc


def _write(stream, text: str) -> None:
    """Write and flush a standard stream, or raise OSError.  Python sets a stream
    whose descriptor was closed at start to None.  A stream that fails is pointed
    at the null device: its buffer keeps the text, and the flush at interpreter
    exit must not fail again (the Python docs' SIGPIPE recipe)."""
    if stream is None:
        raise OSError("it is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def write_output(text: str, out: str | None) -> None:
    try:
        if out is None:
            _write(sys.stdout, text)
        else:  # an empty path too, which open() refuses
            with open(out, "w") as f:
                f.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IOFailure(f"cannot write {'stdout' if out is None else out}: {exc}") from exc


def note(text: str) -> None:
    """Diagnostics on stderr: a closed or full stderr loses them and nothing else."""
    try:
        _write(sys.stderr, text)
    except OSError:
        pass


# --- S-box / sequence serialization ------------------------------------------

def format_sbox(sbox: SBox, fmt: str) -> str:
    if fmt == "hex":
        width = max(2, len(f"{sbox.m - 1:x}"))
        lines = []
        for row in range(0, sbox.m, 16):
            lines.append("".join(f"{v:0{width}x}" for v in sbox.table[row:row + 16]))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return ",".join(str(v) for v in sbox.table) + "\n"
    if fmt == "json":
        payload = {"m": sbox.m, "table": list(sbox.table), "provenance": sbox.provenance_dict()}
        return json.dumps(payload) + "\n"
    raise MecforgeError(f"unknown format {fmt!r}")


def parse_sbox(text: str) -> SBox:
    """An S-box as `format_sbox` writes it: JSON, CSV or hex, told apart by shape."""
    text = text.strip()
    if text.startswith("{"):
        payload = json.loads(text)
        table, prov = payload["table"], payload.get("provenance", {})
        if not (isinstance(table, list) and all(type(v) is int for v in table)
                and type(payload.get("m", 0)) is int and isinstance(prov, dict)):
            raise MecforgeError("JSON needs an integer list 'table', an integer 'm' if any,"
                                " and an object 'provenance'")
        return SBox(tuple(table), payload.get("m", len(table)), tuple(sorted(prov.items())))
    if "," in text or len(text) == 1:  # hex has at least 2 digits: 1 is m = 1's CSV
        table = _integers(t.strip() for t in text.replace("\n", ",").split(","))
        return SBox(tuple(table), len(table))
    # hex: format_sbox's fixed-width entries at w = max(2, hex digits of
    # m - 1), the least w >= 2 with len(digits) = m * w <= w * 16**w.
    digits = "".join(text.split())
    width = 2
    while len(digits) > width * 16 ** width:
        width += 1
    if len(digits) % width:
        raise MecforgeError("malformed hex S-box file")
    table = _integers((digits[i:i + width] for i in range(0, len(digits), width)), 16)
    return SBox(tuple(table), len(table))


def format_sequence(seq: SprnSequence, fmt: str) -> str:
    if fmt == "csv":
        return ",".join(str(v) for v in seq.values) + "\n"
    if fmt == "json":
        payload = {"m": seq.m, "values": list(seq.values), "provenance": seq.provenance_dict()}
        return json.dumps(payload) + "\n"
    if fmt == "hex":
        width = max(2, len(f"{max(seq.values):x}"))
        return " ".join(f"{v:0{width}x}" for v in seq.values) + "\n"
    raise MecforgeError(f"unknown format {fmt!r}")


def parse_sequence(text: str) -> list[int]:
    """A sequence as `format_sequence` writes it: whitespace-separated tokens are hex."""
    text = text.strip()
    if text.startswith("{"):
        values = json.loads(text)["values"]
        if not (type(values) is list and all(type(v) is int and 0 <= v < _BOUND for v in values)):
            raise MecforgeError("'values' must be a list of integers in [0, 2^2048)")
        return values
    if "," in text:
        return _integers(t.strip() for t in text.replace("\n", ",").split(","))
    return _integers(text.split(), 16)


# --- flag types ----------------------------------------------------------------
# argparse reports a ValueError from these as "invalid <function name> value".

def admissible(p: int) -> PrimeModulus | None:
    """The modulus of p, or None if `PrimeModulus` refuses p: --p and pstar's range filter."""
    try:
        return PrimeModulus(p)
    except MecforgeError:
        return None


def integer(text: str) -> int:
    return _integers([text])[0]


def prime(text: str) -> PrimeModulus:
    modulus = admissible(integer(text))
    if modulus is None:
        raise argparse.ArgumentTypeError("p must be prime with p = 2 (mod 3)")
    return modulus


def ordering(text: str) -> Ordering:
    try:
        return Ordering(text.strip().lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown ordering {text!r}; "
                                         "expected one of: natural, diffusion, modulo") from None


def curve_class(text: str) -> CurveClass:
    try:
        return CurveClass(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown curve class {text!r}; expected c1 or c2") from None


def prime_range(text: str) -> range:
    lo, hi = _integers(text.partition("..")[::2])
    return range(lo, hi + 1)


def output_format(text: str) -> str:
    if text not in ("hex", "csv", "json"):
        raise ValueError(text)
    return text


class ConfigFile(argparse.Action):
    """--config FILE: a flat key = value file whose keys are the long names of
    the command's other value-taking flags, '-' read as '_'.

    The action checks the keys and lifts `required` from the flags the file
    sets, so that the parse succeeds; main() then makes the values the
    command's defaults and parses again, so that explicit flags still win.
    A later --config file adds to an earlier one."""

    def __call__(self, parser, namespace, path, option_string=None):
        flags = {action.option_strings[-1][2:].replace("-", "_"): action
                 for action in parser._actions
                 if action.option_strings and action.nargs != 0 and action is not self}
        _, config = getattr(namespace, self.dest) or (parser, {})
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MecforgeError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise MecforgeError(f"{path}:{lineno}: unknown key {key!r}; "
                                    f"expected one of: {', '.join(sorted(flags))}")
            action.required = False
            config[action.dest] = value
        setattr(namespace, self.dest, (parser, config))


# --- shared argument resolution ---------------------------------------------------

def resolve_curve(args) -> MordellCurve:
    """The curve E_{p, b} of --b, or E_{p, t^6 b} for the representative b of
    --class and the isomorphism parameter --t."""
    modulus = args.modulus
    if (args.b is None) == (args.curve_class is None and args.t is None):
        raise MecforgeError("specify either --b, or --class together with --t")
    if args.b is not None:
        return MordellCurve(modulus, args.b)
    if args.curve_class is None or args.t is None:
        raise MecforgeError("--class and --t must be given together")
    if not 1 <= args.t <= (modulus.p - 1) // 2:
        raise MecforgeError(f"t must lie in [1, (p-1)/2], got {args.t}")
    return MordellCurve(modulus, representative(modulus, args.curve_class)).isomorphic(args.t)


def resolve_complete_set(args) -> CompleteSet:
    if args.set == "natural":
        if args.m is None:
            raise MecforgeError("--m is required with --set natural")
        if args.modulus.p >= args.m > MAX_ORDERED_YS:  # m > p exits 2 in CompleteSet.validate
            raise TooLarge(f"m = {args.m} too large for --set natural (at most {MAX_ORDERED_YS})")
        return CompleteSet.natural(args.m, args.modulus)
    elements = parse_integer_tokens(read_text(args.set))
    m = len(elements) if args.m is None else args.m
    return CompleteSet.validate(elements, m, args.modulus)


# --- commands ------------------------------------------------------------------

def cmd_gen_sbox(args) -> tuple[str, int]:
    complete_set = resolve_complete_set(args)
    curve = resolve_curve(args)
    sbox = sbox_direct(curve, args.ordering, complete_set, args.k)
    note(f"sbox p={curve.p} b={curve.b} ordering={args.ordering.value} m={sbox.m} k={args.k}\n")
    return format_sbox(sbox, args.format), EXIT_OK


def cmd_gen_prn(args) -> tuple[str, int]:
    curve = resolve_curve(args)
    if args.A == "full":
        if curve.p > MAX_ORDERED_YS:
            raise TooLarge(f"p = {curve.p} too large for --A full (at most {MAX_ORDERED_YS})")
        y_set = range(curve.p)
    else:
        y_set = parse_integer_tokens(read_text(args.A))
    seq = sprn(curve, args.ordering, y_set, args.m, args.k)
    note(f"prn p={curve.p} b={curve.b} ordering={args.ordering.value} "
         f"|A|={len(seq.values)} m={seq.m} k={args.k} entropy={analysis.entropy(seq):.4f}\n")
    return format_sequence(seq, args.format), EXIT_OK


def cmd_analyze(args) -> tuple[str, int]:
    text = data.read("aes_sbox.txt") if args.input == "aes" else read_text(args.input)
    name, parse = ("sequence", parse_sequence) if args.kind == "prn" else ("S-box", parse_sbox)
    try:
        values = sbox = parse(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # JSON nested too deep
        raise MecforgeError(f"malformed {name} input: {exc}") from exc
    if args.kind == "prn":
        if not values:
            raise MecforgeError("empty sequence")
        hist = analysis.histogram(values)
        payload = {
            "length": hist.length,
            "entropy": round(analysis.entropy(values), 4),
            "period": analysis.period(values),
            "histogram": {str(k): v for k, v in sorted(hist.frequencies.items())},
        }
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    report = analysis.analyze_sbox(sbox)
    return (report.to_json(indent=2) + "\n",
            EXIT_UNSUPPORTED_METRIC if report.ac is None else EXIT_OK)


def cmd_count(args) -> tuple[str, int]:
    per_k, total = count_sboxes(args.modulus.p, args.m)
    payload = {"p": args.modulus.p, "m": args.m, "per_k": per_k, "total": total}
    return json.dumps(payload) + "\n", EXIT_OK


def cmd_pstar(args) -> tuple[str, int]:
    # Before any work: the largest admissible p is a few tests from the top end.
    top = next((p for p in reversed(args.primes) if admissible(p)), None)
    if top is not None and top > args.max_p:
        raise TooLarge(f"p = {top} exceeds the exhaustive guard {args.max_p}")
    rows = [{"p": modulus.p, "pstar": pstar(modulus, args.ordering, args.max_p)}
            for modulus in map(admissible, args.primes) if modulus]
    return json.dumps(rows, indent=2) + "\n", EXIT_OK


def cmd_family(args) -> tuple[str, int]:
    modulus = args.modulus
    complete_set = resolve_complete_set(args)
    if args.correlation and complete_set.m < 2:
        raise MecforgeError(f"--correlation needs m >= 2, got m = {complete_set.m}")
    if modulus.p > args.max_p:
        raise TooLarge(f"p = {modulus.p} too large for exhaustive family "
                       f"(raise --max-p to override)")
    products = (modulus.p - 1) * (modulus.p - 2) // 2 * complete_set.m
    if args.correlation and products > MAX_CORRELATION_PRODUCTS:
        raise TooLarge(f"--correlation at p = {modulus.p}, m = {complete_set.m} takes {products} "
                       f"products (at most {MAX_CORRELATION_PRODUCTS})")
    result = enumerate_family(modulus, args.ordering, complete_set, args.k,
                              b_values=range(1, modulus.p))
    boxes = result.sboxes
    fp = [analysis.fixed_points(s) for s in boxes]
    payload = {
        "p": modulus.p,
        "ordering": args.ordering.value,
        "m": complete_set.m,
        "k": args.k,
        "family_size": len(boxes),
        "distinct": analysis.distinct_count(boxes),
        "avg_fixed_points": round(sum(fp) / len(fp), 4),
        "errors": len(result.errors),
    }
    if args.correlation:
        lo, hi, avg = analysis.family_correlation(boxes)
        payload["correlation"] = {"min": round(float(lo), 4), "max": round(float(hi), 4),
                                  "avg": round(float(avg), 4)}
    return json.dumps(payload, indent=2) + "\n", EXIT_OK


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mecforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, config=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if config:
            sp.add_argument("--config", action=ConfigFile,
                            help="flat key=value file mirroring the flags")
        sp.add_argument("--out", help="output path (default stdout)")
        return sp

    def common(sp, fmt=None, sets=True):
        sp.add_argument("--p", dest="modulus", type=prime, required=True, metavar="P",
                        help="prime modulus, p = 2 (mod 3)")
        sp.add_argument("--ordering", type=ordering, required=True,
                        help="natural | diffusion | modulo")
        # without a complete set (gen-prn) there is no size to default --m to
        sp.add_argument("--m", type=integer, required=not sets, help="S-box / residue size")
        sp.add_argument("--k", type=integer, default=0, help="cyclic shift, default 0")
        if fmt:  # a generator, with a curve; family sweeps every b and prints JSON
            sp.add_argument("--format", type=output_format, default=fmt, help="hex | csv | json")
            sp.add_argument("--b", type=integer,
                            help="curve coefficient (mutually exclusive with --class/--t)")
            sp.add_argument("--class", dest="curve_class", type=curve_class,
                            help="c1 | c2 (with --t)")
            sp.add_argument("--t", type=integer, help="isomorphism parameter in [1, (p-1)/2]")
        if sets:
            sp.add_argument("--set", required=True, help="complete-set file or 'natural'")

    common(command("gen-sbox", cmd_gen_sbox, "generate an S-box"), "hex")

    sp = command("gen-prn", cmd_gen_prn, "generate a pseudo-random sequence")
    common(sp, "csv", sets=False)
    sp.add_argument("--A", required=True, help="y-set file or 'full' for [0, p-1]")

    sp = command("analyze", cmd_analyze, "run the metric battery on an S-box or sequence file",
                 config=False)
    sp.add_argument("input", help="input file, - for stdin, or 'aes' for the bundled AES S-box")
    sp.add_argument("--kind", choices=["sbox", "prn"], default="sbox")

    sp = command("count", cmd_count, "count the complete-set S-box family")
    sp.add_argument("--p", dest="modulus", type=prime, required=True, metavar="P")
    sp.add_argument("--m", type=integer, required=True)

    sp = command("pstar", cmd_pstar, "collision-size diagnostic over a prime range")
    sp.add_argument("--primes", type=prime_range, required=True, metavar="LO..HI")
    sp.add_argument("--ordering", type=ordering, required=True)
    sp.add_argument("--max-p", type=integer, default=DEFAULT_MAX_PSTAR_P,
                    help="exhaustive guard, default %(default)s")

    sp = command("family", cmd_family, "generate and summarize the family over all b")
    common(sp)
    sp.add_argument("--max-p", type=integer, default=5000,
                    help="exhaustive guard, default %(default)s")
    sp.add_argument("--correlation", action="store_true",
                    help="also report pairwise correlation bounds")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None):
                command_parser, config = args.config
                command_parser.set_defaults(**config)  # argparse runs type= on string defaults
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse: a usage error (2) or --help (0)
            note("")  # argparse ignores a failed write, but a full stderr's buffer keeps the text
            if exc.code:
                return exc.code
            write_output("", None)  # --help: argparse ignores a failed write to stdout
            return EXIT_OK
        text, code = args.func(args)  # each command returns its stdout text; only main writes it
        write_output(text, args.out)
        return code
    except MecforgeError as exc:
        note(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
