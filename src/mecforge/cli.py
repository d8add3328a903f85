"""Command-line front end.

Subcommands: gen-sbox, gen-prn, analyze, count, pstar, family.
stdout carries data, stderr carries diagnostics and provenance lines.
Exit codes: 0 success, 2 invalid parameters, 3 I/O failure, 4 a metric was
not applicable to the input size, 5 exhaustive range too large.
"""

import argparse
import json
import pathlib
import re
import sys
from typing import Optional, Sequence

from . import analysis, data
from .errors import MecforgeError, NotPrime, TooLarge
from .field import PrimeModulus
from .generator import (
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
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_UNSUPPORTED_METRIC = 4
EXIT_RANGE_TOO_LARGE = 5

# gen-prn --A full orders every y in [0, p-1], at about 230 bytes of memory
# each: about 1 GB at this bound.
MAX_FULL_A_P = 1 << 22


class CliError(MecforgeError):
    def __init__(self, message: str, code: int = EXIT_BAD_PARAMS):
        super().__init__(message)
        self.code = code


# --- input parsing -----------------------------------------------------------

_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")


def parse_integer_tokens(text: str) -> list[int]:
    """Whitespace-separated integers, hex or decimal.

    Tokens are read as hex when at least one contains a hex letter (the
    published complete-set format), decimal otherwise.
    """
    tokens = text.split()
    if not tokens:
        raise CliError("empty integer list")
    for tok in tokens:
        if not _HEX_RE.match(tok):
            raise CliError(f"malformed integer token {tok!r}")
    base = 16 if any(re.search(r"[a-fA-F]", t) for t in tokens) else 10
    return [int(t, base) for t in tokens]


def read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else pathlib.Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc


def write_output(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}", EXIT_IO) from exc
    else:
        sys.stdout.write(text)


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
    raise CliError(f"unknown format {fmt!r}")


def parse_sbox(text: str, fmt: str = "auto") -> SBox:
    text = text.strip()
    if fmt == "auto":
        if text.startswith("{"):
            fmt = "json"
        elif "," in text:
            fmt = "csv"
        else:
            fmt = "hex"
    if fmt == "json":
        payload = json.loads(text)
        table, prov = payload["table"], payload.get("provenance", {})
        if not (isinstance(table, list) and all(type(v) is int for v in table)
                and isinstance(prov, dict)):
            raise CliError("a JSON S-box needs an integer list 'table' and an object 'provenance'")
        return SBox(tuple(table), payload.get("m", len(table)), tuple(sorted(prov.items())))
    if fmt == "csv":
        table = [int(t) for t in text.replace("\n", ",").split(",") if t.strip()]
        return SBox(tuple(table), len(table))
    # hex: entries are fixed-width.  Short equal-length tokens are one entry
    # each; otherwise the digits are concatenated rows and the width is the
    # smallest one that decodes to a permutation.
    tokens = text.split()
    digits = "".join(tokens)
    if not digits or not _HEX_RE.match(digits):
        raise CliError("malformed hex S-box file")
    if len(tokens) > 1 and len(tokens[0]) <= 4 and all(len(t) == len(tokens[0]) for t in tokens):
        widths = [len(tokens[0])]
    else:
        widths = [w for w in (2, 3, 4) if len(digits) % w == 0]
    for width in widths:
        table = [int(digits[i:i + width], 16) for i in range(0, len(digits), width)]
        if sorted(table) == list(range(len(table))):
            return SBox(tuple(table), len(table))
    raise CliError("malformed hex S-box file")


def format_sequence(seq: SprnSequence, fmt: str) -> str:
    if fmt == "csv":
        return ",".join(str(v) for v in seq.values) + "\n"
    if fmt == "json":
        payload = {"m": seq.m, "values": list(seq.values), "provenance": seq.provenance_dict()}
        return json.dumps(payload) + "\n"
    if fmt == "hex":
        width = max(2, len(f"{max(seq.values):x}"))
        return " ".join(f"{v:0{width}x}" for v in seq.values) + "\n"
    raise CliError(f"unknown format {fmt!r}")


def parse_sequence(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("{"):
        values = json.loads(text)["values"]
        if not (isinstance(values, list) and all(type(v) is int for v in values)):
            raise CliError("malformed sequence input: 'values' must be a list of integers")
        return values
    if "," in text:
        return [int(t) for t in text.replace("\n", ",").split(",") if t.strip()]
    return parse_integer_tokens(text)


# --- shared argument plumbing -------------------------------------------------

def load_config(path: Optional[str], flags: dict[str, str]) -> dict:
    """Flat key=value file mirroring the long flags.

    `flags` maps the long name of each value-taking flag, with '-' read as
    '_', to its argparse dest; any other key is an error.
    """
    if not path:
        return {}
    config = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        dest = flags.get(key.replace("-", "_"))
        if dest is None:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}; "
                           f"expected one of: {', '.join(sorted(flags))}")
        config[dest] = value.strip()
    return config


def merge_config(args: argparse.Namespace, config: dict) -> None:
    """Fill each flag not given on the command line from the config file."""
    for dest, value in config.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def config_flags(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Config key -> dest for each value-taking long flag of `parser`
    except --config itself."""
    return {action.option_strings[-1][2:].replace("-", "_"): action.dest
            for action in parser._actions
            if action.option_strings and action.nargs != 0 and action.dest != "config"}


def int_flag(args, name: str, default: Optional[int] = None) -> Optional[int]:
    """The integer value of flag --name, or `default` when it is not given."""
    value = getattr(args, name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise CliError(f"--{name.replace('_', '-')} expects an integer, got {value!r}") from None


def require_modulus(args) -> PrimeModulus:
    if args.p is None:
        raise CliError("--p is required")
    try:
        modulus = PrimeModulus(int_flag(args, "p"))
    except NotPrime:
        raise CliError("p must be prime with p = 2 (mod 3)") from None
    if not modulus.mec_admissible:
        raise CliError("p must be prime with p = 2 (mod 3)")
    return modulus


def resolve_curve(args, modulus: PrimeModulus) -> MordellCurve:
    """The curve E_{p, b} of --b, or E_{p, t^6 b} for the representative b of
    --class and the isomorphism parameter --t."""
    has_b = args.b is not None
    has_class = getattr(args, "curve_class", None) is not None or getattr(args, "t", None) is not None
    if has_b == has_class:
        raise CliError("specify either --b, or --class together with --t")
    if has_b:
        b = int_flag(args, "b")
        if not 1 <= b <= modulus.p - 1:
            raise CliError(f"b must lie in [1, p-1], got {b}")
        return MordellCurve(modulus, b)
    if args.curve_class is None or args.t is None:
        raise CliError("--class and --t must be given together")
    try:
        cls = CurveClass(args.curve_class.upper())
    except ValueError:
        raise CliError(f"unknown curve class {args.curve_class!r}; expected c1 or c2") from None
    t = int_flag(args, "t")
    if not 1 <= t <= (modulus.p - 1) // 2:
        raise CliError(f"t must lie in [1, (p-1)/2], got {t}")
    b = pow(t, 6, modulus.p) * representative(modulus, cls) % modulus.p
    return MordellCurve(modulus, b)


def resolve_complete_set(args, modulus: PrimeModulus) -> CompleteSet:
    if args.set is None:
        raise CliError("--set is required (a file path or 'natural')")
    if args.set == "natural":
        if args.m is None:
            raise CliError("--m is required with --set natural")
        return CompleteSet.natural(int_flag(args, "m"), modulus)
    elements = parse_integer_tokens(read_text(args.set))
    m = int_flag(args, "m", len(elements))
    return CompleteSet.validate(elements, m, modulus)


def parse_ordering(args) -> Ordering:
    if args.ordering is None:
        raise CliError("--ordering is required")
    try:
        return Ordering.parse(args.ordering)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# --- commands ------------------------------------------------------------------

def cmd_gen_sbox(args) -> int:
    modulus = require_modulus(args)
    kind = parse_ordering(args)
    complete_set = resolve_complete_set(args, modulus)
    curve = resolve_curve(args, modulus)
    k = int_flag(args, "k", 0)
    sbox = sbox_direct(curve, kind, complete_set, k)
    print(f"sbox p={sbox.provenance_dict()['p']} b={sbox.provenance_dict()['b']} "
          f"ordering={kind.value} m={sbox.m} k={k}", file=sys.stderr)
    write_output(format_sbox(sbox, args.format or "hex"), args.out)
    return EXIT_OK


def cmd_gen_prn(args) -> int:
    modulus = require_modulus(args)
    kind = parse_ordering(args)
    curve = resolve_curve(args, modulus)
    if args.A is None:
        raise CliError("--A is required (a file path or 'full')")
    if args.A == "full":
        if modulus.p > MAX_FULL_A_P:
            raise CliError(f"p = {modulus.p} too large for --A full (at most {MAX_FULL_A_P})",
                           EXIT_RANGE_TOO_LARGE)
        y_set = range(modulus.p)
    else:
        y_set = parse_integer_tokens(read_text(args.A))
    if args.m is None:
        raise CliError("--m is required")
    k = int_flag(args, "k", 0)
    seq = sprn(curve, kind, y_set, int_flag(args, "m"), k)
    ent = analysis.entropy(seq)
    print(f"prn p={curve.p} b={curve.b} ordering={kind.value} "
          f"|A|={len(seq.values)} m={seq.m} k={k} entropy={ent:.4f}",
          file=sys.stderr)
    write_output(format_sequence(seq, args.format or "csv"), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.input == "aes":
        text = data.path("aes_sbox.txt").read_text()
    else:
        text = read_text(args.input)
    if args.kind == "prn":
        try:
            values = parse_sequence(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"malformed sequence input: {exc}") from exc
        if not values:
            raise CliError("empty sequence")
        hist = analysis.histogram(values)
        payload = {
            "length": hist.length,
            "entropy": round(analysis.entropy(values), 4),
            "period": analysis.period(values),
            "histogram": {str(k): v for k, v in sorted(hist.frequencies.items())},
        }
        write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    try:
        sbox = parse_sbox(text, args.format or "auto")
    except (MecforgeError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"malformed S-box input: {exc}") from exc
    unsupported = False
    try:
        report = analysis.analyze_sbox(sbox)
        body = report.to_json(indent=2)
        unsupported = report.ac is None
    except analysis.NotPowerOfTwo:
        body = json.dumps({
            "nl": "n/a", "lap": "n/a", "dap": "n/a", "ac": "n/a",
            "sac": "n/a", "bic": "n/a",
            "fixed_points": analysis.fixed_points(sbox),
        }, indent=2)
        unsupported = True
    write_output(body + "\n", args.out)
    return EXIT_UNSUPPORTED_METRIC if unsupported else EXIT_OK


def cmd_count(args) -> int:
    modulus = require_modulus(args)
    if args.m is None:
        raise CliError("--m is required")
    m = int_flag(args, "m")
    per_k, total = count_sboxes(modulus, m)
    write_output(json.dumps({"p": modulus.p, "m": m,
                             "per_k": per_k, "total": total}) + "\n", args.out)
    return EXIT_OK


def _parse_prime_range(spec: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", spec)
    if not m:
        raise CliError("--primes expects LO..HI")
    return int(m.group(1)), int(m.group(2))


def cmd_pstar(args) -> int:
    if args.primes is None:
        raise CliError("--primes is required")
    lo, hi = _parse_prime_range(args.primes)
    kind = parse_ordering(args)
    max_p = int_flag(args, "max_p", 2000)
    rows = []
    for p in range(lo, hi + 1):
        try:
            modulus = PrimeModulus(p)
        except NotPrime:
            continue
        if not modulus.mec_admissible:
            continue
        try:
            rows.append({"p": p, "pstar": pstar(modulus, kind, max_p)})
        except TooLarge as exc:
            raise CliError(str(exc), EXIT_RANGE_TOO_LARGE) from exc
    write_output(json.dumps(rows, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_family(args) -> int:
    modulus = require_modulus(args)
    kind = parse_ordering(args)
    complete_set = resolve_complete_set(args, modulus)
    k = int_flag(args, "k", 0)
    if modulus.p > int_flag(args, "max_p", 5000):
        raise CliError(f"p = {modulus.p} too large for exhaustive family "
                       f"(raise --max-p to override)", EXIT_RANGE_TOO_LARGE)
    result = enumerate_family(modulus, kind, complete_set, k, b_values=range(1, modulus.p))
    boxes = result.sboxes
    fp = [analysis.fixed_points(s) for s in boxes]
    payload = {
        "p": modulus.p,
        "ordering": kind.value,
        "m": complete_set.m,
        "k": k,
        "family_size": len(boxes),
        "distinct": analysis.distinct_count(boxes),
        "avg_fixed_points": round(sum(fp) / len(fp), 4) if fp else None,
        "errors": len(result.errors),
    }
    if args.correlation:
        ccs = [analysis.correlation(boxes[i], boxes[j])
               for i in range(len(boxes)) for j in range(i + 1, len(boxes))]
        payload["correlation"] = {"min": round(min(ccs), 4), "max": round(max(ccs), 4),
                                  "avg": round(sum(ccs) / len(ccs), 4)}
    write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mecforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, curve=True, sets=True):
        sp.add_argument("--config", help="flat key=value file mirroring the flags")
        sp.add_argument("--p", help="prime modulus, p = 2 (mod 3)")
        sp.add_argument("--ordering", help="natural | diffusion | modulo")
        sp.add_argument("--m", help="S-box / residue size")
        sp.add_argument("--k", help="cyclic shift, default 0")
        sp.add_argument("--format", choices=["hex", "csv", "json"])
        sp.add_argument("--out", help="output path (default stdout)")
        if curve:
            sp.add_argument("--b", help="curve coefficient (mutually exclusive with --class/--t)")
            sp.add_argument("--class", dest="curve_class", help="c1 | c2 (with --t)")
            sp.add_argument("--t", help="isomorphism parameter in [1, (p-1)/2]")
        if sets:
            sp.add_argument("--set", help="complete-set file or 'natural'")

    sp = sub.add_parser("gen-sbox", help="generate an S-box")
    common(sp)
    sp.set_defaults(func=cmd_gen_sbox)

    sp = sub.add_parser("gen-prn", help="generate a pseudo-random sequence")
    common(sp, sets=False)
    sp.add_argument("--A", help="y-set file or 'full' for [0, p-1]")
    sp.set_defaults(func=cmd_gen_prn)

    sp = sub.add_parser("analyze", help="run the metric battery on an S-box or sequence file")
    sp.add_argument("input", help="input file, - for stdin, or 'aes' for the bundled AES S-box")
    sp.add_argument("--kind", choices=["sbox", "prn"], default="sbox")
    sp.add_argument("--format", choices=["auto", "hex", "csv", "json"], default="auto")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("count", help="count the complete-set S-box family")
    sp.add_argument("--config")
    sp.add_argument("--p")
    sp.add_argument("--m")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("pstar", help="collision-size diagnostic over a prime range")
    sp.add_argument("--config")
    sp.add_argument("--primes", help="range LO..HI")
    sp.add_argument("--ordering")
    sp.add_argument("--max-p", dest="max_p", help="exhaustive guard, default 2000")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pstar)

    sp = sub.add_parser("family", help="generate and summarize the family over all b")
    common(sp, curve=False)
    sp.add_argument("--max-p", dest="max_p", help="exhaustive guard, default 5000")
    sp.add_argument("--correlation", action="store_true",
                    help="also report pairwise correlation bounds")
    sp.set_defaults(func=cmd_family)

    for sp in sub.choices.values():
        sp.set_defaults(config_flags=config_flags(sp))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merge_config(args, load_config(getattr(args, "config", None), args.config_flags))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE_TOO_LARGE
    except MecforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
