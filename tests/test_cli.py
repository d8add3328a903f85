import contextlib
import errno
import functools
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecforge import cli
from mecforge.cli import (
    EXIT_BAD_PARAMS,
    EXIT_IO,
    EXIT_OK,
    EXIT_RANGE_TOO_LARGE,
    EXIT_UNSUPPORTED_METRIC,
    format_sbox,
    format_sequence,
    main,
    parse_integer_tokens,
    parse_sbox,
    parse_sequence,
    read_text,
)
from mecforge.errors import MecforgeError
from mecforge.generator import SBox, SprnSequence


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- serialization round-trips -------------------------------------------------

SAMPLE = SBox((1, 10, 3, 8, 4, 7, 5, 6, 2, 9, 0), 11,
              (("p", 11), ("b", 1), ("ordering", "natural"), ("m", 11), ("k", 0)))


@pytest.mark.parametrize("fmt", ["hex", "csv", "json"])
def test_sbox_round_trip(fmt):
    text = format_sbox(SAMPLE, fmt)
    parsed = parse_sbox(text)
    assert parsed.table == SAMPLE.table


def test_one_entry_sbox_round_trip():
    """m = 1's CSV is one digit, shorter than any hex S-box."""
    box = SBox((0,), 1)
    for fmt in ("hex", "csv", "json"):
        assert parse_sbox(format_sbox(box, fmt)).table == (0,)


def test_hex_format_layout():
    box = SBox(tuple(range(256)), 256)
    lines = format_sbox(box, "hex").splitlines()
    assert len(lines) == 16 and all(len(line) == 32 for line in lines)
    assert lines[0] == "000102030405060708090a0b0c0d0e0f"


def test_hex_width_scales_with_m():
    # widths 3, 5 and 5: the reader takes the width from the digit count
    for m in (300, 65537, 1 << 17):
        box = SBox(tuple(range(1, m)) + (0,), m)
        assert parse_sbox(format_sbox(box, "hex")).table == box.table


def test_json_carries_provenance():
    payload = json.loads(format_sbox(SAMPLE, "json"))
    assert payload["provenance"]["p"] == 11
    assert payload["m"] == 11


def test_parse_integer_tokens():
    assert parse_integer_tokens("10 11 12") == [10, 11, 12]
    assert parse_integer_tokens("0a 10 ff") == [10, 16, 255]  # hex once a letter appears
    with pytest.raises(MecforgeError, match="malformed integer token 'x3'"):
        parse_integer_tokens("12 x3")
    with pytest.raises(MecforgeError, match="empty integer list"):
        parse_integer_tokens("   ")
    for text in ("1 +2", "1 0_2", "\u0661 2", "1 -2"):
        with pytest.raises(MecforgeError, match="malformed integer token"):
            parse_integer_tokens(text)
    # every integer read is below 2^2048, so that it can be written back in decimal
    assert parse_integer_tokens("f" * 512) == [(1 << 2048) - 1]
    for text in ("1" + "0" * 617, "9" * 5000):
        with pytest.raises(MecforgeError, match=f"token of {len(text)} digits: at most 640, below"):
            parse_integer_tokens(text)


def test_sequence_round_trip():
    # the second sequence's hex form, "10 00 09 10", holds no hex letter
    for values in ((5, 0, 3, 3, 1), (16, 0, 9, 16)):
        seq = SprnSequence(values, 17)
        for fmt in ("csv", "json", "hex"):
            assert parse_sequence(format_sequence(seq, fmt)) == list(values)


# --- gen-sbox -------------------------------------------------------------------

def test_gen_sbox_small_example(capsys):
    code, out, err = run(capsys, "gen-sbox", "--p", "11", "--b", "1",
                         "--ordering", "natural", "--set", "natural", "--m", "11",
                         "--format", "csv")
    assert code == EXIT_OK
    assert out.strip() == "1,10,3,8,4,7,5,6,2,9,0"
    assert "p=11" in err and "b=1" in err


def test_gen_sbox_reference_table(capsys, golden_sbox_52511):
    from mecforge import data
    code, out, err = run(capsys, "gen-sbox", "--p", "52511", "--b", "1",
                         "--ordering", "natural", "--set", str(data.path("complete_set_52511.txt")),
                         "--format", "csv")
    assert code == EXIT_OK
    assert [int(v) for v in out.strip().split(",")] == golden_sbox_52511


def test_gen_sbox_iso_path_matches_direct(capsys):
    code, direct, _ = run(capsys, "gen-sbox", "--p", "11", "--b", "9",
                          "--ordering", "natural", "--set", "natural", "--m", "11",
                          "--format", "csv")
    assert code == EXIT_OK
    code, via_iso, err = run(capsys, "gen-sbox", "--p", "11", "--class", "c1", "--t", "2",
                             "--ordering", "natural", "--set", "natural", "--m", "11",
                             "--format", "csv")
    assert code == EXIT_OK
    assert via_iso == direct
    assert "b=9" in err


def test_gen_sbox_writes_file(capsys, tmp_path):
    out_file = tmp_path / "box.hex"
    code, out, _ = run(capsys, "gen-sbox", "--p", "11", "--b", "1",
                       "--ordering", "natural", "--set", "natural", "--m", "8",
                       "--out", str(out_file))
    assert code == EXIT_OK and out == ""
    assert parse_sbox(out_file.read_text()).m == 8


def test_gen_sbox_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "gen-sbox", "--p", "12", "--b", "1",
                       "--ordering", "natural", "--set", "natural", "--m", "8")
    assert code == EXIT_BAD_PARAMS
    assert "p must be prime with p = 2 (mod 3)" in err
    code, _, err = run(capsys, "gen-sbox", "--p", "13", "--b", "1",
                       "--ordering", "natural", "--set", "natural", "--m", "8")
    assert code == EXIT_BAD_PARAMS
    assert "p must be prime with p = 2 (mod 3)" in err


@pytest.mark.parametrize("name, canonical", [("Diffusion", "diffusion"), ("MODULO", "modulo")])
def test_ordering_names_fold_case(capsys, name, canonical):
    argv = ["gen-sbox", "--p", "11", "--b", "1", "--set", "natural", "--m", "11", "--ordering"]
    assert run(capsys, *argv, name) == run(capsys, *argv, canonical)


def test_gen_sbox_rejects_conflicting_curve_flags(capsys):
    code, _, err = run(capsys, "gen-sbox", "--p", "11", "--b", "1", "--t", "2",
                       "--ordering", "natural", "--set", "natural", "--m", "8")
    assert code == EXIT_BAD_PARAMS and "either --b" in err


def test_gen_sbox_missing_set_file(capsys):
    code, _, err = run(capsys, "gen-sbox", "--p", "11", "--b", "1",
                       "--ordering", "natural", "--set", "/nonexistent/set.txt")
    assert code == EXIT_IO and "cannot read" in err


@pytest.mark.parametrize("line, argv, message", [
    ("set = a\0b", [], "cannot read"),
    ("set = natural\nm = 11\nout = a\0b", [], "cannot write"),
    ("set = natural\nm = 11", ["--out", "a\0b"], "cannot write"),
], ids=["config-set", "config-out", "flag-out"])
def test_nul_byte_in_a_path_exits_3(capsys, tmp_path, line, argv, message):
    """open() refuses a path holding a NUL byte with ValueError, not OSError.
    argv cannot carry one, but a --config value and an in-process main() can."""
    cfg = tmp_path / "nul.cfg"
    cfg.write_text(f"{line}\n")
    code, out, err = run(capsys, "gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural",
                         "--config", str(cfg), *argv)
    assert code == EXIT_IO and out == ""
    assert f"error: {message} a\0b: " in err and "Traceback" not in err


@pytest.mark.parametrize("line, argv", [("out =", []), ("", ["--out", ""])],
                         ids=["config", "flag"])
def test_empty_out_path_exits_3(capsys, tmp_path, line, argv):
    """An empty --out names a file that cannot be written; it is not stdout."""
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"{line}\n")
    code, out, err = run(capsys, "count", "--p", "263", "--m", "256", "--config", str(cfg), *argv)
    assert code == EXIT_IO and out == ""
    assert err.startswith("error: cannot write : ") and err.count("\n") == 1


def test_gen_sbox_invalid_complete_set(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 11")  # 0 = 11 (mod 11) would be fine; 0 and 11 collide mod 2
    code, _, err = run(capsys, "gen-sbox", "--p", "11", "--b", "1",
                       "--ordering", "natural", "--set", str(bad))
    assert code == EXIT_BAD_PARAMS


def test_config_file_fills_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 11\nb = 1\nordering = natural\nset = natural\nm = 11\nformat = csv\n")
    code, out, _ = run(capsys, "gen-sbox", "--config", str(cfg))
    assert code == EXIT_OK
    assert out.strip() == "1,10,3,8,4,7,5,6,2,9,0"
    # explicit flags win over the config file
    code, out, _ = run(capsys, "gen-sbox", "--config", str(cfg), "--k", "1")
    assert out.strip() == "10,3,8,4,7,5,6,2,9,0,1"
    # a second file adds to the first, and its keys win
    extra = tmp_path / "extra.cfg"
    extra.write_text("k = 2\n")
    code, out, _ = run(capsys, "gen-sbox", "--config", str(cfg), "--config", str(extra))
    assert code == EXIT_OK and out.strip() == "3,8,4,7,5,6,2,9,0,1,10"


def test_config_keys_are_long_flag_names(capsys, tmp_path):
    cfg = tmp_path / "iso.cfg"
    cfg.write_text("p = 11\nclass = c1\nt = 2\nordering = natural\nset = natural\nm = 11\n")
    code, out, _ = run(capsys, "gen-sbox", "--config", str(cfg))
    assert code == EXIT_OK
    assert out == run(capsys, "gen-sbox", "--p", "11", "--class", "c1", "--t", "2",
                      "--ordering", "natural", "--set", "natural", "--m", "11")[1]
    # an explicit flag wins over the same key in the config file
    explicit = run(capsys, "gen-sbox", "--config", str(cfg), "--t", "1")[1]
    assert explicit != out
    assert explicit == run(capsys, "gen-sbox", "--p", "11", "--class", "c1", "--t", "1",
                           "--ordering", "natural", "--set", "natural", "--m", "11")[1]
    cfg.write_text("primes = 11..11\nordering = natural\nmax-p = 10\n")
    code, _, err = run(capsys, "pstar", "--config", str(cfg))
    assert code == EXIT_RANGE_TOO_LARGE and "guard 10" in err


@pytest.mark.parametrize("command, line", [
    ("gen-sbox", "kk = 3"),
    ("gen-sbox", "func = x"),
    ("gen-sbox", "curve_class = c1"),
    ("gen-sbox", "config = other.cfg"),
    ("family", "correlation = 1"),
    ("family", "format = csv"),
    ("count", "ordering = natural"),
], ids=["typo", "func", "dest-not-flag", "config", "switch", "family-format",
        "flag-of-other-command"])
def test_config_rejects_unknown_keys(capsys, tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 11\nm = 11\n{line}\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    key = line.split("=")[0].strip()
    assert code == EXIT_BAD_PARAMS and out == ""
    assert f"unknown key {key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["ordering = zigzag", "class = c3", "p = abc", "format = xml",
                                  "t = 1.5"])
def test_config_values_are_checked_like_flags(capsys, tmp_path, line):
    """argparse converts a string default with type= but does not check it
    against choices=, so each flag's check lives in its type callable."""
    settings = {"p": "11", "class": "c1", "t": "2", "ordering": "natural", "set": "natural",
                "m": "11", "format": "csv"}
    key, value = (part.strip() for part in line.split("="))
    settings[key] = value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    code, out, err = run(capsys, "gen-sbox", "--config", str(cfg))
    assert code == EXIT_BAD_PARAMS and out == ""
    assert f"argument --{key}: " in err and "Traceback" not in err
    # the usage line differs: a flag the file sets is no longer required
    flags = [token for k, v in settings.items() for token in (f"--{k}", v)]
    code, out, flag_err = run(capsys, "gen-sbox", *flags)
    assert code == EXIT_BAD_PARAMS and out == ""
    assert err.splitlines()[-1] == flag_err.splitlines()[-1]


def test_read_text_closes_file(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("0 1 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read_text(str(path)) == "0 1 2\n"
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# --- gen-prn --------------------------------------------------------------------

def test_gen_prn_published_sequence(capsys):
    code, out, err = run(capsys, "gen-prn", "--p", "101", "--b", "35",
                         "--ordering", "natural", "--A", "full", "--m", "6")
    assert code == EXIT_OK
    values = [int(v) for v in out.strip().split(",")]
    assert len(values) == 101
    assert "entropy=" in err


def test_gen_prn_custom_set(capsys, tmp_path):
    a_file = tmp_path / "A.txt"
    a_file.write_text("0 1 2 3 4")
    code, out, _ = run(capsys, "gen-prn", "--p", "11", "--b", "1",
                       "--ordering", "natural", "--A", str(a_file), "--m", "2")
    assert code == EXIT_OK
    values = [int(v) for v in out.strip().split(",")]
    assert len(values) == 5 and all(v in (0, 1) for v in values)


def test_gen_prn_requires_m(capsys):
    code, _, err = run(capsys, "gen-prn", "--p", "11", "--b", "1",
                       "--ordering", "natural", "--A", "full")
    assert code == EXIT_BAD_PARAMS and "the following arguments are required: --m" in err


def test_gen_prn_full_set_guard(capsys):
    # 4194329 is the smallest prime p = 2 (mod 3) above 2^22
    code, out, err = run(capsys, "gen-prn", "--p", "4194329", "--b", "1",
                         "--ordering", "natural", "--A", "full", "--m", "2")
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert err.count("\n") == 1 and "--A full" in err


def test_gen_prn_rejects_y_values_outside_the_field(capsys, tmp_path):
    # y and y + p name the same point, so 12 is not a second element at p = 11
    a_file = tmp_path / "A.txt"
    a_file.write_text("1 12")
    code, out, err = run(capsys, "gen-prn", "--p", "11", "--b", "1",
                         "--ordering", "natural", "--A", str(a_file), "--m", "2")
    assert code == EXIT_BAD_PARAMS and out == ""
    assert err == "error: element 12 outside [0, 10]\n"


def test_gen_sbox_natural_set_guard(capsys):
    # 1099511627831 is a prime p = 2 (mod 3); the guard refuses m before range(m) is built
    code, out, err = run(capsys, "gen-sbox", "--p", "1099511627831", "--b", "1",
                         "--ordering", "natural", "--set", "natural", "--m", str((1 << 22) + 1))
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert err.count("\n") == 1 and "--set natural (at most 4194304)" in err


# --- analyze ---------------------------------------------------------------------

def test_analyze_bundled_aes(capsys):
    code, out, _ = run(capsys, "analyze", "aes")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["nl"] == 112
    assert payload["ac"] == 9
    assert payload["lap"]["approx"] == 0.0625


def test_analyze_file_and_stdin_agree(capsys, tmp_path, monkeypatch):
    import io
    box_file = tmp_path / "box.csv"
    box_file.write_text(format_sbox(SBox(tuple(range(16)), 16), "csv"))
    code, out_file_run, _ = run(capsys, "analyze", str(box_file))
    monkeypatch.setattr("sys.stdin", io.StringIO(box_file.read_text()))
    code2, out_stdin_run, _ = run(capsys, "analyze", "-")
    assert out_file_run == out_stdin_run
    # identity on 16 entries: every metric defined except AC
    assert code == code2 == EXIT_UNSUPPORTED_METRIC
    assert json.loads(out_file_run)["ac"] == "n/a"


def test_analyze_non_power_of_two(capsys, tmp_path):
    box_file = tmp_path / "box.csv"
    box_file.write_text("1,10,3,8,4,7,5,6,2,9,0\n")
    code, out, _ = run(capsys, "analyze", str(box_file))
    assert code == EXIT_UNSUPPORTED_METRIC
    payload = json.loads(out)
    assert payload["nl"] == "n/a" and payload["fixed_points"] == 2


def test_analyze_prn_kind(capsys, tmp_path):
    seq_file = tmp_path / "seq.csv"
    seq_file.write_text("0,1,2,0,1,2,0\n")
    code, out, _ = run(capsys, "analyze", str(seq_file), "--kind", "prn")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["period"] == 3 and payload["length"] == 7
    assert payload["histogram"] == {"0": 3, "1": 2, "2": 2}
    # gen-prn's hex, "... 07 10 08 ...", has no hex letter and still reads as hex
    set_file = tmp_path / "A.txt"
    set_file.write_text(" ".join(map(str, [*range(10), *range(16, 23)])))
    reports = set()
    for fmt in ("hex", "csv", "json"):
        code, out, _ = run(capsys, "gen-prn", "--p", "53", "--b", "1", "--ordering", "natural",
                           "--A", str(set_file), "--m", "17", "--format", fmt)
        seq_file.write_text(out)
        code, out, _ = run(capsys, "analyze", str(seq_file), "--kind", "prn")
        assert code == EXIT_OK
        reports.add(out)
    assert len(reports) == 1 and json.loads(out)["histogram"]["16"] == 1
    # a constant sequence has entropy +0.0, which prints as 0.0, not -0.0
    seq_file.write_text("0,0,0\n")
    code, out, _ = run(capsys, "analyze", str(seq_file), "--kind", "prn")
    assert code == EXIT_OK and '"entropy": 0.0,' in out
    code, _, err = run(capsys, "gen-prn", "--p", "11", "--b", "1", "--ordering", "natural",
                       "--A", "full", "--m", "1")
    assert code == EXIT_OK and "entropy=0.0000" in err


def test_analyze_two_entry_sbox(capsys, tmp_path):
    box_file = tmp_path / "box.csv"
    box_file.write_text("0,1\n")
    code, out, err = run(capsys, "analyze", str(box_file))
    assert code == EXIT_UNSUPPORTED_METRIC and "Traceback" not in err
    payload = json.loads(out)
    assert payload["bic"] == "n/a" and payload["ac"] == "n/a"
    assert payload["nl"] == 0 and payload["fixed_points"] == 2


def test_analyze_one_entry_sbox_from_every_format(capsys, tmp_path):
    box_file = tmp_path / "box"
    reports = set()
    for fmt in ("hex", "csv", "json"):
        code, out, _ = run(capsys, "gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural",
                           "--set", "natural", "--m", "1", "--format", fmt)
        box_file.write_text(out)
        code, out, err = run(capsys, "analyze", str(box_file))
        assert code == EXIT_UNSUPPORTED_METRIC and "Traceback" not in err
        reports.add(out)
    assert len(reports) == 1 and json.loads(out) == {
        "nl": "n/a", "lap": "n/a", "dap": "n/a", "ac": "n/a", "sac": "n/a", "bic": "n/a",
        "fixed_points": 1}


def test_analyze_refuses_oversized_sbox(capsys, tmp_path):
    box_file = tmp_path / "box.csv"
    box_file.write_text(format_sbox(SBox(tuple(range(1 << 13)), 1 << 13), "csv"))
    code, out, err = run(capsys, "analyze", str(box_file))
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert err == "error: S-box size 8192 too large to analyze (at most 4096)\n"
    # a size that is not a power of two still gets the n/a report
    box_file.write_text(format_sbox(SBox(tuple(range((1 << 13) + 1)), (1 << 13) + 1), "csv"))
    code, out, _ = run(capsys, "analyze", str(box_file))
    assert code == EXIT_UNSUPPORTED_METRIC and json.loads(out)["nl"] == "n/a"


def test_analyze_rejects_non_permutation(capsys, tmp_path):
    box_file = tmp_path / "box.csv"
    box_file.write_text("0,0,1,1\n")
    code, _, err = run(capsys, "analyze", str(box_file))
    assert code == EXIT_BAD_PARAMS and "malformed S-box" in err


# --- count / pstar / family -------------------------------------------------------

def test_count_published(capsys):
    code, out, _ = run(capsys, "count", "--p", "263", "--m", "256")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["per_k"] == 128 and payload["total"] == 32768


@pytest.mark.parametrize("p, m", [("52511", "5000"), ("1000000007", "500000004")])
def test_count_too_long_to_print_exits_5(capsys, p, m):
    code, out, err = run(capsys, "count", "--p", p, "--m", m)
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert err.count("\n") == 1 and "more than 4300 digits" in err


def test_count_follows_the_int_to_str_limit(capsys):
    """A lowered interpreter limit lowers the count's bound with it."""
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out, err = run(capsys, "count", "--p", "52511", "--m", "1000")
        assert code == EXIT_RANGE_TOO_LARGE and out == ""
        assert err.count("\n") == 1 and "more than 1000 digits" in err
        code, out, _ = run(capsys, "count", "--p", "263", "--m", "256")
        assert code == EXIT_OK and json.loads(out)["total"] == 32768
    finally:
        sys.set_int_max_str_digits(default)


def test_pstar_range(capsys):
    code, out, _ = run(capsys, "pstar", "--primes", "11..30", "--ordering", "natural")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["p"] for row in rows] == [11, 17, 23, 29]
    assert all(0 <= row["pstar"] <= row["p"] for row in rows)


def test_pstar_guard_exit_code(capsys):
    code, _, err = run(capsys, "pstar", "--primes", "52511..52511",
                       "--ordering", "natural", "--max-p", "100")
    assert code == EXIT_RANGE_TOO_LARGE


def test_pstar_guard_is_checked_before_any_work(capsys, monkeypatch):
    """The range's largest admissible prime is held to --max-p before the
    first p is computed; a range whose top end is not admissible passes."""
    def refuse(*args):
        raise AssertionError("pstar ran before the guard was checked")

    monkeypatch.setattr(cli, "pstar", refuse)
    code, out, err = run(capsys, "pstar", "--primes", "11..2003", "--ordering", "natural")
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert "p = 2003 exceeds the exhaustive guard 2000" in err
    monkeypatch.setattr(cli, "pstar", lambda modulus, kind, max_p: modulus.p)
    code, out, _ = run(capsys, "pstar", "--primes", "11..100", "--ordering", "natural",
                       "--max-p", "89")
    assert code == EXIT_OK and json.loads(out)[-1] == {"p": 89, "pstar": 89}


def test_family_summary(capsys):
    code, out, _ = run(capsys, "family", "--p", "11", "--ordering", "natural",
                       "--set", "natural", "--m", "11", "--correlation")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["family_size"] == 10 and payload["errors"] == 0
    assert 1 <= payload["distinct"] <= 10
    assert -1 <= payload["correlation"]["min"] <= payload["correlation"]["max"] <= 1


def test_family_guard(capsys):
    code, _, err = run(capsys, "family", "--p", "52511", "--ordering", "natural",
                       "--set", "natural", "--m", "256")
    assert code == EXIT_RANGE_TOO_LARGE and "--max-p" in err


def test_family_correlation_guard_is_checked_before_any_work(capsys, monkeypatch):
    """--correlation's (p-1)(p-2)/2 * m products are bounded by a constant,
    within the default --max-p, before the family is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("the family was built before the guard was checked")

    monkeypatch.setattr(cli, "enumerate_family", refuse)
    code, out, err = run(capsys, "family", "--p", "2111", "--ordering", "natural",
                         "--set", "natural", "--m", "256", "--correlation")
    assert code == EXIT_RANGE_TOO_LARGE and out == ""
    assert f"at most {cli.MAX_CORRELATION_PRODUCTS}" in err


# --- validation failures exit 2 without a traceback ------------------------------

@pytest.mark.parametrize("argv, message", [
    (["count", "--p", "abc", "--m", "5"], "argument --p: invalid prime value: 'abc'"),
    (["count", "--p", "263", "--m", "0"], "m = 0 must lie in [1, p]"),
    (["gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural", "--set", "natural",
      "--m", "11", "--k", "20"], "shift k = 20"),
    (["gen-prn", "--p", "11", "--b", "1", "--ordering", "natural", "--A", "full",
      "--m", "5", "--k", "5"], "shift k = 5"),
    (["gen-sbox", "--p", "11", "--class", "bogus", "--t", "2", "--ordering", "natural",
      "--set", "natural", "--m", "11"], "unknown curve class 'bogus'"),
    (["gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural", "--set", "natural",
      "--m", "1" + "0" * 30], "must lie in [1, p] = [1, 11]"),
    (["family", "--p", "11", "--ordering", "natural", "--set", "natural",
      "--m", "11", "--k", "20"], "shift k = 20 must lie in [0, m-1]"),
    (["family", "--p", "11", "--ordering", "natural", "--set", "natural",
      "--m", "11", "--k", "20", "--correlation"], "shift k = 20 must lie in [0, m-1]"),
    (["family", "--p", "11", "--ordering", "natural", "--set", "natural",
      "--m", "1", "--correlation"], "--correlation needs m >= 2"),
    (["analyze", "aes", "--format", "hex"], "unrecognized arguments: --format hex"),
    (["family", "--p", "11", "--ordering", "natural", "--set", "natural",
      "--m", "11", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["count", "--p", "5_3", "--m", "2"], "argument --p: invalid prime value: '5_3'"),
    (["count", "--p", "11", "--m", str(1 << 2048)], "argument --m: invalid integer value"),
    (["count", "--p", "53", "--m", "\u0662"], "argument --m: invalid integer value: '\u0662'"),
    (["pstar", "--primes", "\u0661\u0661..53", "--ordering", "natural"],
     "argument --primes: invalid prime_range value: '\u0661\u0661..53'"),
    (["gen-sbox", "--p", "11", "--b", "+1", "--ordering", "natural", "--set", "natural"],
     "argument --b: invalid integer value: '+1'"),
    (["gen-sbox", "--p", "11", "--b", "0", "--ordering", "natural", "--set", "natural",
      "--m", "11"], "b = 0 must lie in [1, p-1]"),
    (["gen-sbox", "--p", "11", "--b", "1", "--ordering", "zigzag", "--set", "natural"],
     "argument --ordering: unknown ordering 'zigzag'; expected one of: natural, diffusion, modulo"),
], ids=["non-integer-p", "count-m-zero", "sbox-k-too-large", "prn-k-too-large",
        "unknown-class", "natural-set-m-too-large", "family-k-too-large",
        "family-correlation-k-too-large", "family-correlation-m-1", "analyze-format",
        "family-format", "underscore-p", "m-beyond-bound", "non-ascii-m", "non-ascii-primes",
        "signed-b", "b-zero", "unknown-ordering"])
def test_invalid_parameters_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_PARAMS and out == ""
    assert message in err and "Traceback" not in err
    assert err.startswith("usage:") or len(err.splitlines()) == 1


@pytest.mark.parametrize("kind, text", [
    ("prn", "a,b"),
    ("prn", '{"x":1}'),
    ("prn", "{bad"),
    ("prn", '{"values": 5}'),
    ("prn", '{"values": [1.5, true]}'),
    ("sbox", '{"table": [1, "a"]}'),
    ("sbox", '{"table": [1.0, 0.0]}'),
    ("sbox", '{"table": [0, 1], "m": "2"}'),
    ("sbox", '{"table": [0], "m": true}'),
    ("sbox", '{"table": [1, 0], "provenance": 5}'),
    ("sbox", '{"table": []}'),
    ("sbox", " , "),
    ("sbox", "0_1,0"),
    ("sbox", "\u0660,\u0661"),
    ("sbox", "0,,1"),
    ("prn", "+1,-2"),
    ("prn", '{"values": [1, -2]}'),
    ("sbox", '{"table": [0], "m": 1048576}'),
    ("prn", '{"values": ' + "[" * 100000),
], ids=["prn-csv-letters", "prn-json-no-values", "prn-json-broken", "prn-json-scalar",
        "prn-json-non-integers", "sbox-json-string-entry", "sbox-json-float-entries",
        "sbox-json-string-m", "sbox-json-boolean-m", "sbox-json-scalar-provenance",
        "sbox-json-empty", "sbox-csv-blank", "sbox-csv-underscore", "sbox-csv-arabic-indic",
        "sbox-csv-empty-field", "prn-csv-signs", "prn-json-negative", "sbox-json-m-not-table-size",
        "prn-json-nested-too-deep"])
def test_malformed_analyze_input_exits_2(capsys, tmp_path, kind, text):
    in_file = tmp_path / "input.txt"
    in_file.write_text(text)
    code, out, err = run(capsys, "analyze", str(in_file), "--kind", kind)
    assert code == EXIT_BAD_PARAMS and out == ""
    assert "malformed" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural", "--set"],
    ["gen-prn", "--p", "11", "--b", "1", "--ordering", "natural", "--m", "2", "--A"],
    ["count", "--config"],
], ids=["analyze", "set", "A", "config"])
def test_undecodable_files_exit_2(capsys, tmp_path, argv):
    """Bytes that do not decode read as lone surrogates, which no reader accepts."""
    path = tmp_path / "input.bin"
    path.write_bytes(b"\xff\xfe,1\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_BAD_PARAMS and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# --- an unwritable stdout exits 3, as an unwritable --out does ---------------

class FullStream(io.StringIO):
    """A stdout on a full disk, over the file descriptor `fd`."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


UNWRITABLE_STDOUT = [
    ["count", "--p", "263", "--m", "256"],
    ["gen-prn", "--p", "11", "--b", "1", "--ordering", "natural", "--A", "full", "--m", "11"],
]
STDOUT_FULL = f"error: cannot write stdout: [Errno {errno.ENOSPC}] No space left on device"


@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT, ids=["count", "gen-prn"])
def test_unwritable_stdout_exits_3(argv, tmp_path):
    """The refused stdout is pointed at the null device, so that the flush at
    interpreter exit cannot fail a second time."""
    err, fd = io.StringIO(), os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with contextlib.redirect_stderr(err), mock.patch.object(sys, "stdout", FullStream(fd)):
            code = main(argv)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == EXIT_IO and "Traceback" not in err.getvalue()
    assert err.getvalue().splitlines()[-1] == STDOUT_FULL


# --- closed or full standard streams, in a whole process ------------------------

GEN_SBOX = ["gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural", "--set", "natural",
            "--m", "11", "--format", "csv"]
STREAM_COMMANDS = {  # name: (argv, exit code of a normal run)
    "gen-sbox": (GEN_SBOX, EXIT_OK),
    "gen-prn": (UNWRITABLE_STDOUT[1], EXIT_OK),
    "analyze": (["analyze", "-"], EXIT_UNSUPPORTED_METRIC),  # SAMPLE on stdin: m = 11
    "count": (UNWRITABLE_STDOUT[0], EXIT_OK),
    "gen-sbox-b99": ([*GEN_SBOX[:3], "--b", "99", *GEN_SBOX[5:]], EXIT_BAD_PARAMS),
    "count-bad-p": (["count", "--p", "x", "--m", "3"], EXIT_BAD_PARAMS),  # argparse's own error
    "help": (["--help"], EXIT_OK),
    "gen-sbox-help": (["gen-sbox", "--help"], EXIT_OK),
}
# each state is a shell redirection of one of the process's descriptors
STREAM_STATES = {"stdin-closed": "<&-", "stdout-closed": ">&-", "stdout-full": ">/dev/full",
                 "stderr-closed": "2>&-", "stderr-full": "2>/dev/full"}
STREAM_CASES = [(command, state) for command in ("gen-sbox", "gen-prn", "analyze", "count")
                for state in STREAM_STATES]
STREAM_CASES += [("gen-sbox-b99", "stderr-closed"), ("gen-sbox-b99", "stderr-full"),
                 ("count-bad-p", "stderr-full")]
STREAM_CASES += [(command, state) for command in ("count-bad-p", "help", "gen-sbox-help")
                 for state in ("stdout-closed", "stdout-full")]
STREAM_FAILURES = {"stdout-closed": "error: cannot write stdout: it is closed",
                   "stdout-full": STDOUT_FULL}


@pytest.fixture(scope="module")
def run_with(tmp_path_factory):
    """`run_with(command, redirect)`: `python -m mecforge.cli` under that shell
    redirection, stdout block-buffered as in a default environment, stdin a
    file of SAMPLE, stdout and stderr captured where not redirected."""
    sample = tmp_path_factory.mktemp("streams") / "sample.csv"
    sample.write_text(format_sbox(SAMPLE, "csv"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)

    @functools.cache
    def run_with(command, redirect):
        argv = [sys.executable, "-m", "mecforge.cli", *STREAM_COMMANDS[command][0]]
        with open(sample) as stdin:
            return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *argv], env=env,
                                  stdin=stdin, capture_output=True, text=True)
    return run_with


@pytest.mark.parametrize("command, state", STREAM_CASES,
                         ids=[f"{command}-{state}" for command, state in STREAM_CASES])
def test_standard_streams(run_with, command, state):
    """A closed stdin or stdout, or a full stdout, is an I/O failure (3) with
    one error line after any provenance line; the exit flush must not fail
    again.  --help is output too, but a usage error writes no stdout, so its
    state does not matter.  A closed or full stderr loses its lines and
    nothing else: stdout and the exit code are a normal run's.  No state gives
    a traceback."""
    if state.endswith("full") and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    normal, done = run_with(command, ""), run_with(command, STREAM_STATES[state])
    assert normal.returncode == STREAM_COMMANDS[command][1]
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    failure = None if command == "count-bad-p" else STREAM_FAILURES.get(state)
    if (command, state) == ("analyze", "stdin-closed"):
        failure = "error: cannot read -: stdin is closed"
    if failure:
        assert (done.returncode, done.stdout) == (EXIT_IO, "")
        # with stdout closed, argparse writes the help to stderr
        moved = normal.stdout if command.endswith("help") and state == "stdout-closed" else ""
        assert done.stderr == normal.stderr + moved + failure + "\n"
    else:
        assert (done.returncode, done.stdout) == (normal.returncode, normal.stdout)
        assert done.stderr == ("" if state.startswith("stderr") else normal.stderr)


# --- any flag values: an exit code of the contract, never a traceback -----------

CONTRACT = {EXIT_OK, EXIT_BAD_PARAMS, EXIT_IO, EXIT_UNSUPPORTED_METRIC, EXIT_RANGE_TOO_LARGE}
# Hypothesis favours the first entries of a pool, so the usable values lead.
# 7, 13, 31 are 1 mod 3; 1099511627831 is 2 mod 3 and above the --A full and --m guards
PRIMES = ["11", "5", "17", "29", "101", "2", "3", "7", "13", "31", "1099511627831"]
HOSTILE = ["0", "-1", "-12", "102", "4096", "10" * 12, "abc", "", "c3"]
SMALL = [str(v) for v in range(1, 12)]
VALID = {"--p": PRIMES, "--b": SMALL, "--t": SMALL, "--m": SMALL, "--k": ["0", "1", "5"],
         "--class": ["c1", "c2", "C2"], "--ordering": ["natural", "diffusion", "modulo"],
         "--primes": ["5..101", "11..11", "7..3"], "--max-p": ["50", "5000"]}
COMMANDS = {  # command: (flags always given, flags drawn)
    "gen-sbox": (["--set", "natural"], ["--p", "--ordering", "--m", "--k"]),
    "gen-prn": (["--A", "full"], ["--p", "--ordering", "--m", "--k"]),
    "count": ([], ["--p", "--m"]),
    "pstar": ([], ["--primes", "--ordering", "--max-p"]),
    "family": (["--set", "natural"], ["--p", "--ordering", "--m", "--k", "--max-p"]),
}
CURVE_FLAGS = [["--b"], ["--class", "--t"], ["--b", "--t"]]
SWITCHES = {"family": ["--correlation"]}  # flags without a value, drawn given or not


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, flags = COMMANDS[command]
    if command.startswith("gen-"):
        flags = flags + draw(st.sampled_from(CURVE_FLAGS))
    argv = [command] + fixed
    for flag in flags:
        if draw(st.sampled_from(["given"] * 9 + ["left out"])) == "given":
            hostile = draw(st.sampled_from([False] * 3 + [True]))
            argv += [flag, draw(st.sampled_from(HOSTILE if hostile else VALID[flag]))]
    argv += [switch for switch in SWITCHES.get(command, []) if draw(st.booleans())]
    return argv


@given(command_lines())
@settings(max_examples=200, deadline=None)
def test_main_keeps_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in CONTRACT


# --- any file or stdin contents: the same contract, and accepted input round-trips

# Every token below other than the first seven is refused wherever an integer is read.
TOKENS = ["0", "1", "2", "3", "10", "0a", "ff", "", "0_1", "+1", "-2", "\u0660", "\u0661",
          "\u00b2", "1.5", "x3", "9" * 5000, "f" * 513]
SEPARATORS = [",", " ", "\n", ", ", ",,", "\t"]
JSON_SHAPES = ["{}", "[]", "null", "{", '{"table": []}', '{"table": {"0": 0}}',
               '{"values": [%d]}' % (1 << 2048), '{"values": [%d]}' % ((1 << 2048) - 1),
               '{"table": [0], "m": 1048576}', '{"table": [0, 1], "provenance": []}',
               '{"values": []}', '{"values": [-1, 2]}', '{"values": [true]}', '{"values": null}',
               '{"values": ' + "[" * 10000]


@st.composite
def contents(draw):
    """What an S-box, sequence or set file may hold: what format_sbox or
    format_sequence writes (at most 64 entries, for analyze's sake), maybe
    with a hostile token spliced in; tokens joined at random; blank text; or
    JSON of a wrong shape."""
    shape = draw(st.sampled_from(["written", "written", "tokens", "blank", "json"]))
    if shape == "json":
        return draw(st.sampled_from(JSON_SHAPES))
    if shape == "blank":
        return draw(st.sampled_from(["", " ", "\n", " , ", "\t\n"]))
    if shape == "tokens":
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=6))
        return "".join(tok + draw(st.sampled_from(SEPARATORS)) for tok in tokens)
    fmt = draw(st.sampled_from(["hex", "csv", "json"]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 64))
        text = format_sbox(SBox(tuple(draw(st.permutations(range(m)))), m), fmt)
    else:
        values = draw(st.lists(st.integers(0, 300), min_size=1, max_size=64))
        text = format_sequence(SprnSequence(tuple(values), max(values) + 1), fmt)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TOKENS[7:])) + text[at:]
    return text


def run_quietly(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_round_trips(parsed):
    """Parsing what the writers write for an accepted S-box or sequence gives it back."""
    for fmt in ("hex", "csv", "json"):
        if isinstance(parsed, SBox):
            assert parse_sbox(format_sbox(parsed, fmt)).table == parsed.table
        elif not (fmt == "csv" and len(parsed) == 1 and parsed[0] > 9):
            # (one CSV value has no comma, so "10" reads as hex; gen-prn writes
            # a lone value only at m = 1, where it is 0)
            seq = SprnSequence(tuple(parsed), max(parsed) + 1)
            assert parse_sequence(format_sequence(seq, fmt)) == parsed


def assert_contract(code, out, err):
    assert code in CONTRACT and "Traceback" not in err
    if code not in (EXIT_OK, EXIT_UNSUPPORTED_METRIC):
        assert out == "" and err.startswith(("error: ", "usage:"))


@given(st.sampled_from(["sbox", "prn"]), contents())
@settings(max_examples=150, deadline=None)
def test_analyze_keeps_exit_code_contract_on_any_input(kind, text):
    code, out, err = run_quietly(["analyze", "-", "--kind", kind], stdin=text)
    assert_contract(code, out, err)
    if code in (EXIT_OK, EXIT_UNSUPPORTED_METRIC):
        assert_round_trips(parse_sequence(text) if kind == "prn" else parse_sbox(text))


CONFIG_KEYS = ["b", "m", "k", "t", "class", "format", "p", "kk"]
CONFIG_VALUES = ["1", "2", "11", "c1", "csv", *TOKENS[7:]]
FILE_COMMANDS = {
    "--set": (["gen-sbox", "--p", "11", "--b", "1", "--ordering", "natural",
               "--format", "csv", "--set"], parse_sbox),
    "--A": (["gen-prn", "--p", "11", "--b", "1", "--ordering", "natural", "--m", "2", "--A"],
            parse_sequence),
    "--config": (["gen-sbox", "--config"], parse_sbox),
}


@st.composite
def config_files(draw):
    lines = ["p = 11", "ordering = natural", "set = natural", "m = 11"]
    lines += [f"{draw(st.sampled_from(CONFIG_KEYS))} = {draw(st.sampled_from(CONFIG_VALUES))}"
              for _ in range(draw(st.integers(0, 3)))]
    return "\n".join(lines) + "\n"


@given(st.sampled_from(sorted(FILE_COMMANDS)), st.data())
@settings(max_examples=100, deadline=None)
def test_read_files_keep_exit_code_contract(flag, data):
    """--set and --A files, and --config files, hold any text."""
    text = data.draw(st.one_of(contents(), config_files()) if flag == "--config" else contents())
    argv, parse = FILE_COMMANDS[flag]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.txt"
        with open(path, "w") as handle:
            handle.write(text)
        code, out, err = run_quietly([*argv, path])
    assert_contract(code, out, err)
    if code == EXIT_OK:
        assert_round_trips(parse(out))
