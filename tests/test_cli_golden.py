"""Byte-exact CLI runs: the exit code and the sha256 of stdout and of stderr
for fixed calls, among them the published S-box, sequences, p* values and
counts.  They keep a change to the CLI from moving an output, a provenance
line or an exit code by accident; a deliberate change to one of these
outputs updates its digest here."""

import hashlib

import pytest

from mecforge import data
from mecforge.cli import main

SET_52511 = str(data.path("complete_set_52511.txt"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, out_digest, err_digest", [
    pytest.param(["gen-sbox", "--p", "52511", "--b", "1", "--ordering", "natural", "--set", SET_52511], 0,
                 "d7c33080d271c995fd4a129712a1f13f565b4b71e58f7ff4517db48975ee60b9",
                 "882503d3b135d5d4779c3285c6706a8e528f29b026ff48d40a80662f531825b2",
                 id="gen-sbox-golden"),
    pytest.param(["gen-sbox", "--p", "52511", "--class", "c2", "--t", "7", "--ordering", "natural", "--set", SET_52511], 0,
                 "903a336a7f7966cec6d1631e496f06bbecdc438e16c54f85cb511bf9c66c7701",
                 "13513106a33b0e4079f1fb4dd8f3ccd2f32ee76136ddf99aceb3b180bdf60bd8",
                 id="gen-sbox-class-c2-t7"),
    pytest.param(["gen-sbox", "--p", "52511", "--b", "1", "--ordering", "diffusion", "--set", SET_52511, "--k", "7"], 0,
                 "d82038e2cacc0ce7c0767b43a1042bc27e31b8b27499c64b87cffc18dd22c40c",
                 "84058cf1fb4b775358d94a2931ccf73c8291419f1c6c0d9874e7ad34362d3b54",
                 id="gen-sbox-sparse-diffusion"),
    pytest.param(["gen-sbox", "--p", "52511", "--b", "1", "--ordering", "modulo", "--set", SET_52511, "--k", "7"], 0,
                 "aa81d58c4f3d6c0304591480297f700d1c553c04d78d9b80b3b42f7964e6244d",
                 "9376ab6b92204e4568e189dc9293fdbf605e9e679d0a8f622efd879c80628ebe",
                 id="gen-sbox-sparse-modulo"),
    pytest.param(["gen-prn", "--p", "3917", "--b", "301", "--ordering", "natural", "--A", "full", "--m", "3917"], 0,
                 "e5068082207c4c230de4e5ea0ba5baf5e8aaf1b11ae8d4765ae5ed359c294259",
                 "1fe1fc7f9d98026fab65e499d21abbd1d24963359e2b6ada6778f69f3e6583db",
                 id="gen-prn-full-natural"),
    pytest.param(["gen-prn", "--p", "3917", "--b", "301", "--ordering", "diffusion", "--A", "full", "--m", "3917"], 0,
                 "d1a2c1bb5847d6c0aee5088366f303dfd583d1fb39de2b60ba7cc9e65b73fd37",
                 "23ec9a774d7d8322264bf3bf2a1764cbceaf3362aaffdda05b20c2bfec137e15",
                 id="gen-prn-full-diffusion"),
    pytest.param(["gen-prn", "--p", "3917", "--b", "301", "--ordering", "modulo", "--A", "full", "--m", "3917"], 0,
                 "8ecbdbb9429159f7feac3a83365d0d2be3a932cef5101eaa5d17737727b540df",
                 "3f50e2c769886400f0b2da20c84094e32cbc39d7ef724577a651793ff350bd3c",
                 id="gen-prn-full-modulo"),
    pytest.param(["gen-sbox", "--p", "3917", "--b", "301", "--ordering", "natural", "--set", "natural", "--m", "3917", "--k", "5"], 0,
                 "bfba5b0b9cbd814f636a0ca380b133da5cb3acfc5cb4079d193a1aff986f1914",
                 "69cf3cc3353307cf381cff9a7b40ed0fbf4be27630fe8f3686fe49bb2649e577",
                 id="gen-sbox-dense-natural"),
    pytest.param(["gen-sbox", "--p", "3917", "--b", "301", "--ordering", "diffusion", "--set", "natural", "--m", "3917", "--k", "5"], 0,
                 "1c42957a0bb7b7557a44ac740545e7789b461f6825104fb46f5e94f183f5ce07",
                 "29fdc0ca7cc7a3b29d68ae33af10072e3c1f6fa39a783b1968df016e6514062f",
                 id="gen-sbox-dense-diffusion"),
    pytest.param(["gen-sbox", "--p", "3917", "--b", "301", "--ordering", "modulo", "--set", "natural", "--m", "3917", "--k", "5"], 0,
                 "584a1e662c4682824acc6763fd03257c5538b707e11acad81e50fc4609adf7aa",
                 "2fef7ed1a5de05ecb2a6e84412c4103a9d2e1938d48b8571d69d063f234a6621",
                 id="gen-sbox-dense-modulo"),
    pytest.param(["family", "--p", "107", "--ordering", "natural", "--set", "natural", "--m", "107", "--correlation"], 0,
                 "b1e038a2e208251ea8b826d10ddf6cc1c35206cc849d075a145233c7a86e66a4",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="family-correlation"),
    pytest.param(["pstar", "--primes", "11..199", "--ordering", "natural"], 0,
                 "20af325a443b76b0d44d4f862aa3cf009c6786a2ccbf0d656c5e2b0abeaf6524",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-natural"),
    pytest.param(["pstar", "--primes", "11..199", "--ordering", "diffusion"], 0,
                 "7d06e3f0adb26c2cc66dd0fea1092b780dc685cb7be950f9103242252515d661",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-diffusion"),
    pytest.param(["pstar", "--primes", "11..199", "--ordering", "modulo"], 0,
                 "3a9ee7dd544cc474b0e2865716e13e9f12f3b81691cd30ad7d8558a78d212e9d",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-modulo"),
    pytest.param(["pstar", "--primes", "11..499", "--ordering", "natural"], 0,
                 "22dec1b431ac429e94827d772b8f8c42e957d9479dc9b0dc6462dab096cbbb82",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-natural-readme"),
    pytest.param(["pstar", "--primes", "11..499", "--ordering", "diffusion"], 0,
                 "c64ffe3b290fb101d009a887e43e5c9a32a705cb1ee218e0e7485e3dacbce3f8",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-diffusion-499"),
    pytest.param(["pstar", "--primes", "11..499", "--ordering", "modulo"], 0,
                 "f5efff7d90b6a738fd3493c7a35f15c5fab40bd80e2e0b47f180d0fc990b309c",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-modulo-499"),
    pytest.param(["pstar", "--primes", "500..1999", "--ordering", "natural"], 0,
                 "d4e93716b19d2bb021e164e4c73b5dbd496f3033ce91bd192d30d08844bca692",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-natural-1999"),
    pytest.param(["pstar", "--primes", "500..1999", "--ordering", "diffusion"], 0,
                 "41f2bfe000e64f4288faba76463c3fe30e1f1dbffc0e41407f3421eefdf5165e",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-diffusion-1999"),
    pytest.param(["pstar", "--primes", "500..1999", "--ordering", "modulo"], 0,
                 "c5bc0075e9afa08af8794e48ec9efbbe831c87ab7227688a19e5508d14ad0fc3",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="pstar-modulo-1999"),
    pytest.param(["family", "--p", "509", "--ordering", "diffusion", "--set", "natural", "--m", "256", "--k", "5"], 0,
                 "0392d8988902e4cede623ed72f3135f5cc4f85a2c56ddc28c2e13d5b96fe58ef",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="family-diffusion-m256"),
    pytest.param(["analyze", "aes"], 0,
                 "a7c051b91ce716fb6f5b03d31f55a344ab88ac6f564c953e0fbe6af416f05749",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="analyze-aes"),
    pytest.param(["count", "--p", "263", "--m", "256"], 0,
                 "ffd0799bd5bc11a3100c5479270e1c3309ba8f18778721a3d51798858c3dd47c",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 id="count"),
])
def test_cli_output_is_byte_exact(capsys, argv, code, out_digest, err_digest):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert sha256(captured.out) == out_digest
    assert sha256(captured.err) == err_digest


@pytest.mark.parametrize("ordering, out_digest, err_digest", [
    ("natural", "ee77d34f4e8f2c09ffbd0381a8727a80993365c441832b4b7f3ab7e1ed134ac4",
     "d05f6e9e10548d6131bd877e75b4c3c7723e840f344cb9ea2267fafb3a8ca042"),
    ("diffusion", "0e110605af8e12ee90033f0d85015f6cb6f4e8675026c11f6b24c4e300dcff34",
     "0f8996d07f354a99141b8edaebf2e50255ebefbb196db65088dcac04daf831eb"),
    ("modulo", "3001e17b49b8c2dfc1463d260597cf7f3a1346e2e0db0842a66818b39696ec77",
     "91b33b3aa7c950a9c8a8d2842fe339af4d71fe3f6a27b9cac4adce54aeae1df5"),
])
def test_gen_prn_dense_set_is_byte_exact(capsys, tmp_path, ordering, out_digest, err_digest):
    """gen-prn over a dense --A file, every even y below p = 3917."""
    a_file = tmp_path / "even.txt"
    a_file.write_text("\n".join(str(y) for y in range(0, 3917, 2)) + "\n")
    assert main(["gen-prn", "--p", "3917", "--b", "301", "--ordering", ordering,
                 "--A", str(a_file), "--m", "16"]) == 0
    captured = capsys.readouterr()
    assert sha256(captured.out) == out_digest
    assert sha256(captured.err) == err_digest
