"""`import mecforge.cli` loads no standard module that the package does without.

Most of a short command's wall time is its import, so the modules that the
records, annotations and file reads no longer need must stay off the CLI's
import path.  The test checks which modules load, not how long they take, so
a loaded host cannot flip it.  `re` and `fractions` stay: argparse, json and
the analysis need them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
UNUSED = {"dataclasses", "inspect", "typing", "pathlib", "importlib.resources"}


@pytest.mark.parametrize("code", [
    "import mecforge.cli",
    # the bundled data file, read without pathlib
    "import os, mecforge.cli; assert mecforge.cli.main(['analyze', 'aes', '--out', os.devnull]) == 0",
])
def test_cli_loads_no_unused_module(code):
    # -S: no site module, whose own imports would hide the package's
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "mecforge.cli" in out
    assert sorted(UNUSED.intersection(out)) == []
