"""Bundled reference tables, in the files next to this module."""

import os

_DIR = os.path.dirname(__file__)


def read(name: str) -> str:
    """Text of a bundled data file."""
    with open(os.path.join(_DIR, name), encoding="utf-8") as f:
        return f.read()


def reference_complete_set_52511() -> list[int]:
    """The published 256-element complete set over p = 52511."""
    return [int(tok, 16) for tok in read("complete_set_52511.txt").split()]


def path(name: str):
    """Filesystem path of a bundled data file, as a `pathlib.Path`."""
    import pathlib  # loaded only for the callers that want a Path
    return pathlib.Path(_DIR, name)
