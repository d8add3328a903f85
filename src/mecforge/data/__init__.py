"""Bundled reference tables."""

from importlib import resources


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def reference_complete_set_52511() -> list[int]:
    """The published 256-element complete set over p = 52511."""
    return [int(tok, 16) for tok in _read("complete_set_52511.txt").split()]


def path(name: str):
    """Filesystem path of a bundled data file."""
    return resources.files(__package__).joinpath(name)
