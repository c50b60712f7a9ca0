"""The README's library example and the hecke docstring examples run as doctests."""

import doctest
from pathlib import Path

from bssyt import hecke

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed


def test_hecke_doctests():
    result = doctest.testmod(hecke)
    assert result.attempted and not result.failed
