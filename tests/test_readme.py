"""The README's library quick tour is a doctest: its outputs are the real
ones, and its `from qflag import *` resolves every name in `__all__`."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
