import pytest

from qflag import ParabolicSubset, identity, longest_element, simple_reflection
from qflag.classical import _integral, _localizations
from qflag.quantum import _engine
from qflag.root_system import CartanType, RootSystem


def test_integral_is_graded_and_divides_exactly():
    rs = RootSystem(CartanType.parse("A3"))  # private: its localizations are corrupted below
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    s1 = simple_reflection(rs, 1)
    assert _integral(rs, (w_o,)) == 1
    # off the top degree: below it the localization sum vanishes, above it
    # the sum is a nonzero multiple of the denominator
    assert _integral(rs, (identity(rs),)) == 0
    assert _integral(rs, (s1, w_o)) == 0
    loc = _localizations(rs)
    top = loc.index[w_o.perm]
    loc.rows[top][top] += 1
    with pytest.raises(RuntimeError, match="not divisible"):
        _integral(rs, (w_o,))


def test_localizations_read_the_engine_enumeration():
    rs = RootSystem(CartanType.parse("B3"))
    assert _localizations(rs).elements is _engine(rs).elements
