"""Property tests of the Peterson lift on random types, parabolics and
effective degrees of rank at most 4."""

from hypothesis import given, settings, strategies as st

from qflag import (
    CartanType,
    ParabolicSubset,
    build_root_system,
    comparison_data,
    enumerate_alcove_lifts,
    peterson_lift,
    push_degree,
)

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


@st.composite
def spaces(draw):
    """A Cartan type, a proper parabolic and an effective degree with
    coordinates at most 3; the root system is built in the test, so that
    drawing stays fast."""
    name = draw(st.sampled_from(TYPES))
    rank = CartanType.parse(name).rank
    # the free nodes as a nonzero bit mask: J is proper
    mask = draw(st.integers(1, 2**rank - 1))
    parabolic = ParabolicSubset.of(j for j in range(1, rank + 1) if not mask >> (j - 1) & 1)
    degree = tuple(draw(st.integers(0, 3)) for _ in parabolic.free_nodes(rank))
    return name, parabolic, degree


@settings(deadline=None, max_examples=200)  # a timing limit would make a slow machine fail it
@given(spaces())
def test_lift_is_the_unique_alcove_point_and_stable(space):
    name, parabolic, degree = space
    rs = build_root_system(name)
    lam = peterson_lift(rs, parabolic, degree)
    # the walk finds the one lattice point of the brute-force window
    assert enumerate_alcove_lifts(rs, parabolic, degree, window=6) == [lam]
    assert push_degree(rs, parabolic, lam) == degree
    # relifting d'' at the derived parabolic P' gives back lambda and P'
    cd = comparison_data(rs, parabolic, degree)
    relift = comparison_data(rs, cd.j_prime, cd.d_pprime)
    assert (relift.d_B, relift.j_prime) == (cd.d_B, cd.j_prime)
    # c_1 pairs to at least 2 with each free coroot, so c_1 >= 2 sum(d)
    # bounds the text that `cache.check_document` holds before it rejects a
    # run-on file (its `bound`)
    assert cd.c1 >= 2 * sum(degree)
