import random
from itertools import combinations, product as iproduct

import pytest

from qflag import (
    AlcoveSpec,
    ParabolicSubset,
    build_root_system,
    derived_parabolic,
    enumerate_alcove_lifts,
    flag_dimension,
    hom_dimension,
    is_effective,
    is_generic_levi_semistable,
    pairing,
    peterson_lift,
    push_degree,
)
from qflag.degrees import _c1_pairing

P2 = ParabolicSubset.of([2])  # A2 with this parabolic is the projective plane


def test_lift_examples_on_projective_plane():
    rs = build_root_system("A2")
    assert peterson_lift(rs, P2, (1,)).lam == (1, 0)
    assert peterson_lift(rs, P2, (2,)).lam == (2, 1)
    assert peterson_lift(rs, P2, (0,)).lam == (0, 0)


def test_lift_second_coordinate_is_floor_half():
    rs = build_root_system("A2")
    for d in range(11):
        assert peterson_lift(rs, P2, (d,)).lam == (d, d // 2)


def test_lift_borel_is_identity_map():
    rs = build_root_system("B2")
    assert peterson_lift(rs, ParabolicSubset(), (3, 5)).lam == (3, 5)


def test_lift_restricts_to_input_degree():
    rs = build_root_system("B3")
    for J in (ParabolicSubset.of([1]), ParabolicSubset.of([2, 3]), ParabolicSubset.of([1, 3])):
        for d0 in range(4):
            degree = tuple(d0 + k for k in range(len(J.free_nodes(3))))
            lifted = peterson_lift(rs, J, degree)
            assert lifted.degree == degree


def test_lift_rejects_bad_input():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        peterson_lift(rs, P2, (1, 2))
    with pytest.raises(ValueError):
        peterson_lift(rs, ParabolicSubset.full(2), ())


def test_derived_parabolic_examples():
    rs = build_root_system("A2")
    assert derived_parabolic(rs, P2, (1, 0)).indices == ()
    assert derived_parabolic(rs, P2, (2, 1)).indices == (2,)
    assert derived_parabolic(rs, P2, (0, 0)).indices == (2,)
    # raw, unreduced lift must be rejected
    with pytest.raises(ValueError):
        derived_parabolic(rs, P2, (3, 0))


def test_push_degree_examples():
    rs = build_root_system("A2")
    assert push_degree(rs, ParabolicSubset(), (1, 0)) == (1, 0)
    assert push_degree(rs, P2, (2, 1)) == (2,)
    assert push_degree(rs, P2, (0, 0)) == (0,)


def test_is_effective():
    rs = build_root_system("A2")
    assert is_effective(rs, P2, (1,))
    assert is_effective(rs, P2, (0,))
    assert not is_effective(rs, P2, (-1,))
    assert is_effective(rs, ParabolicSubset(), (1, 0))


def test_hom_dimension_projective_space_closed_form():
    # dim Hom_d(P^1, P^n) = (n+1)(d+1) - 1, the independent oracle
    for n in range(1, 5):
        rs = build_root_system(f"A{n}")
        J = ParabolicSubset.of(range(2, n + 1))
        for d in range(5):
            assert hom_dimension(rs, J, (d,)) == (n + 1) * (d + 1) - 1


def test_hom_dimension_on_borel():
    rs = build_root_system("A2")
    assert hom_dimension(rs, ParabolicSubset(), (1, 0)) == 5
    assert hom_dimension(rs, ParabolicSubset(), (0, 0)) == 3


def test_hom_dimension_zero_degree_is_flag_dimension():
    for name, j_nodes in [("A3", [1, 3]), ("B2", [1]), ("B2", [2]), ("G2", [1])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        zero = (0,) * len(J.free_nodes(rs.rank))
        assert hom_dimension(rs, J, zero) == flag_dimension(rs, J)


def test_hom_dimension_rejects_non_effective():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        hom_dimension(rs, P2, (-1,))


def test_semistability_parity_on_projective_plane():
    rs = build_root_system("A2")
    for d in range(7):
        assert is_generic_levi_semistable(rs, P2, (d,)) == (d % 2 == 0)
    with pytest.raises(ValueError):
        is_generic_levi_semistable(rs, P2, (-2,))


@pytest.mark.parametrize(
    "name,j_nodes", [("E7", range(1, 7)), ("E7", range(2, 8)), ("E8", range(2, 9))]
)
def test_degree_helpers_on_exceptional_types(name, j_nodes):
    # the Weyl groups of E7 and E8 are too large to enumerate, so the
    # helpers must lift the degree without enumerating a coset basis
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    dims, stable = [], []
    for d in range(4):
        lam = peterson_lift(rs, J, (d,)).lam
        dims.append(hom_dimension(rs, J, (d,)))
        stable.append(is_generic_levi_semistable(rs, J, (d,)))
        assert dims[-1] == flag_dimension(rs, J) + _c1_pairing(rs, J, lam)
        assert stable[-1] == (derived_parabolic(rs, J, lam) == J)
    if name == "E8":
        assert dims == [78, 101, 124, 147]
        assert stable == [True, False, False, False]


def test_semistability_trivial_for_borel():
    rs = build_root_system("B2")
    assert is_generic_levi_semistable(rs, ParabolicSubset(), (3, 1))


@pytest.mark.parametrize(
    "name,j_nodes",
    [("A2", [1]), ("A2", [2]), ("B2", [1]), ("B2", [2]), ("A3", [1, 3]), ("B3", [2, 3]), ("G2", [2])],
)
def test_lift_uniqueness_against_brute_force(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    r = len(J.free_nodes(rs.rank))
    rng = random.Random(5)
    degrees = {tuple(rng.randrange(0, 4) for _ in range(r)) for _ in range(6)}
    for degree in degrees:
        hits = enumerate_alcove_lifts(rs, J, degree, window=6)
        assert hits == [peterson_lift(rs, J, degree).lam]


def test_lift_stability_under_push_and_relift():
    for name, j_nodes in [("A2", [2]), ("B2", [1]), ("B2", [2]), ("A3", [1, 2])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for total in range(4):
            degree = (total,) * r
            lam = peterson_lift(rs, J, degree).lam
            jp = derived_parabolic(rs, J, lam)
            pushed = push_degree(rs, jp, lam)
            assert peterson_lift(rs, jp, pushed).lam == lam
            assert derived_parabolic(rs, jp, lam) == jp


def test_effectivity_transfer():
    for name, j_nodes in [("A2", [2]), ("B2", [2]), ("A3", [2, 3]), ("G2", [1])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(5):
            lam = peterson_lift(rs, J, (d0,) * r).lam
            assert all(x >= 0 for x in lam)


def test_alcove_condition_holds_on_all_levi_roots():
    for name, j_nodes in [("B3", [1, 2]), ("F4", [2, 3]), ("A4", [2, 3, 4])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(4):
            lam = peterson_lift(rs, J, (d0,) * r).lam
            for g in rs.parabolic_root_indices(J):
                assert pairing(rs, rs.positive_roots[g], lam) in (-1, 0)


def test_dimension_chain():
    # dim Hom_{d_B}(G/B) = dim Hom_{d_P'}(G/P') + dim(P'/B)
    # and dim Hom_{d_P'}(G/P') = dim Hom_{d_P}(G/P)
    for name, j_nodes in [("A2", [2]), ("B2", [1]), ("B2", [2]), ("A3", [1, 3])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(4):
            degree = (d0,) * r
            lam = peterson_lift(rs, J, degree).lam
            jp = derived_parabolic(rs, J, lam)
            pushed = push_degree(rs, jp, lam)
            borel = hom_dimension(rs, ParabolicSubset(), lam)
            at_jp = hom_dimension(rs, jp, pushed)
            fiber = len(rs.parabolic_root_indices(jp))
            assert borel == at_jp + fiber
            assert at_jp == hom_dimension(rs, J, degree)


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "F4"])
def test_alcove_walk_length_is_exact(name, monkeypatch):
    """The walk takes exactly one step per Levi-root hyperplane separating the
    starting coweight from the fundamental domain, on every proper J at
    degrees with coordinates <= 2."""
    rs = build_root_system(name)
    checks = 0
    first_violation = AlcoveSpec.first_violation

    def counted(self, lam):
        nonlocal checks
        checks += 1
        return first_violation(self, lam)

    monkeypatch.setattr(AlcoveSpec, "first_violation", counted)
    for k in range(rs.rank):
        for nodes in combinations(range(1, rs.rank + 1), k):
            J = ParabolicSubset.of(nodes)
            free = J.free_nodes(rs.rank)
            for degree in iproduct(range(3), repeat=len(free)):
                start = [0] * rs.rank
                for i, d in zip(free, degree):
                    start[i - 1] = d
                separating = 0
                for g in rs.parabolic_root_indices(J):
                    m = pairing(rs, rs.positive_roots[g], start)
                    separating += m if m > 0 else max(0, -1 - m)
                checks = 0
                lam = peterson_lift(rs, J, degree).lam
                assert max(checks - 1, 0) == separating
                assert AlcoveSpec.for_parabolic(rs, J).contains(lam)
                assert push_degree(rs, J, lam) == degree
