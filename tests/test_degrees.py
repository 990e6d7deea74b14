import random
from itertools import combinations, product as iproduct

import pytest

from qflag import (
    ParabolicSubset,
    build_root_system,
    check_comparison_consistency,
    comparison_data,
    derived_parabolic,
    enumerate_alcove_lifts,
    flag_dimension,
    from_word,
    gw_invariant,
    parabolic_gw_invariant,
    peterson_lift,
    push_degree,
)
from qflag import degrees
from qflag.degrees import _alcove_walls, _c1_pairing, _in_alcove

P2 = ParabolicSubset.of([2])  # A2 with this parabolic is the projective plane


def _hom_dimension(rs, parabolic, degree):
    """dim of the space of degree-d maps P^1 -> G/P: dim G/P + c_1(d)."""
    return comparison_data(rs, parabolic, degree).c1 + flag_dimension(rs, parabolic)


def _levi_semistable(rs, parabolic, degree):
    """Whether a generic degree-d map pulls the Levi bundle back to a
    semistable one: the lift's derived parabolic is all of J."""
    return comparison_data(rs, parabolic, degree).j_prime == parabolic


def test_lift_examples_on_projective_plane():
    rs = build_root_system("A2")
    assert peterson_lift(rs, P2, (1,)) == (1, 0)
    assert peterson_lift(rs, P2, (2,)) == (2, 1)
    assert peterson_lift(rs, P2, (0,)) == (0, 0)


def test_lift_second_coordinate_is_floor_half():
    rs = build_root_system("A2")
    for d in range(11):
        assert peterson_lift(rs, P2, (d,)) == (d, d // 2)


def test_lift_borel_is_identity_map():
    rs = build_root_system("B2")
    assert peterson_lift(rs, ParabolicSubset(), (3, 5)) == (3, 5)


def test_lift_restricts_to_input_degree():
    rs = build_root_system("B3")
    for J in (ParabolicSubset.of([1]), ParabolicSubset.of([2, 3]), ParabolicSubset.of([1, 3])):
        for d0 in range(4):
            degree = tuple(d0 + k for k in range(len(J.free_nodes(3))))
            lifted = peterson_lift(rs, J, degree)
            assert push_degree(rs, J, lifted) == degree


def test_lift_rejects_bad_input():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        peterson_lift(rs, P2, (1, 2))
    with pytest.raises(ValueError):
        peterson_lift(rs, ParabolicSubset.full(2), ())


def _line_two_points(rs, J, degree):
    # on the plane A2/{2}: 1 line through a line and two points at degree 1
    return parabolic_gw_invariant(rs, J, [from_word(rs, w) for w in ((1,), (2, 1), (2, 1))], degree)


_DEGREE_ENTRY_POINTS = {
    "peterson_lift": peterson_lift,
    "enumerate_alcove_lifts": enumerate_alcove_lifts,
    "comparison_data": comparison_data,
    "anticanonical_pairing": lambda rs, J, d: _c1_pairing(rs, J, peterson_lift(rs, J, d)),
    "hom_dimension": _hom_dimension,
    "is_generic_levi_semistable": _levi_semistable,
    "parabolic_gw_invariant": _line_two_points,
    "check_comparison_consistency": check_comparison_consistency,
}

_NOT_EFFECTIVE = ValueError("degree (-1,) is not effective")

# entry point -> its value at degree (1,) and at degree (-1,) of the plane
_DEGREE_VALUES = {
    "peterson_lift": ((1, 0), (-1, -1)),
    "enumerate_alcove_lifts": ([(1, 0)], [(-1, -1)]),
    "comparison_data": (None, _NOT_EFFECTIVE),
    "anticanonical_pairing": (3, -3),
    "hom_dimension": (5, _NOT_EFFECTIVE),
    "is_generic_levi_semistable": (False, _NOT_EFFECTIVE),
    "parabolic_gw_invariant": (1, 0),
    "check_comparison_consistency": (None, ()),
}

# inputs every entry point rejects alike, with the message
_DEGREE_ERRORS = [
    ((2,), (1, 2), "degree vector has 2 coordinates, expected 1"),
    ((2,), (), "degree vector has 0 coordinates, expected 1"),
    ((1, 2), (), "the full parabolic has no curve classes (H_2 = 0)"),
    ((1, 2), (1,), "the full parabolic has no curve classes (H_2 = 0)"),
    ((5,), (1,), "parabolic node 5 out of range for A2"),
]


@pytest.mark.parametrize("name", sorted(_DEGREE_ENTRY_POINTS))
@pytest.mark.parametrize("nodes, degree, message", _DEGREE_ERRORS)
def test_degree_validation_messages(name, nodes, degree, message):
    rs = build_root_system("A2")
    with pytest.raises(ValueError) as info:
        _DEGREE_ENTRY_POINTS[name](rs, ParabolicSubset.of(nodes), degree)
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(_DEGREE_ENTRY_POINTS))
def test_degree_validation_values(name):
    rs = build_root_system("A2")
    fn = _DEGREE_ENTRY_POINTS[name]
    at_one, at_minus_one = _DEGREE_VALUES[name]
    # a list is a degree like the tuple with the same coordinates
    assert fn(rs, P2, [1]) == fn(rs, P2, (1,))
    if at_one is not None:
        assert fn(rs, P2, (1,)) == at_one
    if isinstance(at_minus_one, ValueError):
        with pytest.raises(ValueError) as info:
            fn(rs, P2, (-1,))
        assert str(info.value) == str(at_minus_one)
    else:
        assert fn(rs, P2, (-1,)) == at_minus_one


_NON_INTEGERS = [1.5, 2.0, 1.2, 0.7, "2", None, True]


@pytest.mark.parametrize("x", _NON_INTEGERS, ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda rs, d: peterson_lift(rs, P2, d),
        lambda rs, d: enumerate_alcove_lifts(rs, P2, d),
        lambda rs, d: comparison_data(rs, P2, d),
        lambda rs, d: _hom_dimension(rs, P2, d),
        lambda rs, d: _line_two_points(rs, P2, d),
        lambda rs, d: gw_invariant(rs, [from_word(rs, w) for w in ((1,), (1, 2, 1), (1, 2, 1))], d + (0,)),
    ],
    ids=["peterson_lift", "enumerate_alcove_lifts", "comparison_data", "hom_dimension",
         "parabolic_gw_invariant", "gw_invariant"],
)
def test_degree_coordinates_must_be_integers(call, x):
    # truncating would read 1.2 as 1 for the grading but as 1.2 for the
    # coefficient lookup
    rs = build_root_system("A2")
    with pytest.raises(ValueError) as info:
        call(rs, (x,))
    assert str(info.value) == f"degree coordinate {x!r} is not an integer"


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


def test_hom_dimension_projective_space_closed_form():
    # dim Hom_d(P^1, P^n) = (n+1)(d+1) - 1, the independent oracle
    for n in range(1, 5):
        rs = build_root_system(f"A{n}")
        J = ParabolicSubset.of(range(2, n + 1))
        for d in range(5):
            assert _hom_dimension(rs, J, (d,)) == (n + 1) * (d + 1) - 1


def test_hom_dimension_on_borel():
    rs = build_root_system("A2")
    assert _hom_dimension(rs, ParabolicSubset(), (1, 0)) == 5
    assert _hom_dimension(rs, ParabolicSubset(), (0, 0)) == 3


def test_hom_dimension_zero_degree_is_flag_dimension():
    for name, j_nodes in [("A3", [1, 3]), ("B2", [1]), ("B2", [2]), ("G2", [1])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        zero = (0,) * len(J.free_nodes(rs.rank))
        assert _hom_dimension(rs, J, zero) == flag_dimension(rs, J)


def test_hom_dimension_rejects_non_effective():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        _hom_dimension(rs, P2, (-1,))


def test_semistability_parity_on_projective_plane():
    rs = build_root_system("A2")
    for d in range(7):
        assert _levi_semistable(rs, P2, (d,)) == (d % 2 == 0)
    with pytest.raises(ValueError):
        _levi_semistable(rs, P2, (-2,))


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
        lam = peterson_lift(rs, J, (d,))
        dims.append(_hom_dimension(rs, J, (d,)))
        stable.append(_levi_semistable(rs, J, (d,)))
        assert dims[-1] == flag_dimension(rs, J) + _c1_pairing(rs, J, lam)
        assert stable[-1] == (derived_parabolic(rs, J, lam) == J)
    if name == "E8":
        assert dims == [78, 101, 124, 147]
        assert stable == [True, False, False, False]


def test_semistability_trivial_for_borel():
    rs = build_root_system("B2")
    assert _levi_semistable(rs, ParabolicSubset(), (3, 1))


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
        assert hits == [peterson_lift(rs, J, degree)]


def test_lift_stability_under_push_and_relift():
    for name, j_nodes in [("A2", [2]), ("B2", [1]), ("B2", [2]), ("A3", [1, 2])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for total in range(4):
            degree = (total,) * r
            lam = peterson_lift(rs, J, degree)
            jp = derived_parabolic(rs, J, lam)
            pushed = push_degree(rs, jp, lam)
            assert peterson_lift(rs, jp, pushed) == lam
            assert derived_parabolic(rs, jp, lam) == jp


def test_effectivity_transfer():
    for name, j_nodes in [("A2", [2]), ("B2", [2]), ("A3", [2, 3]), ("G2", [1])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(5):
            lam = peterson_lift(rs, J, (d0,) * r)
            assert all(x >= 0 for x in lam)


def test_alcove_condition_holds_on_all_levi_roots():
    for name, j_nodes in [("B3", [1, 2]), ("F4", [2, 3]), ("A4", [2, 3, 4])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(4):
            lam = peterson_lift(rs, J, (d0,) * r)
            for g in rs.parabolic_root_indices(J):
                assert rs.pairing(rs.positive_roots[g], lam) in (-1, 0)


def test_dimension_chain():
    # dim Hom_{d_B}(G/B) = dim Hom_{d_P'}(G/P') + dim(P'/B)
    # and dim Hom_{d_P'}(G/P') = dim Hom_{d_P}(G/P)
    for name, j_nodes in [("A2", [2]), ("B2", [1]), ("B2", [2]), ("A3", [1, 3])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        r = len(J.free_nodes(rs.rank))
        for d0 in range(4):
            degree = (d0,) * r
            lam = peterson_lift(rs, J, degree)
            jp = derived_parabolic(rs, J, lam)
            pushed = push_degree(rs, jp, lam)
            borel = _hom_dimension(rs, ParabolicSubset(), lam)
            at_jp = _hom_dimension(rs, jp, pushed)
            fiber = len(rs.parabolic_root_indices(jp))
            assert borel == at_jp + fiber
            assert at_jp == _hom_dimension(rs, J, degree)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "F4", "G2"])
def test_alcove_walk_length_is_exact(name, monkeypatch):
    """The walk takes exactly one step per Levi-root hyperplane separating the
    starting coweight from the fundamental domain, on every proper J at
    degrees with coordinates <= 2: it fits in that many steps and not in one
    fewer."""
    rs = build_root_system(name)
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
                    m = rs.pairing(rs.positive_roots[g], start)
                    separating += m if m > 0 else max(0, -1 - m)
                assert degrees._walk_length(rs, J, start) == separating
                lam = peterson_lift(rs, J, degree)
                assert _in_alcove(rs, J, lam)
                assert push_degree(rs, J, lam) == degree
                monkeypatch.setattr(degrees, "_walk_length", lambda *_: separating)
                assert peterson_lift(rs, J, degree) == lam
                if separating:
                    monkeypatch.setattr(degrees, "_walk_length", lambda *_: separating - 1)
                    with pytest.raises(RuntimeError, match="exceeded"):
                        peterson_lift(rs, J, degree)
                monkeypatch.undo()


TYPES_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{s}{n}" for s in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", TYPES_TO_RANK_8)
def test_alcove_walls_are_the_simple_roots_and_component_highest_roots(name):
    """For every J, the walk's linear walls are the simple roots of J, and its
    affine walls are the highest root, with its coroot, of each connected
    component of J in the Dynkin graph."""
    rs = build_root_system(name)
    roots, coroots = rs.positive_roots, rs.positive_coroots
    for k in range(rs.rank + 1):
        for nodes in combinations(range(1, rs.rank + 1), k):
            J = ParabolicSubset.of(nodes)
            components, left = [], set(nodes)
            while left:
                component, stack = set(), [min(left)]
                while stack:
                    i = stack.pop()
                    component.add(i)
                    stack += [j for j in left - component if rs.cartan[i - 1][j - 1]]
                left -= component
                components.append(component)
            highest = []
            for component in components:
                on_it = [
                    g for g, r in enumerate(roots)
                    if all(r[i - 1] == 0 or i in component for i in range(1, rs.rank + 1))
                ]
                top = max(sum(roots[g]) for g in on_it)
                (g,) = [g for g in on_it if sum(roots[g]) == top]
                highest.append((roots[g], coroots[g]))
            walls = _alcove_walls(rs, J)
            linear = [roots[g] for g, s, _ in walls if s == 1]
            affine = [(roots[g], coroots[g]) for g, s, _ in walls if s == -1]
            assert linear == [tuple(int(i == j) for i in range(1, rs.rank + 1)) for j in nodes]
            assert {(s, level) for _, s, level in walls} <= {(1, 0), (-1, 1)}
            assert sorted(affine) == sorted(highest)
