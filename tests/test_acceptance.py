"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line (visible with pytest -s or on failure); the
stated runtime ceilings are asserted with time.perf_counter.
"""

import json
import random
import time
from itertools import combinations_with_replacement, permutations, product as iproduct

import pytest

from qflag import (
    BOREL,
    ParabolicSubset,
    QClass,
    build_root_system,
    classical_parabolic_invariant,
    comparison_data,
    derived_parabolic,
    enumerate_alcove_lifts,
    enumerate_min_reps,
    flag_dimension,
    from_word,
    gw_invariant,
    longest_element,
    parabolic_gw_invariant,
    parabolic_quantum_product,
    peterson_lift,
    push_degree,
    quantum_product,
    simple_reflection,
    star,
)
from qflag.cli import main as cli_main
from qflag.quantum import _engine, _oriented_product

P2 = ParabolicSubset.of([2])


def _hom_dimension(rs, parabolic, degree):
    """dim of the space of degree-d maps P^1 -> G/P: dim G/P + c_1(d)."""
    return comparison_data(rs, parabolic, degree).c1 + flag_dimension(rs, parabolic)


def _report(number, text, t0):
    print(f"criterion {number}: PASS ({time.perf_counter() - t0:.2f}s) {text}")


def _maximal_parabolics(rank):
    return [ParabolicSubset.of([j]) for j in range(1, rank + 1)]


def _sweep_cases():
    """Criterion-6 sweep: A2 and B2, every maximal parabolic, degrees <= 3."""
    cases = []
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for J in _maximal_parabolics(rs.rank):
            for d in range(4):
                cases.append((rs, J, (d,)))
    return cases


def test_criterion_1_projective_plane_invariant():
    t0 = time.perf_counter()
    rs = build_root_system("A2")
    h = simple_reflection(rs, 1)
    pt = from_word(rs, (2, 1))
    assert parabolic_gw_invariant(rs, P2, [h, pt, pt], (1,)) == 1
    assert gw_invariant(rs, [h, pt, pt], (1, 0)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "line through a line and two points = 1, both routes", t0)


def test_criterion_2_lift_table():
    t0 = time.perf_counter()
    rs = build_root_system("A2")
    for d in range(7):
        lifted = peterson_lift(rs, P2, (d,))
        assert lifted == (d, d // 2)
        jp = derived_parabolic(rs, P2, lifted)
        assert jp.indices == ((2,) if d % 2 == 0 else ())
    _report(2, "lift table d=0..6: second coordinate floor(d/2), parity of P'", t0)


def test_criterion_3_semistability_parity():
    t0 = time.perf_counter()
    rs = build_root_system("A2")
    for d in range(7):
        # semistable iff the lift's derived parabolic is all of J
        assert (comparison_data(rs, P2, (d,)).j_prime == P2) == (d % 2 == 0)
    _report(3, "generic Levi semistability iff even degree, d=0..6", t0)


def test_criterion_4_projective_space_presentations():
    t0 = time.perf_counter()
    for n in range(1, 5):
        rs = build_root_system(f"A{n}")
        J = ParabolicSubset.of(range(2, n + 1))
        basis = enumerate_min_reps(rs, J)
        h = basis[1]
        power = QClass.unit(rs, J, h)
        for _ in range(n):
            power = star(QClass.unit(rs, J, h), power)
        assert power == QClass(rs, J, {(basis[0], (1,)): 1}), f"P^{n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, "h^(n+1) = q on P^n for n=1..4 through the comparison route", t0)


def test_criterion_5_associativity_commutativity():
    t0 = time.perf_counter()
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        eng = _engine(rs)
        elements = enumerate_min_reps(rs, BOREL)
        for a in elements:
            for b in elements:
                # both orders of quantum_product read one table: compare the two recursions
                x, y = eng.index[a.perm], eng.index[b.perm]
                assert _oriented_product(eng, x, y) == _oriented_product(eng, y, x)
                for c in elements:
                    left = star(quantum_product(rs, a, b), QClass.unit(rs, BOREL, c))
                    right = star(QClass.unit(rs, BOREL, a), quantum_product(rs, b, c))
                    assert left == right
    rs = build_root_system("A3")
    eng = _engine(rs)
    elements = enumerate_min_reps(rs, BOREL)
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        left = star(quantum_product(rs, a, b), QClass.unit(rs, BOREL, c))
        right = star(QClass.unit(rs, BOREL, a), quantum_product(rs, b, c))
        assert left == right
        x, y = eng.index[a.perm], eng.index[b.perm]
        assert _oriented_product(eng, x, y) == _oriented_product(eng, y, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, "exact associativity/commutativity: A2, B2 exhaustive; A3 x200", t0)


def test_criterion_6_comparison_symmetry():
    t0 = time.perf_counter()
    checked = 0
    for rs, J, degree in _sweep_cases():
        basis = enumerate_min_reps(rs, J)
        for trip in combinations_with_replacement(basis, 3):
            vals = {
                parabolic_gw_invariant(rs, J, list(p), degree)
                for p in permutations(trip)
            }
            assert len(vals) == 1, (rs.cartan_type, J, degree, trip)
            checked += 1
    _report(6, f"invariants symmetric under all argument orders ({checked} triples)", t0)


def test_criterion_7_degree_zero_comparison():
    t0 = time.perf_counter()
    checked = 0
    for rs, J, degree in _sweep_cases():
        if any(degree):
            continue
        basis = enumerate_min_reps(rs, J)
        for trip in combinations_with_replacement(basis, 3):
            assert parabolic_gw_invariant(
                rs, J, list(trip), degree
            ) == classical_parabolic_invariant(rs, J, list(trip))
            checked += 1
    _report(7, f"degree-0 invariants match the classical pushforward oracle ({checked})", t0)


def test_criterion_8_lift_uniqueness_oracle():
    t0 = time.perf_counter()
    for rs, J, degree in _sweep_cases():
        hits = enumerate_alcove_lifts(rs, J, degree, window=6)
        assert hits == [peterson_lift(rs, J, degree)], (rs.cartan_type, J, degree)
    _report(8, "exactly one lattice lift in window [-6,6] per sweep case", t0)


def test_criterion_9_dimension_identities():
    t0 = time.perf_counter()
    for rs, J, degree in _sweep_cases():
        lam = peterson_lift(rs, J, degree)
        jp = derived_parabolic(rs, J, lam)
        pushed = push_degree(rs, jp, lam)
        fiber = len(rs.parabolic_root_indices(jp))
        assert _hom_dimension(rs, BOREL, lam) == _hom_dimension(rs, jp, pushed) + fiber
        assert _hom_dimension(rs, jp, pushed) == _hom_dimension(rs, J, degree)
    rs = build_root_system("A2")
    for d in range(5):
        assert _hom_dimension(rs, P2, (d,)) == 2 + 3 * d == 3 * (d + 1) - 1
    _report(9, "morphism-space dimension chains; dim Hom_d(P^1,P^2) = 2+3d", t0)


def test_criterion_10_table_integrity_and_cache(tmp_path, capsys):
    t0 = time.perf_counter()
    # nonnegative integer, grading-homogeneous structure constants
    rs = build_root_system("A2")
    elements = enumerate_min_reps(rs, BOREL)
    for u in elements:
        for v in elements:
            for (w, d), c in quantum_product(rs, u, v).terms.items():
                assert isinstance(c, int) and c > 0
                assert u.length + v.length == w.length + 2 * sum(d)
    basis = enumerate_min_reps(rs, P2)
    weights = [comparison_data(rs, P2, (1,)).c1]
    assert weights == [3]  # Fano index of the projective plane
    for u in basis:
        for v in basis:
            for (w, d), c in parabolic_quantum_product(rs, P2, u, v).terms.items():
                assert isinstance(c, int) and c > 0
                assert u.length + v.length == w.length + sum(
                    wt * x for wt, x in zip(weights, d)
                )
    # cache round trip: recompute vs reload byte-identical
    for argv in (
        ["table", "--type", "A2", "--parabolic", "", "--cache-dir", str(tmp_path), "--json"],
        ["table", "--type", "A2", "--parabolic", "2", "--cache-dir", str(tmp_path), "--json"],
    ):
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "cache hit" in captured.err
        json.loads(first)  # well-formed payload
    _report(10, "tables are nonneg integer, graded, cache-stable", t0)
