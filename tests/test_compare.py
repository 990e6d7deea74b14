import json
import re
from bisect import bisect_right
from collections import Counter
from itertools import combinations, permutations, product as iproduct
from operator import mul

import pytest

from qflag import (
    BOREL,
    CartanType,
    ParabolicSubset,
    QClass,
    RootSystem,
    build_root_system,
    check_comparison_consistency,
    classical_parabolic_invariant,
    classical_product,
    comparison_data,
    enumerate_min_reps,
    flag_dimension,
    format_word,
    from_word,
    gw_invariant,
    identity,
    longest_element,
    min_coset_rep,
    parabolic_gw_invariant,
    parabolic_quantum_product,
    parse_word,
    quantum_product,
    simple_reflection,
    star,
)
from qflag import compare
from qflag.cli import main
from qflag.compare import CheckResult, _Context, _context
from qflag.degrees import _c1_pairing
from qflag.quantum import _Engine, _int_product, _level
from qflag.weyl import WeylElement, _enumerate

P2 = ParabolicSubset.of([2])


class ProjectiveOracle:
    """Z[h,q]/(h^{n+1} - q): the known quantum ring of projective n-space.

    Basis h^0..h^n over Z[q]; any product of basis classes is a single
    q-power times a basis class.
    """

    def __init__(self, n):
        self.n = n

    def product(self, a, b):
        e = a + b
        return (e % (self.n + 1), e // (self.n + 1))


def test_comparison_data_cases():
    rs = build_root_system("A2")
    cd = comparison_data(rs, P2, (1,))
    assert cd.d_B == (1, 0)
    assert cd.j_prime.indices == ()
    assert cd.w_prime == identity(rs)
    assert cd.d_pprime == (1, 0)

    cd = comparison_data(rs, P2, (2,))
    assert cd.d_B == (2, 1)
    assert cd.j_prime.indices == (2,)
    assert cd.w_prime == simple_reflection(rs, 2)
    assert cd.d_pprime == (2,)

    cd = comparison_data(rs, P2, (0,))
    assert cd.d_B == (0, 0)
    assert cd.j_prime == P2
    assert cd.w_prime == longest_element(rs, P2)

    with pytest.raises(ValueError):
        comparison_data(rs, P2, (-1,))


def test_projective_plane_line_through_line_and_two_points():
    rs = build_root_system("A2")
    h = simple_reflection(rs, 1)
    pt = from_word(rs, (2, 1))
    assert parabolic_gw_invariant(rs, P2, [h, pt, pt], (1,)) == 1
    assert parabolic_gw_invariant(rs, P2, [pt, pt, h], (1,)) == 1
    # grading: 6 != 5
    assert parabolic_gw_invariant(rs, P2, [pt, pt, pt], (1,)) == 0
    assert parabolic_gw_invariant(rs, P2, [h, pt, pt], (-1,)) == 0
    with pytest.raises(ValueError):
        parabolic_gw_invariant(rs, P2, [h, pt], (1,))


def test_non_minimal_representatives_are_normalized():
    rs = build_root_system("A2")
    pt = from_word(rs, (2, 1))
    wobbly = from_word(rs, (1, 2))  # same coset as s1
    assert parabolic_gw_invariant(rs, P2, [wobbly, pt, pt], (1,)) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_projective_space_table_matches_oracle(n):
    rs = build_root_system(f"A{n}")
    J = ParabolicSubset.of(range(2, n + 1))
    basis = enumerate_min_reps(rs, J)
    assert [w.length for w in basis] == list(range(n + 1))
    oracle = ProjectiveOracle(n)
    for a in range(n + 1):
        for b in range(n + 1):
            got = parabolic_quantum_product(rs, J, basis[a], basis[b])
            exp_idx, exp_q = oracle.product(a, b)
            expected = QClass(rs, J, {(basis[exp_idx], (exp_q,)): 1})
            assert got == expected, f"h^{a} * h^{b}"


def test_spin5_realization_of_projective_3_space():
    # B2 with parabolic {1} is P^3 again (the spinor variety of Spin(5)), so
    # its quantum ring must match the type-A oracle including q-degrees.
    rs = build_root_system("B2")
    J = ParabolicSubset.of([1])
    basis = enumerate_min_reps(rs, J)
    assert [w.length for w in basis] == [0, 1, 2, 3]
    oracle = ProjectiveOracle(3)
    for a in range(4):
        for b in range(4):
            got = parabolic_quantum_product(rs, J, basis[a], basis[b])
            exp_idx, exp_q = oracle.product(a, b)
            expected = QClass(rs, J, {(basis[exp_idx], (exp_q,)): 1})
            assert got == expected


def test_quadric_threefold_table():
    # B2 with parabolic {2} is the 3-dimensional quadric; frozen from the
    # classical degree (h.h = 2 sigma_2) plus associativity of the engine,
    # and matching the known relation h^4 = 4 q h.
    rs = build_root_system("B2")
    J = ParabolicSubset.of([2])
    e, h, s2c, pt = enumerate_min_reps(rs, J)
    prod = parabolic_quantum_product
    assert prod(rs, J, h, h) == QClass(rs, J, {(s2c, (0,)): 2})
    assert prod(rs, J, h, s2c) == QClass(rs, J, {(pt, (0,)): 1, (e, (1,)): 1})
    assert prod(rs, J, h, pt) == QClass(rs, J, {(h, (1,)): 1})
    assert prod(rs, J, s2c, s2c) == QClass(rs, J, {(h, (1,)): 1})
    assert prod(rs, J, pt, pt) == QClass(rs, J, {(e, (2,)): 1})


def test_parabolic_star_bilinearity():
    rs = build_root_system("A2")
    basis = enumerate_min_reps(rs, P2)
    h = QClass.unit(rs, P2, basis[1])
    pt = QClass.unit(rs, P2, basis[2])
    mixed = star(QClass(rs, P2, {**h.terms, **pt.terms}), h)
    split = dict(star(h, h).terms)
    for key, c in star(pt, h).terms.items():
        split[key] = split.get(key, 0) + c
    assert mixed == QClass(rs, P2, split)


def _qclass(rs, J, rows):
    return QClass(rs, J, {(from_word(rs, parse_word(w)), d): c for w, d, c in rows})


def _expand(rs, J, a, b):
    """The product of two term dicts, summed term pair by term pair."""
    total = Counter()
    for ((x, dx), cx), ((y, dy), cy) in iproduct(a.items(), b.items()):
        for (w, d), c in parabolic_quantum_product(rs, J, x, y).terms.items():
            degree = tuple(d[i] + dx[i] + dy[i] for i in range(len(d)))
            total[(w, degree)] += cx * cy * c
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize(
    "name, nodes, a_rows, b_rows",
    [
        ("A2", [2], [("s1", (0,), 2), ("s2s1", (1,), 3)], [("e", (0,), 3), ("s1", (1,), 2)]),
        (
            "B2",
            [],
            [("s1", (0, 0), 2), ("s2s1", (1, 0), 3), ("e", (0, 1), 1)],
            [("s2", (0, 0), 3), ("s1", (0, 1), 2), ("s1s2", (1, 1), 1)],
        ),
    ],
    ids=["A2-P2", "B2-borel"],
)
def test_star_extends_bilinearly_over_q(name, nodes, a_rows, b_rows):
    rs = build_root_system(name)
    J = ParabolicSubset.of(nodes)
    a, b = _qclass(rs, J, a_rows), _qclass(rs, J, b_rows)
    product = star(a, b)
    assert product.terms == _expand(rs, J, a.terms, b.terms)
    assert product == star(b, a)


def test_star_on_the_projective_plane():
    # (2h + 3q pt)(3 + 2q h) = 6h + 13q pt + 6q^3, as pt = h^2 and h^3 = q
    rs = build_root_system("A2")
    a = _qclass(rs, P2, [("s1", (0,), 2), ("s2s1", (1,), 3)])
    b = _qclass(rs, P2, [("e", (0,), 3), ("s1", (1,), 2)])
    expected = _qclass(rs, P2, [("s1", (0,), 6), ("s2s1", (1,), 13), ("e", (3,), 6)])
    assert star(a, b) == expected


def test_iterated_products_pass_the_degrees_a_packed_key_holds(capsys):
    # on P^1 a packed degree holds q1 at most (base dim + 1 = 2), and the
    # iterated products of five classes reach q1^2 exactly
    rs = build_root_system("A1")
    h = QClass.unit(rs, BOREL, simple_reflection(rs, 1))
    assert str(star(star(star(star(h, h), h), h), h)) == "q1^2 * sigma[s1]"
    assert main(["gw", "--type", "A1", "--classes", "s1,s1,s1,s1,s1", "--degree", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "invariant: 1"


@pytest.mark.parametrize("name, j_nodes", [("A4", ()), ("D4", (1,))])
def test_product_keys_sort_in_the_order_of_sorted_terms(name, j_nodes):
    # a key packs sum(d), d and the basis position, so the sorted keys of a
    # product are its terms in the order that QClass.sorted_terms gives
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    ctx = _context(rs, J)
    ring, basis, n = ctx.ring, ctx.basis, len(ctx.basis)
    tied = 0  # products with two degrees of one sum, ordered by d itself
    for i, j in iproduct(range(n), repeat=2):
        got = [((basis[key % n], ring.degree(key // n)), c) for key, c in ctx.int_terms(i, j)]
        assert got == QClass(rs, J, dict(got)).sorted_terms()
        sums = Counter(sum(d) for d in {d for (_, d), _ in got})
        tied += any(count > 1 for count in sums.values())
    assert tied


def test_star_refuses_classes_of_different_rings():
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    s1 = simple_reflection(a2, 1)
    with pytest.raises(ValueError):
        star(QClass.unit(a2, P2, s1), QClass.unit(a2, BOREL, s1))
    with pytest.raises(ValueError):
        star(QClass.unit(a2, BOREL, s1), QClass.unit(b2, BOREL, simple_reflection(b2, 1)))


def test_elements_of_another_root_system_are_refused():
    # A2 elements against the B2 root system: each entry point raises the
    # error a product of such elements raises, not a lookup error
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    u, v = from_word(a2, (1, 2)), from_word(a2, (2,))
    calls = [
        lambda: quantum_product(b2, u, v),
        lambda: parabolic_quantum_product(b2, ParabolicSubset.of([1]), u, v),
        lambda: star(QClass.unit(b2, BOREL, u), QClass.unit(b2, BOREL, v)),
        lambda: star(QClass(b2, BOREL, {(u, (0, 0)): 1}), QClass.unit(b2, BOREL, identity(b2))),
        lambda: parabolic_gw_invariant(b2, BOREL, [u, v, u], (0, 0)),
        lambda: gw_invariant(b2, [u, v, u], (0, 0)),
        lambda: classical_product(b2, u, v),
        lambda: classical_parabolic_invariant(b2, BOREL, [u, v, u]),
        lambda: u * simple_reflection(b2, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^elements belong to different root systems$"):
            call()
    # a root system with the same Cartan matrix is the same one
    a2_private = RootSystem(CartanType.parse("A2"))
    assert quantum_product(a2_private, u, v) == quantum_product(a2, u, v)


def test_borel_case_degenerates_to_flag_engine():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    pt = from_word(rs, (2, 1))
    assert parabolic_gw_invariant(rs, BOREL, [s1, pt, pt], (1, 0)) == gw_invariant(
        rs, [s1, pt, pt], (1, 0)
    )
    got = parabolic_quantum_product(rs, BOREL, s1, s1)
    # same terms as the direct engine product
    from qflag import quantum_product

    direct = quantum_product(rs, s1, s1)
    assert got.terms == direct.terms


@pytest.mark.parametrize(
    "name,j_nodes,maxd",
    [("A2", [1], 2), ("A2", [2], 2), ("B2", [1], 2), ("B2", [2], 2), ("A3", [1, 3], 1)],
)
def test_symmetry_sweep(name, j_nodes, maxd):
    from itertools import combinations_with_replacement, product as iproduct

    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    r = len(J.free_nodes(rs.rank))
    for degree in iproduct(range(maxd + 1), repeat=r):
        for trip in combinations_with_replacement(basis, 3):
            vals = {
                parabolic_gw_invariant(rs, J, list(p), degree)
                for p in permutations(trip)
            }
            assert len(vals) == 1


def test_degree_zero_matches_classical_oracle():
    from itertools import combinations_with_replacement

    for name, j_nodes in [("A2", [2]), ("B2", [1]), ("B2", [2])]:
        rs = build_root_system(name)
        J = ParabolicSubset.of(j_nodes)
        basis = enumerate_min_reps(rs, J)
        zero = (0,) * len(J.free_nodes(rs.rank))
        for trip in combinations_with_replacement(basis, 3):
            assert parabolic_gw_invariant(
                rs, J, list(trip), zero
            ) == classical_parabolic_invariant(rs, J, list(trip))


def test_consistency_report_projective_plane():
    rs = build_root_system("A2")
    for d in range(3):
        results = check_comparison_consistency(rs, P2, (d,))
        assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = [r.name for r in check_comparison_consistency(rs, P2, (0,))]
    assert "classical-degree-zero" in names


def test_consistency_report_trivial_for_non_effective():
    rs = build_root_system("A2")
    results = check_comparison_consistency(rs, P2, (-2,))
    assert all(r.passed for r in results)
    assert results == ()


@pytest.mark.parametrize("name,j_nodes", [("A3", [1, 3]), ("B2", [1])])
def test_consistency_report_takes_list_degrees(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    for degree in iproduct(range(3), repeat=len(J.free_nodes(rs.rank))):
        assert check_comparison_consistency(
            rs, J, list(degree)
        ) == check_comparison_consistency(rs, J, degree)


@pytest.mark.parametrize("name,j_nodes", [("A3", [2]), ("B2", [1]), ("G2", [1])])
def test_consistency_report_counts_every_graded_triple(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    for degree in iproduct(range(3), repeat=len(J.free_nodes(rs.rank))):
        target = flag_dimension(rs, J) + comparison_data(rs, J, degree).c1
        graded = sum(
            a.length + b.length + c.length == target
            for a, b, c in iproduct(basis, repeat=3)
        )
        for entry in check_comparison_consistency(rs, J, degree):
            counted = re.search(r"(\d+) (?:graded )?triples", entry.detail)
            assert int(counted.group(1)) == graded, (degree, entry)


def _raise_one_coefficient(monkeypatch, parabolic, pair, key):
    """Serve the rows of one unordered pair in one ring, in either order,
    with the coefficient at `key`, a (basis position, degree) pair, raised
    by 1."""
    true_rows = _Context.rows

    def rows(self, i, j):
        got = true_rows(self, i, j)
        if self.parabolic == parabolic and {self.basis[i], self.basis[j]} == set(pair):
            y, d = key
            packed = self.ring.pack(d) * self.ring.size + y
            terms = dict(got)
            terms[packed] = terms.get(packed, 0) + 1
            got = sorted(terms.items())
        return got

    monkeypatch.setattr(_Context, "rows", rows)


@pytest.mark.parametrize("ring", ["P", "P'"])
def test_consistency_report_catches_one_bad_value(monkeypatch, ring):
    # on Fl(1, 3; 4) at degree (0, 1) the derived parabolic is the Borel one;
    # one graded coefficient of one ordered product (a, b), a != b, is off
    # by one, at P itself or only at P'
    rs = build_root_system("A3")
    degree = (0, 1)
    cd = comparison_data(rs, P2, degree)
    assert cd.j_prime != P2
    assert all(r.passed for r in check_comparison_consistency(rs, P2, degree))
    at_p, at_pprime = _context(rs, P2), _context(rs, cd.j_prime)
    target = flag_dimension(rs, P2) + comparison_data(rs, P2, degree).c1
    a, b, c = next(
        (a, b, c)
        for a, b, c in iproduct(at_p.basis, repeat=3)
        if a != b and a.length + b.length + c.length == target
    )
    if ring == "P":
        key = (at_p.dual[at_p.position[c.perm]], degree)
        _raise_one_coefficient(monkeypatch, P2, (a, b), key)
    else:
        key = (at_pprime.dual[at_pprime.position[c.perm]], cd.d_pprime)
        _raise_one_coefficient(monkeypatch, cd.j_prime, (a, b), key)
    results = check_comparison_consistency(rs, P2, degree)
    assert {r.name: r.passed for r in results} == {
        "permutation-symmetry": ring == "P'",
        "derived-parabolic-factorization": False,
    }


def _reported_counts(results):
    """(graded, asymmetric, mismatched) as the audit's details print them."""
    detail = {r.name: r.detail for r in results}
    graded, asymmetric = re.fullmatch(
        r"(\d+) graded triples, (\d+) asymmetric", detail["permutation-symmetry"]
    ).groups()
    mismatched = re.search(r"(\d+) mismatched", detail["derived-parabolic-factorization"])
    return int(graded), int(asymmetric), int(mismatched.group(1))


def _ordered_triple_counts(rs, parabolic, degree):
    """(graded, asymmetric, mismatched) by brute force: every ordered triple
    (x, y, z) read off the rows of (x, y) in that order, at P and at P'."""
    ctx = _context(rs, parabolic)
    cd = ctx.degree(degree)
    at_pprime = _context(rs, cd.j_prime)
    target = ctx.flag_dimension + cd.c1
    lengths = [w.length for w in ctx.basis]
    to_pprime = [at_pprime.position[w.perm] for w in ctx.basis]
    n = len(lengths)
    values = {}

    def unpacked(ring, terms):
        return {(key % ring.size, ring.degree(key // ring.size)): c for key, c in terms}

    for x, y in iproduct(range(n), repeat=2):
        at_p = unpacked(ctx.ring, ctx.rows(x, y))
        at_pp = unpacked(at_pprime.ring, at_pprime.rows(to_pprime[x], to_pprime[y]))
        for z in range(n):
            if lengths[x] + lengths[y] + lengths[z] == target:
                values[x, y, z] = (
                    at_p.get((ctx.dual[z], degree), 0),
                    at_pp.get((at_pprime.dual[to_pprime[z]], cd.d_pprime), 0),
                )
    asymmetric = sum(len({values[p][0] for p in permutations(t)}) > 1 for t in values)
    mismatched = sum(at_p != at_pp for at_p, at_pp in values.values())
    return len(values), asymmetric, mismatched


@pytest.mark.parametrize("ring", ["P", "P'"])
@pytest.mark.parametrize("shape", ["square", "repeated third"])
def test_consistency_report_counts_the_orderings_of_a_repeated_class(monkeypatch, ring, shape):
    # the audit visits each unordered triple once and counts its orderings:
    # one bad coefficient in the square {a, a} on the dual of c (the triple
    # {a, a, c}: 3 orderings, 1 of them reads it), or in the pair {a, b} on
    # the dual of b (the triple {a, b, b}: 3 orderings, 2 read it), at P or
    # only at P'; the counts equal a brute-force count over ordered triples
    rs = build_root_system("A3")
    degree = (0, 1)
    at_p = _context(rs, P2)
    cd = at_p.degree(degree)
    at_pprime = _context(rs, cd.j_prime)
    assert all(r.passed for r in check_comparison_consistency(rs, P2, degree))
    target = at_p.flag_dimension + cd.c1
    if shape == "square":
        a, b, c = next(
            (a, a, c) for a, c in iproduct(at_p.basis, repeat=2)
            if a != c and 2 * a.length + c.length == target
        )
    else:
        a, b, c = next(
            (a, b, b) for a, b in iproduct(at_p.basis, repeat=2)
            if a != b and a.length + 2 * b.length == target
        )
    if ring == "P":
        key = (at_p.dual[at_p.position[c.perm]], degree)
        _raise_one_coefficient(monkeypatch, P2, (a, b), key)
    else:
        key = (at_pprime.dual[at_pprime.position[c.perm]], cd.d_pprime)
        _raise_one_coefficient(monkeypatch, cd.j_prime, (a, b), key)
    counts = _reported_counts(check_comparison_consistency(rs, P2, degree))
    assert counts == _ordered_triple_counts(rs, P2, degree)
    reading = 1 if shape == "square" else 2
    assert counts[1:] == (3 if ring == "P" else 0, reading)


@pytest.mark.parametrize("name,j_nodes", [("A3", [2]), ("B2", [1]), ("G2", [1])])
def test_classical_oracle_runs_once_per_unordered_triple(monkeypatch, name, j_nodes):
    # the oracle is symmetric in its classes: at degree 0 the audit calls it
    # once for each distinct multiset of three graded classes
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    position = {w: k for k, w in enumerate(basis)}
    calls = Counter()
    oracle = compare.classical_parabolic_invariant

    def counted(rs, parabolic, classes):
        calls[tuple(sorted(position[w] for w in classes))] += 1
        return oracle(rs, parabolic, classes)

    monkeypatch.setattr(compare, "classical_parabolic_invariant", counted)
    zero = (0,) * len(J.free_nodes(rs.rank))
    assert all(r.passed for r in check_comparison_consistency(rs, J, zero))
    dim = flag_dimension(rs, J)
    graded = {
        tuple(sorted(position[w] for w in trip))
        for trip in iproduct(basis, repeat=3)
        if sum(w.length for w in trip) == dim
    }
    assert graded
    assert set(calls) == graded
    assert set(calls.values()) == {1}


def test_comparison_suite_reads_each_unordered_product_once(monkeypatch, capsys):
    # the suite reads the rows of an unordered pair once, as (i, j) with
    # i <= j, for all the degrees of its box, in P and in each derived
    # parabolic P' alike
    calls = Counter()
    true_rows = _Context.rows

    def rows(self, i, j):
        calls[self.parabolic, i, j] += 1
        return true_rows(self, i, j)

    monkeypatch.setattr(_Context, "rows", rows)
    argv = ["check", "--suite", "comparison", "--type", "A3", "--parabolic", "2",
            "--max-degree", "3"]
    assert main(argv) == 0
    assert "suite comparison: PASS" in capsys.readouterr().out
    assert {parabolic for parabolic, _, _ in calls} > {P2}
    assert all(i <= j for _, i, j in calls)
    assert set(calls.values()) == {1}


def test_a_pair_is_read_once_in_either_order(monkeypatch):
    # the audit's reads are keyed by the sorted pair, so (j, i) after (i, j)
    # reads nothing more and returns the same dict
    calls = Counter()
    true_rows = _Context.rows

    def rows(self, i, j):
        calls[i, j] += 1
        return true_rows(self, i, j)

    monkeypatch.setattr(_Context, "rows", rows)
    ctx, reads = _context(build_root_system("A3"), P2), {}
    assert compare._read_pair(ctx, 5, 2, reads) is compare._read_pair(ctx, 2, 5, reads)
    assert calls == {(2, 5): 1}
    assert list(reads) == [(ctx, 2, 5)]


# the comparison suites of the gw-audit benchmark: type, J, max degree
GW_AUDIT_SUITES = [("A3", (2,), 3), ("B3", (1,), 1), ("A4", (2, 3, 4), 2)]


@pytest.mark.parametrize("name,j_nodes,max_degree", GW_AUDIT_SUITES)
def test_both_orders_of_a_pair_read_one_product(name, j_nodes, max_degree):
    # the premise of reading each unordered pair once, on P and on every
    # derived parabolic P' its suite reaches: both orders read the one
    # table of the later factor (were they to read two tables, the identity
    # fails first), so their rows are equal
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    rings = {J} | {
        comparison_data(rs, J, degree).j_prime
        for degree in iproduct(range(max_degree + 1), repeat=len(J.free_nodes(rs.rank)))
    }
    assert len(rings) > 1
    for parabolic in rings:
        ctx = _context(rs, parabolic)
        eng, borel = ctx.engine, ctx.borel_index
        for i, j in combinations(range(len(ctx.basis)), 2):
            assert _int_product(eng, borel[i], borel[j]) is _int_product(eng, borel[j], borel[i])
            assert ctx.rows(i, j) == ctx.rows(j, i)


def test_classical_check_counts_every_ordering(monkeypatch, capsys):
    # an oracle off by one on one unordered triple of three distinct classes
    # on Gr(2, 4) fails the degree-zero check on each of its six orderings
    rs = build_root_system("A3")
    J = ParabolicSubset.of([1, 3])
    basis = enumerate_min_reps(rs, J)
    dim = flag_dimension(rs, J)
    bad = next(
        set(trip) for trip in combinations(basis, 3) if sum(w.length for w in trip) == dim
    )
    oracle = compare.classical_parabolic_invariant

    def off_by_one(rs, parabolic, classes):
        return oracle(rs, parabolic, classes) + (set(classes) == bad)

    monkeypatch.setattr(compare, "classical_parabolic_invariant", off_by_one)
    argv = ["check", "--suite", "comparison", "--type", "A3", "--parabolic", "1,3",
            "--max-degree", "0", "--json"]
    assert main(argv) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["d=[0]: permutation-symmetry"]["passed"]
    assert checks["d=[0]: derived-parabolic-factorization"]["passed"]
    assert not checks["d=[0]: classical-degree-zero"]["passed"]
    assert checks["d=[0]: classical-degree-zero"]["detail"].endswith(", 6 mismatched")


@pytest.mark.parametrize("name,j_nodes", [("A3", [2]), ("B3", [1]), ("G2", [1]), ("B2", [])])
def test_comparison_data_carries_c1_and_shift(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    w_J = longest_element(rs, J)
    for degree in iproduct(range(3), repeat=len(J.free_nodes(rs.rank))):
        cd = comparison_data(rs, J, degree)
        assert cd.c1 == _c1_pairing(rs, J, cd.d_B)
        assert cd.shift == cd.w_prime * w_J


@pytest.mark.parametrize(
    "name,j_nodes",
    [("A2", []), ("A2", [2]), ("A3", [2]), ("A3", [1, 3]), ("B2", []), ("B2", [1]),
     ("B3", []), ("C3", [1]), ("C3", [2]), ("D4", []), ("G2", [1])],
)
def test_c1_is_linear_in_the_degree(name, j_nodes):
    # the spaces of the golden tests; the cache check and the coset engine
    # grade a term by c_1(d) = sum of d_t c_1(e_t)
    ctx = _Context(build_root_system(name), ParabolicSubset.of(j_nodes))
    free = len(ctx.free)
    for degree in iproduct(range(4), repeat=free):
        if sum(degree) <= 3:
            assert ctx.degree(degree).c1 == sum(map(mul, degree, ctx.c1_weights))


def test_min_rep_preserved_through_dual_map():
    # the dual of a coset basis element is again a coset basis element
    rs = build_root_system("B2")
    for J in (ParabolicSubset.of([1]), ParabolicSubset.of([2])):
        basis = enumerate_min_reps(rs, J)
        w_o = longest_element(rs, ParabolicSubset.full(2))
        duals = {min_coset_rep(w_o * w, J) for w in basis}
        assert duals == set(basis)


def test_comparison_data_word_formatting():
    rs = build_root_system("A2")
    cd = comparison_data(rs, P2, (1,))
    assert format_word(cd.w_prime.word) == "e"


@pytest.mark.parametrize("name,j_nodes", [("A3", [2]), ("B2", [1]), ("G2", [1])])
def test_product_readout_matches_invariants(name, j_nodes):
    # the product is read off one Borel product; its coefficient at
    # q^d sigma[dual(w)] must equal the invariant <u, v, w>_d
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    dim = flag_dimension(rs, J)
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    r = len(J.free_nodes(rs.rank))
    # three classes have total length <= 3 dim = dim + c_1(d)
    degrees = [
        d
        for d in iproduct(range(2 * dim + 1), repeat=r)
        if comparison_data(rs, J, d).c1 <= 2 * dim
    ]
    for u in basis:
        for v in basis:
            expected = {}
            for w in basis:
                for d in degrees:
                    c = parabolic_gw_invariant(rs, J, [u, v, w], d)
                    if c:
                        expected[(min_coset_rep(w_o * w, J), d)] = c
            assert parabolic_quantum_product(rs, J, u, v).terms == expected


@pytest.mark.parametrize(
    "name,j_nodes", [("A2", [2]), ("B2", [1]), ("B2", [2]), ("G2", [1]), ("A3", [1, 3])]
)
def test_four_class_invariant_is_iterated_product_coefficient(name, j_nodes):
    # with four classes the invariant is the coefficient of q^d on the dual
    # of the last class in the G/P product of the other three
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    degrees = list(iproduct(range(2), repeat=len(J.free_nodes(rs.rank))))
    nonzero = 0
    for a, b, c in iproduct(basis, repeat=3):
        prod = star(
            star(QClass.unit(rs, J, a), QClass.unit(rs, J, b)), QClass.unit(rs, J, c)
        )
        for e in basis:
            dual = min_coset_rep(w_o * e, J)
            for d in degrees:
                value = parabolic_gw_invariant(rs, J, [a, b, c, e], d)
                assert value == prod.coefficient(dual, d)
                nonzero += value != 0
    assert nonzero


@pytest.mark.parametrize(
    "name,j_nodes",
    [
        ("A3", [2]),
        ("A3", [1, 3]),
        ("B3", [1]),
        ("C3", [3]),
        ("G2", [1]),
        ("A4", [1, 4]),
        ("D4", [1, 3, 4]),
    ],
)
def test_product_matches_forward_readout(name, j_nodes):
    # Peterson's formula run forwards, from public API only: the coefficient
    # of q^d sigma[dual(w)] is the Borel coefficient at (w_o w w'_d, lambda_d)
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    top = 2 * flag_dimension(rs, J)
    r = len(J.free_nodes(rs.rank))
    # l(u) + l(v) <= 2 dim bounds c_1(d) of every term, and a unit degree
    # pairs to at least 1 with c_1, so this box holds every degree
    readout = {}
    for d in iproduct(range(top + 1), repeat=r):
        if comparison_data(rs, J, d).c1 <= top:
            cd = comparison_data(rs, J, d)
            for w in basis:
                key = (w_o * w * cd.w_prime, cd.d_B)
                readout[(min_coset_rep(w_o * w, J), d)] = key
    for u in basis:
        for v in basis:
            borel = quantum_product(rs, u, v)
            expected = {}
            for term, key in readout.items():
                c = borel.coefficient(*key)
                if c:
                    expected[term] = c
            assert parabolic_quantum_product(rs, J, u, v).terms == expected


def test_product_refuses_a_term_off_the_grading():
    # a private root system has contexts of its own; raise the anticanonical
    # pairing memoized for degree 0 by one, and Peterson's readout breaks
    # l(y) + c_1(d) = l(u) + l(v): in the direct readout of h * h =
    # sigma[s1s2] + sigma[s3s2] on Gr(2, 4), and on Fl(2, 3; 5) = A4/{1,4}
    # in the moves of the length-2 generator, which the readout gives and
    # the table of a length-2 representative reads (the divisors' moves
    # are the quantum Chevalley rule, which reads no lift)
    rs = RootSystem(CartanType.parse("A3"))
    gr24 = ParabolicSubset.of([1, 3])
    ctx = _context(rs, gr24)
    h = ctx.position[simple_reflection(rs, 2).perm]
    cd = ctx.degree((0,))
    ctx._degrees[(0,)] = cd._replace(c1=cd.c1 + 1)
    with pytest.raises(RuntimeError, match="breaks the grading"):
        ctx.rows(h, h)
    rs = RootSystem(CartanType.parse("A4"))
    fl = ParabolicSubset.of([1, 4])
    ctx = _context(rs, fl)
    u = next(
        w for x, w in enumerate(ctx.basis) if w.length == 2 and ctx.representative(x)[1] is None
    )
    cd = ctx.degree((0, 0))
    ctx._degrees[(0, 0)] = cd._replace(c1=cd.c1 + 1)
    with pytest.raises(RuntimeError, match="breaks the grading"):
        parabolic_quantum_product(rs, fl, u, u)


def test_comparison_data_and_check_result_are_named_tuples():
    rs = build_root_system("A2")
    cd = comparison_data(rs, ParabolicSubset.of([2]), (1,))
    assert cd._fields == ("d_B", "j_prime", "w_prime", "d_pprime", "c1", "shift")
    assert (cd.d_B, cd.j_prime, cd.c1) == ((1, 0), ParabolicSubset(), 3)
    assert repr(cd).startswith("ComparisonData(d_B=(1, 0), j_prime=ParabolicSubset(indices=()), ")
    assert cd._replace(c1=4) == (*cd[:4], 4, cd.shift) and cd.c1 == 3
    assert hash(cd) == hash(tuple(cd))
    result = CheckResult("symmetry", True, "3 triples")
    assert repr(result) == "CheckResult(name='symmetry', passed=True, detail='3 triples')"
    assert result._asdict() == {"name": "symmetry", "passed": True, "detail": "3 triples"}
    assert list(result._asdict()) == ["name", "passed", "detail"]
    assert result == ("symmetry", True, "3 triples")
    assert result._replace(name="d=[1]: symmetry").name == "d=[1]: symmetry"
    for record in (cd, result):
        with pytest.raises(AttributeError):
            record.c1 = 0
        assert not hasattr(record, "__dict__")


# (type, parabolic nodes): G/B, Grassmannians, two-step and partial flags
# and spaces whose levels pick longer generators, on every type
CHEVALLEY_SPACES = [
    ("A2", ()), ("A3", (2,)), ("A3", (1, 3)), ("A4", (2, 3)), ("A4", (1, 4)),
    ("A4", (2, 3, 4)), ("B3", ()), ("B3", (1,)), ("B3", (2,)), ("B3", (1, 2)),
    ("C3", (3,)), ("C3", (1, 2)), ("G2", (1,)), ("G2", (2,)), ("D4", (1,)),
    ("D4", (2,)), ("D4", (1, 3, 4)), ("F4", (1, 2, 3)), ("F4", (2, 3, 4)),
    ("A5", (3,)), ("A5", (1, 2, 4, 5)), ("B4", (1, 2, 3)), ("C4", (2,)),
    ("D5", (3,)), ("E6", (2, 3, 4, 5, 6)),
]


@pytest.mark.parametrize("name, j_nodes", CHEVALLEY_SPACES)
def test_the_quantum_chevalley_rule_is_the_readout_of_the_divisors(name, j_nodes):
    # Fulton-Woodward's rule on W^J, as `_Engine._grow` runs it, against
    # Peterson's readout of the Borel product, on every divisor product: the
    # moves of sigma_{s_i} * sigma_x as terms, each key once, and the quantum
    # moves as the terms off degree 0.  At J = {} the readout reads the Borel
    # ring's level 1, which is the rule itself, so A2 and B3 check only the
    # bookkeeping of a fresh engine; on G/P the two routes are independent,
    # and on G/B the rule meets its reference in the next test
    ctx =_context(build_root_system(name), ParabolicSubset.of(j_nodes))
    eng = _Engine(ctx.rs, ctx.parabolic, ctx._enumeration, ctx.c1_weights)
    divisors = tuple(eng.by_length[1])
    assert [ctx.basis[g].word for g in divisors] == [(i,) for i in ctx.free]
    _, _, moves, qmoves = group = (1, divisors, [], [])
    eng._grow(group, eng.size)
    for x in range(eng.size):
        for t, g in enumerate(divisors):
            terms = sorted((x + delta, a) for delta, a in moves[x][t])
            assert terms == ctx.rows(g, x)
            quantum = sorted((shift + y, coefs[t]) for coefs, shift, y in qmoves[x] if coefs[t])
            assert quantum == [(key, a) for key, a in terms if key >= eng.size]


def _reflection_perm(rs, g):
    """The permutation of the root list by s_alpha, alpha the positive root
    of index g: r -> r - <r, alpha^vee> alpha."""
    alpha, coroot = rs.positive_roots[g], rs.positive_coroots[g]
    return tuple(
        rs._index[tuple(a - rs.pairing(r, coroot) * b for a, b in zip(r, alpha))]
        for r in sorted(rs._index, key=rs._index.get)
    )


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "D4"])
def test_the_quantum_chevalley_rule_on_g_mod_b_meets_weyl_group_products(name):
    # the rule on G/B from products of Weyl group elements, with no engine:
    # sigma_{s_i} * sigma_x = sum over positive roots alpha of alpha^vee_i
    # times sigma_{x s_alpha} when l(x s_alpha) = l(x) + 1, and times
    # q^{alpha^vee} sigma_{x s_alpha} when l(x s_alpha) = l(x) + 1 - 2
    # ht(alpha^vee), 2 ht(alpha^vee) being c_1 of the degree alpha^vee
    rs = build_root_system(name)
    reflections = [WeylElement(rs, _reflection_perm(rs, g)) for g in range(rs.npos)]
    assert [reflections[g].perm for g in rs._simple_global] == list(rs.simple_perms)
    eng = _Engine(rs, BOREL, _enumerate(rs, BOREL), (2,) * rs.rank)
    size = eng.size
    position = {w.perm: k for k, w in enumerate(eng.elements)}
    _, _, moves, qmoves = group = (1, tuple(eng.by_length[1]), [], [])
    eng._grow(group, size)
    for x, w in enumerate(eng.elements):
        terms = [[] for _ in range(rs.rank)]
        quantum = []
        for s_alpha, coroot in zip(reflections, rs.positive_coroots):
            y = w * s_alpha
            if y.length == w.length + 1:
                key = position[y.perm]
            elif y.length == w.length + 1 - 2 * sum(coroot):
                key = eng.pack(coroot) * size + position[y.perm]
                quantum.append((coroot, position[y.perm]))
            else:
                continue
            for t, a in enumerate(coroot):
                if a:
                    terms[t].append((key, a))
        assert [sorted((x + delta, a) for delta, a in got) for got in moves[x]] == [
            sorted(want) for want in terms
        ]
        assert sorted((d, y) for d, _, y in qmoves[x]) == sorted(quantum)


@pytest.mark.parametrize(
    "name, j_nodes, lengths",
    [("D4", (1,), {1}), ("A4", (2, 3, 4), {1}), ("A4", (1, 4), {1, 2})],
)
def test_only_a_longer_generator_builds_the_borel_ring(name, j_nodes, lengths):
    # every product that `table`, `mul`, `gw` and `star` serve, on a private
    # root system, and the plain table of every pair, since P^4 is one
    # Seidel orbit and its served products solve no level: the divisors'
    # moves come from W^J alone, so D4/{1} and P^4 never build the Borel
    # ring, while Fl(2, 3; 5) = A4/{1,4} builds it for the readout of its
    # length-2 generator
    ctx = _context(RootSystem(CartanType.parse(name)), ParabolicSubset.of(j_nodes))
    n = len(ctx.basis)
    for i in range(n):
        for j in range(n):
            ctx.int_terms(i, j)
            _int_product(ctx.ring, i, j)
    ring = ctx.ring
    assert {ring.lengths[g] for g in ring.generators} == lengths
    assert ("engine" in vars(ctx)) == (max(lengths) > 1)


@pytest.mark.parametrize(
    "name,j_nodes",
    [
        ("A3", []),
        ("B3", []),
        ("C3", []),
        ("G2", []),
        ("A3", [2]),
        ("A4", [1, 2, 4]),
        ("B3", [1]),
        ("B3", [2]),
        ("C3", [3]),
        ("G2", [1]),
    ],
)
def test_every_product_has_a_unique_minimal_q_degree(name, j_nodes):
    # Postnikov: the q-degrees of sigma_u * sigma_v have a single minimum in
    # the componentwise order
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    basis = enumerate_min_reps(rs, J)
    for u in basis:
        for v in basis:
            degrees = {d for _, d in parabolic_quantum_product(rs, J, u, v).terms}
            minimal = [
                d
                for d in degrees
                if not any(e != d and all(map(int.__le__, e, d)) for e in degrees)
            ]
            assert len(minimal) == 1, (u, v, sorted(degrees))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_borel_readout_is_the_engine_product(name):
    # the Borel ring is the J = {} case of the readout: lambda_d = d and
    # w'_d = w_J = e, so every term of the engine's product is kept as it is
    rs = build_root_system(name)
    basis = enumerate_min_reps(rs, BOREL)
    for u in basis:
        for v in basis:
            assert parabolic_quantum_product(rs, BOREL, u, v) == quantum_product(rs, u, v)


@pytest.mark.parametrize(
    "name,j_nodes,lengths",
    [
        # G/B: level 1 has no rows, so it picks the divisors, and no later
        # level adds a generator
        ("A3", [], [1, 1, 1]),
        ("G2", [], [1, 1]),
        ("F4", [], [1, 1, 1, 1]),
        ("A3", [2], [1, 1]),
        ("B3", [1], [1, 1]),
        ("C3", [3], [1, 1]),
        ("D4", [1], [1, 1, 1]),
        ("A4", [1, 3, 4], [1, 2]),  # Gr(2, 5)
        ("A4", [1, 4], [1, 1, 2]),  # Fl(2, 3; 5)
        ("A5", [1, 2, 4, 5], [1, 2, 3]),  # Gr(3, 6)
        ("D4", [1, 3, 4], [1, 2, 2]),
        ("F4", [1, 2, 3], [1, 4]),
        # W_J = A1 x A1 has two quadratic invariants and W's cancels one; a
        # rule that added every length-2 class until full rank, without
        # asking each to raise the rank, would add a redundant second one
        ("A5", [2, 4], [1, 1, 1, 2]),
    ],
)
def test_generator_lengths_follow_borels_presentation(name, j_nodes, lengths):
    # H*(G/P; Q) = Q[h]^{W_J} / (Q[h]^W_+) is generated by one linear class
    # per free node and classes in the degrees of W_J's basic invariants
    # that W's do not cancel; the unit rows the level factorization adds on
    # W^J find exactly these
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    ring = _context(rs, J).ring
    for k in sorted(ring.by_length)[1:]:
        _level(ring, k)
    assert [ring.lengths[g] for g in ring.generators] == lengths
    # the divisors come first, in the order of their nodes, which the
    # Chevalley moves of G/B assume
    free = J.free_nodes(rs.rank)
    assert [ring.elements[g].word for g in ring.generators[: len(free)]] == [(i,) for i in free]


@pytest.mark.parametrize(
    "name, j_nodes, lengths",
    # Fl(2, 3; 5), Gr(3, 6), and D4/{1,3,4}, whose two length-2 generators
    # share a group
    [("A4", (1, 4), [2]), ("A5", (1, 2, 4, 5), [2, 3]), ("D4", (1, 3, 4), [2])],
)
def test_a_g_mod_p_ring_reads_its_longer_generators_off_the_readout(name, j_nodes, lengths):
    # the ring of G/P is the one level solver, given the direct readout:
    # per longer generator g and grown position x, its moves are the terms
    # of sigma_g * sigma_x relative to x, and each quantum term c q^d
    # sigma_y is a quantum move with coefficient c for g alone
    ctx = _context(build_root_system(name), ParabolicSubset.of(j_nodes))
    ring, size = ctx.ring, ctx.ring.size
    assert type(ring) is _Engine
    for k in sorted(ring.by_length)[1:]:
        _level(ring, k)
    longer = [group for group in ring.groups if group[0] > 1]
    assert [length for length, _, _, _ in longer] == lengths
    for _, gens, moves, qmoves in longer:
        assert len(moves) == len(qmoves) == bisect_right(ring.lengths, ring.reach)
        for x in range(len(moves)):
            rows = [ctx.rows(g, x) for g in gens]
            assert moves[x] == tuple(tuple((key - x, c) for key, c in terms) for terms in rows)
            assert all(sum(map(bool, coefs)) == 1 for coefs, _, _ in qmoves[x])
            assert sorted(
                (t, shift + y, a) for coefs, shift, y in qmoves[x] for t, a in enumerate(coefs) if a
            ) == [(t, key, c) for t, terms in enumerate(rows) for key, c in terms if key >= size]
    assert any(any(qmoves) for _, _, _, qmoves in longer)


def test_a_g_mod_p_level_without_a_readout_is_refused():
    # the case J != {} of `test_a_borel_level_that_loses_rank_is_refused`:
    # Fl(2, 3; 5)'s level 2 needs a generator of its own, and with no
    # readout to give its moves the engine refuses it
    ctx = _context(build_root_system("A4"), ParabolicSubset.of((1, 4)))
    eng = _Engine(ctx.rs, ctx.parabolic, ctx._enumeration, ctx.c1_weights)
    with pytest.raises(RuntimeError, match="recursion system is rank deficient"):
        _level(eng, 2)
    assert 2 not in eng.levels
    assert [length for length, _, _, _ in eng.groups] == [1]


@pytest.mark.parametrize(
    "name, j_nodes",
    [("A3", ()), ("B3", ()), ("D4", ()), ("A4", (2, 3)), ("B3", (1,)), ("D4", (1,)),
     ("E6", (2, 3, 4, 5, 6))],
)
def test_index_maps_match_the_coset_formulas(name, j_nodes):
    # the maps composed from the enumeration's left maps, against Weyl
    # group products reduced to W^J: floor(s_i x), the dual floor(w_o x),
    # and the orbit representative, least of x and every floor(V_k^-1 x)
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    ctx = _context(rs, J)
    basis, position = ctx.basis, ctx.position
    assert basis == enumerate_min_reps(rs, J)
    if not j_nodes:
        assert position is ctx.engine.index and ctx.left is ctx.engine.left

    def floor(w):
        return position[min_coset_rep(w, J).perm]

    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    inverses = {k: from_word(rs, v_k.word[::-1]) for k, v_k in ctx.seidel.items()}
    for x, w in enumerate(basis):
        for i in range(1, rs.rank + 1):
            assert ctx.left[i - 1][x] == floor(simple_reflection(rs, i) * w)
        assert ctx.dual[x] == floor(w_o * w)
        candidates = [(x, None)] + [(floor(v * w), k) for k, v in inverses.items()]
        # the first least by (length, position): x itself, then by node
        least = min(candidates, key=lambda c: (basis[c[0]].length, c[0]))
        assert ctx.representative(x) == least
