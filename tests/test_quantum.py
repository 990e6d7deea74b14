import random
from bisect import bisect_right
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qflag import (
    BOREL,
    ParabolicSubset,
    QClass,
    build_root_system,
    classical_product,
    enumerate_min_reps,
    format_qclass,
    format_word,
    from_word,
    gw_invariant,
    identity,
    longest_element,
    parabolic_quantum_product,
    quantum_product,
    simple_reflection,
    star,
)
from qflag import quantum
from qflag.cli import main
from qflag.compare import _context
from qflag.quantum import _Memo, _engine, _left_inverse, _oriented_product, _unread_rows
from qflag.root_system import CartanType, RootSystem


def _unit(rs, w, degree=None):
    return QClass.unit(rs, BOREL, w, degree)


def _classical_part(qc):
    return QClass(qc.rs, qc.parabolic, {(w, d): c for (w, d), c in qc.terms.items() if not any(d)})


def test_projective_line_relation():
    # independent oracle: QH(P^1) = Z[h,q]/(h^2 - q)
    rs = build_root_system("A1")
    s1 = simple_reflection(rs, 1)
    assert quantum_product(rs, s1, s1) == _unit(rs, identity(rs), (1,))


def test_a2_divisor_products_hand_checked():
    rs = build_root_system("A2")
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
    s2s1 = from_word(rs, (2, 1))
    s1s2 = from_word(rs, (1, 2))
    # evaluated by hand from the divisor rule
    assert quantum_product(rs, s1, s1) == QClass(
        rs, BOREL, {(s2s1, (0, 0)): 1, (identity(rs), (1, 0)): 1}
    )
    assert quantum_product(rs, s1, s2) == QClass(
        rs, BOREL, {(s1s2, (0, 0)): 1, (s2s1, (0, 0)): 1}
    )
    # diagram symmetry 1 <-> 2
    assert quantum_product(rs, s2, s2) == QClass(
        rs, BOREL, {(s1s2, (0, 0)): 1, (identity(rs), (0, 1)): 1}
    )
    assert quantum_product(rs, s1, s2s1) == QClass(rs, BOREL, {(s2, (1, 0)): 1})


def test_identity_class_is_neutral():
    rs = build_root_system("B2")
    e = identity(rs)
    for w in enumerate_min_reps(rs, BOREL):
        assert quantum_product(rs, e, w) == _unit(rs, w)
        assert quantum_product(rs, w, e) == _unit(rs, w)


def test_chevalley_classical_flag_drops_q_terms():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    # sigma_{s_1} * sigma_{s_1}: level 1 of the engine reads the Chevalley moves
    full = quantum_product(rs, s1, s1)
    assert _classical_part(full) == classical_product(rs, s1, s1)
    assert full != _classical_part(full)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_grading_integrality_and_positivity(name):
    rs = build_root_system(name)
    elements = enumerate_min_reps(rs, BOREL)
    for u in elements:
        for v in elements:
            qc = quantum_product(rs, u, v)
            for (w, d), c in qc.terms.items():
                assert isinstance(c, int) and c > 0
                assert u.length + v.length == w.length + 2 * sum(d)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_classical_limit_matches_classical_engine(name):
    rs = build_root_system(name)
    elements = enumerate_min_reps(rs, BOREL)
    for u in elements:
        for v in elements:
            assert _classical_part(quantum_product(rs, u, v)) == classical_product(rs, u, v)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_classical_top_pairing_is_poincare_duality(name):
    rs = build_root_system(name)
    elements = enumerate_min_reps(rs, BOREL)
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    zero = (0,) * rs.rank
    for u in elements:
        for v in elements:
            coeff = classical_product(rs, u, v).coefficient(w_o, zero)
            assert coeff == (1 if v == w_o * u else 0)


def test_associativity_and_commutativity_exhaustive_a2():
    rs = build_root_system("A2")
    eng = _engine(rs)
    elements = enumerate_min_reps(rs, BOREL)
    for a in elements:
        for b in elements:
            # both orders of quantum_product read one table: compare the two recursions
            x, y = eng.index[a.perm], eng.index[b.perm]
            assert _oriented_product(eng, x, y) == _oriented_product(eng, y, x)
            for c in elements:
                left = star(quantum_product(rs, a, b), _unit(rs, c))
                right = star(_unit(rs, a), quantum_product(rs, b, c))
                assert left == right


def test_associativity_sampled_a3():
    rs = build_root_system("A3")
    elements = enumerate_min_reps(rs, BOREL)
    rng = random.Random(17)
    for _ in range(30):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        left = star(quantum_product(rs, a, b), _unit(rs, c))
        right = star(_unit(rs, a), quantum_product(rs, b, c))
        assert left == right


def test_gw_invariant_line_through_line_and_two_points():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    pt = from_word(rs, (2, 1))
    assert gw_invariant(rs, [s1, pt, pt], (1, 0)) == 1


def test_gw_invariant_duality_normalization():
    # <sigma_u, sigma_{w_o u}, sigma_e>_0 = 1: the fundamental-class slot pins
    # the Poincare pairing.  (With the point class in the last slot the count
    # is zero for u != e; the grading already rules it out.)
    for name in ["A2", "B2"]:
        rs = build_root_system(name)
        w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
        zero = (0,) * rs.rank
        for u in enumerate_min_reps(rs, BOREL):
            assert gw_invariant(rs, [u, w_o * u, identity(rs)], zero) == 1
            if u.length:
                assert gw_invariant(rs, [u, w_o * u, w_o], zero) == 0


def test_gw_invariant_vanishing_rules():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    pt = from_word(rs, (2, 1))
    assert gw_invariant(rs, [s1, pt, pt], (-1, 0)) == 0
    assert gw_invariant(rs, [pt, pt, pt], (1, 0)) == 0  # grading: 6 != 3 + 2
    with pytest.raises(ValueError):
        gw_invariant(rs, [s1, pt], (1, 0))
    with pytest.raises(ValueError):
        gw_invariant(rs, [s1, pt, pt], (1,))


def test_gw_invariant_symmetric_under_permutations():
    from itertools import permutations

    rs = build_root_system("B2")
    elements = enumerate_min_reps(rs, BOREL)
    rng = random.Random(23)
    for _ in range(12):
        trip = tuple(elements[rng.randrange(len(elements))] for _ in range(3))
        for degree in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            vals = {gw_invariant(rs, list(p), degree) for p in permutations(trip)}
            assert len(vals) == 1


def test_four_point_invariant_matches_iterated_product():
    # the engine defines n-point invariants through iterated products; check
    # the 4-point value against a manual two-step expansion
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    s2s1 = from_word(rs, (2, 1))
    w_o = longest_element(rs, ParabolicSubset.full(2))
    triple = star(quantum_product(rs, s1, s1), _unit(rs, s1))
    degree = (1, 0)
    expected = triple.coefficient(w_o * s2s1, degree)
    assert gw_invariant(rs, [s1, s1, s1, s2s1], degree) == expected
    assert expected == 1


def test_qclass_formatting():
    rs = build_root_system("A2")
    s1 = simple_reflection(rs, 1)
    s2s1 = from_word(rs, (2, 1))
    assert format_qclass(quantum_product(rs, s1, s1)) == "sigma[s2s1] + q1"
    assert format_qclass(quantum_product(rs, s1, s2s1)) == "q1 * sigma[s2]"
    assert format_qclass(QClass(rs, BOREL, {})) == "0"
    assert format_qclass(_unit(rs, identity(rs))) == "sigma[e]"


def _level_systems(eng):
    return {k: eng.levels[k][:2] for k in sorted(eng.by_length) if k >= 1}


# the largest denominator of each type's level inverses; the denominators
# depend on the pivot rows the factorization picks, not on the ring
_LARGEST_DENOMINATOR = {
    "A3": 1, "B2": 2, "G2": 3, "B3": 2, "C3": 2, "D4": 2, "B4": 4, "F4": 32,
}


@pytest.mark.parametrize("name", list(_LARGEST_DENOMINATOR))
def test_level_inverse_is_exact(name):
    eng = _engine(build_root_system(name))
    dens = []
    for k, (rows, inverse) in _level_systems(eng).items():
        ncols = len(eng.by_length[k])
        assert len(inverse) == ncols
        for j, (den, comb) in enumerate(inverse):
            assert isinstance(den, int) and den >= 1
            assert gcd(den, *(a for _, a in comb)) == 1
            product = [0] * ncols
            for r, a in comb:
                assert isinstance(a, int)
                for col, entry in rows[r]:
                    product[col] += a * entry
            assert product == [den if col == j else 0 for col in range(ncols)]
            dens.append(den)
    assert max(dens) == _LARGEST_DENOMINATOR[name]


# the (row, coefficient) pairs of all level inverses of a type; pivoting on
# the first row that holds a column gives 297, 1,051, 1,787, 1,787 and 14,681
_INVERSE_PAIRS = {"A4": 147, "D4": 318, "B4": 673, "C4": 673, "F4": 4060}


@pytest.mark.parametrize("name", list(_INVERSE_PAIRS))
def test_level_inverse_is_sparse(name):
    eng = _engine(build_root_system(name))
    pairs = sum(
        len(comb) for _, inverse in _level_systems(eng).values() for _, comb in inverse
    )
    assert pairs <= _INVERSE_PAIRS[name]


def test_left_inverse_pivots_on_the_sparsest_row():
    # x0 + x1 = b0, x1 = b1, x0 = b2 has many left inverses; column 0 is held
    # by rows 0 and 2, and the sparser row 2 is the pivot, so x0 reads b2
    # alone (the first row would give x0 = b0 - b1)
    rows = [((0, 1), (1, 1)), ((1, 1),), ((0, 1),)]
    inverse, added = _left_inverse(rows, 2)
    assert added == []
    assert inverse[0] == (1, ((2, 1),))
    b = [5, 3, 2]  # x = (2, 3)
    assert [sum(a * b[r] for r, a in comb) // den for den, comb in inverse] == [2, 3]


def test_left_inverse_completes_a_rank_deficient_matrix_by_unit_rows():
    # every row is a multiple of (1, 2): column 0 leads the row space and
    # column 1 does not, so the unit row e_1 is appended as row 3
    rows = [((0, 1), (1, 2)), ((0, 2), (1, 4)), ((0, -3), (1, -6))]
    inverse, added = _left_inverse(rows, 2)
    assert added == [1]
    augmented = [*rows, ((1, 1),)]
    for j, (den, comb) in enumerate(inverse):
        product = [0, 0]
        for r, a in comb:
            for col, entry in augmented[r]:
                product[col] += a * entry
        assert product == [den if col == j else 0 for col in range(2)]
    b = [7, 14, -21, 3]  # x = (1, 3)
    assert [sum(a * b[r] for r, a in comb) // den for den, comb in inverse] == [1, 3]


def test_a_tampered_level_inverse_is_refused_at_factorization(monkeypatch):
    # one coefficient of the last column's combination off by one: the
    # inverse no longer gives den * e_col, and level 2 is refused when it is
    # factored, before any right factor reads it
    _, eng = _private_engine("B3")
    eng.levels[1]
    factor = quantum._left_inverse

    def tampered(rows, ncols):
        inverse, added = factor(rows, ncols)
        den, ((r, a), *rest) = inverse[-1]
        return (*inverse[:-1], (den, ((r, a + 1), *rest))), added

    monkeypatch.setattr(quantum, "_left_inverse", tampered)
    last = len(eng.by_length[2]) - 1
    with pytest.raises(RuntimeError, match=f"level 2 is not exact on column {last}$"):
        eng.levels[2]
    assert 2 not in eng.levels


def test_an_inverse_that_reads_more_rows_than_columns_is_refused():
    # x0 = b0 and x0 = b1: b0 + b1 over 2 gives x0 exactly when the rows
    # agree, but when they do not it satisfies neither, so the rows it reads
    # would need a residual too; one read row per column is what makes an
    # exact solution satisfy every row it reads
    rows = (((0, 1),), ((0, 1),))
    with pytest.raises(RuntimeError, match="reads 2 rows for 1 columns"):
        _unread_rows(1, rows, ((2, ((0, 1), (1, 1))),))
    assert _unread_rows(1, rows, ((1, ((1, 1),)),)) == (0,)


def test_a_borel_level_that_loses_rank_is_refused():
    # the divisors generate H*(G/B), so a level that needs a generator of
    # its own has lost rank: keep only the quantum moves of the length-1
    # classes before level 2 is factored, and its rows are all zero
    _, eng = _private_engine("A2")
    eng.levels[1]
    eng.extend_moves(1)
    moves_of = eng.groups[0][2]
    for x in eng.by_length[1]:
        moves_of[x] = tuple((t, delta, a) for t, delta, a in moves_of[x] if x + delta >= eng.size)
    with pytest.raises(RuntimeError, match="rank deficient"):
        eng.levels[2]
    assert len(eng.groups) == 1



def _private_engine(name):
    rs = RootSystem(CartanType.parse(name))
    return rs, _engine(rs)


def _corrupt_move(eng, x, t):
    """Add 1 to one classical coefficient of sigma_g * sigma_x, for the t-th
    generator g of length 1 (the divisor s_{t+1} on G/B), in the integer
    move table that the right-hand sides read; the level systems, already
    factored, keep the true coefficient."""
    moves_of = eng.groups[0][2]
    moves = list(moves_of[x])
    u = next(u for u, (s, delta, _) in enumerate(moves) if s == t and x + delta < eng.size)
    moves[u] = (t, moves[u][1], moves[u][2] + 1)
    moves_of[x] = tuple(moves)


def test_corrupted_chevalley_coefficient_breaks_consistency():
    rs, eng = _private_engine("A3")
    assert all(den == 1 for _, inv in _level_systems(eng).values() for den, _ in inv)
    # a class of length 2 that is its own orbit representative, so that the
    # product of it with itself is read off its own table
    ctx = _context(rs, BOREL)
    x = next(x for x in eng.by_length[2] if ctx.representatives[x] == (x, None))
    _corrupt_move(eng, x, 0)
    # level 1 of x's own table reads the corrupted move, and the identity
    # system passes it on; level 2 checks every one of its rows
    with pytest.raises(RuntimeError, match="inconsistent"):
        quantum_product(rs, eng.elements[x], eng.elements[x])


def test_corrupted_generator_move_breaks_consistency_on_g_mod_p():
    # Fl(2, 3; 5) = A4/{1,4}: generators of lengths 1, 1 and 2, whose moves
    # are read off the comparison formula
    rs = RootSystem(CartanType.parse("A4"))
    J = ParabolicSubset.of([1, 4])
    ring = _context(rs, J).ring
    assert all(den == 1 for _, inv in _level_systems(ring).values() for den, _ in inv)
    assert [ring.lengths[g] for g in ring.generators] == [1, 1, 2]
    x = ring.by_length[2][0]
    _corrupt_move(ring, x, 0)
    w = ring.elements[x]
    with pytest.raises(RuntimeError, match="inconsistent"):
        parabolic_quantum_product(rs, J, w, w)


def test_an_inconsistent_row_of_a_later_generator_group_is_named(monkeypatch):
    # on A4/{1,4}, rows 8 and 9 of level 3 are the block of the length-2
    # generator s4s3, after the 4 x 2 rows of the divisors; no column of the
    # level inverse reads them, so a term added to row 8 shows only in its
    # residual
    rs = RootSystem(CartanType.parse("A4"))
    J = ParabolicSubset.of([1, 4])
    ctx = _context(rs, J)
    ring = ctx.ring
    # the first class of length 3 that is its own orbit representative, so
    # that w * w solves level 3 of its own table
    w = next(ring.elements[x] for x in ring.by_length[3] if ctx.representatives[x][1] is None)
    parabolic_quantum_product(rs, J, ring.elements[ring.by_length[2][0]], w)
    assert [ring.lengths[g] for g in ring.generators] == [1, 1, 2]
    rows, inverse, _ = ring.levels[3]
    assert len(rows) == 10
    assert not {8, 9} & {r for _, comb in inverse for r, _ in comb}
    solve = quantum._right_hand_sides

    def one_more_term_on_row_8(eng, by, k):
        rhs = solve(eng, by, k)
        if k == 3:
            rhs[8][0] = rhs[8].get(0, 0) + 1
        return rhs

    monkeypatch.setattr(quantum, "_right_hand_sides", one_more_term_on_row_8)
    with pytest.raises(RuntimeError, match=r"inconsistent on row \(s2, s4s3\)$"):
        parabolic_quantum_product(rs, J, w, w)


def test_levels_are_built_in_order_whichever_is_asked_first():
    # asked for level 3 first, a fresh Fl(2, 3; 5) ring still factors
    # levels 1 and 2 before it, so it picks the generators an ordered build
    # picks, not all five length-3 classes
    rs = RootSystem(CartanType.parse("A4"))
    ring = _context(rs, ParabolicSubset.of([1, 4])).ring
    ring.levels[3]
    assert sorted(ring.levels) == [1, 2, 3]
    assert [ring.lengths[g] for g in ring.generators] == [1, 1, 2]


def test_corrupted_chevalley_coefficient_breaks_integrality():
    rs, eng = _private_engine("B3")
    # a column of the level inverse and a row it uses with a coefficient
    # that its denominator does not divide
    k, j, r = next(
        (k, j, r)
        for k, (rows, inverse) in _level_systems(eng).items()
        for j, (den, comb) in enumerate(inverse)
        for r, a in comb
        if a % den
    )
    _corrupt_move(eng, eng.by_length[k - 1][r // rs.rank], r % rs.rank)
    # sigma_w' * sigma_e = sigma_w', so in the identity's own table row r of
    # level k reads the corrupted move and nothing else does; the public
    # product never extends that table, so read it off the table directly
    with pytest.raises(RuntimeError, match="non-integer structure constant"):
        _oriented_product(eng, eng.by_length[k][j], eng.index[identity(rs).perm])


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_every_corrupted_quantum_move_breaks_the_solve(name):
    # one more on the coefficient of a quantum move, a triple that leaves
    # degree 0, of the divisors' move table after every level is factored:
    # the right-hand sides read it both as a move of a term and as a quantum
    # term of sigma_g * sigma_{w'}, and the table of a top-length factor
    # reaches every position, so its solve refuses each such corruption
    _, eng = _private_engine(name)
    for k in sorted(eng.by_length)[1:]:
        eng.levels[k]
    top = eng.lengths[-1]
    eng.extend_moves(top)
    v, size, moves_of = eng.by_length[top][0], eng.size, eng.groups[0][2]
    corrupted = 0
    for x, moves in enumerate(moves_of):
        for u, (t, delta, a) in enumerate(moves):
            if x + delta < size:
                continue
            moves_of[x] = moves[:u] + ((t, delta, a + 1),) + moves[u + 1 :]
            with pytest.raises(
                RuntimeError, match="^(recursion system is inconsistent|non-integer structure)"
            ):
                quantum._products(eng, v, top)
            moves_of[x] = moves
            eng.tables.clear()
            corrupted += 1
    assert corrupted > 0
    # restored, the table solves to the top
    assert len(quantum._products(eng, v, top)) == size


def _reference_solve(eng, by, k):
    """The length-k left inverse applied with no shortcut: per column, the
    sum of coefficient * right-hand side over every row it reads, divided
    exactly by its denominator, zero entries dropped."""
    _, inverse, _ = eng.levels[k]
    rhs = quantum._right_hand_sides(eng, by, k)
    sol = []
    for den, comb in inverse:
        acc = {}
        for r, a in comb:
            for key, c in rhs[r].items():
                acc[key] = acc.get(key, 0) + a * c
        assert all(c % den == 0 for c in acc.values())
        sol.append({key: c // den for key, c in acc.items() if c})
    return sol


def _column_kind(den, comb):
    """Which path of `_solve_level` a column of a level inverse takes."""
    if len(comb) == 1 and comb[0][1] == den:
        return "one row"
    return "denominator 1" if den == 1 else "divided"


# G/B of types whose level inverses have denominators 2 (B3, C3, D4) and up
# to 32 (F4), and Fl(2, 3; 5) = A4/{1,4}, whose length-2 generator's moves
# are read off the comparison formula; every level's columns take their
# paths whatever the right factor, so it is a class of length 3, whose F4
# table takes a quarter of the time of a class of length 12
SOLVE_SPACES = [("B3", ()), ("C3", ()), ("D4", ()), ("F4", ()), ("A4", (1, 4))]


@pytest.mark.parametrize("name, j_nodes", SOLVE_SPACES)
def test_the_level_solve_is_the_left_inverse_applied_and_divided(name, j_nodes):
    ring = _context(build_root_system(name), ParabolicSubset.of(j_nodes)).ring
    top = ring.lengths[-1]
    by = quantum._products(ring, ring.by_length[3][-1], top)
    kinds = set()
    for k in sorted(ring.by_length)[1:]:
        sol = quantum._solve_level(ring, by, k)
        first = ring.by_length[k][0]
        assert sol == _reference_solve(ring, by, k) == by[first : first + len(sol)]
        kinds.update(_column_kind(den, comb) for den, comb in ring.levels[k][1])
    # Fl(2, 3; 5)'s level inverses have denominator 1 only
    paths = {"one row", "denominator 1", "divided"}
    assert kinds == (paths - {"divided"} if name == "A4" else paths)
    # each group's flat move tuples cover the basis and name its generators
    for _, gens, moves_of in ring.groups:
        assert len(moves_of) == ring.size
        for moves in moves_of:
            assert {t for t, _, _ in moves} <= set(range(len(gens)))


def _reference_level_rows(eng, k):
    """The rows of the length-k system with each generator's row filtered
    off the whole flat move tuple of w', one pass per generator."""
    first, size = eng.by_length[k][0], eng.size
    return tuple(
        tuple((x + delta - first, a) for s, delta, a in moves_of[x] if s == t and x + delta < size)
        for length, gens, moves_of in eng.groups
        if length <= k
        for x in eng.by_length[k - length]
        for t in range(len(gens))
    )


@pytest.mark.parametrize("name, j_nodes", [("B3", ()), ("D4", ()), ("F4", ()), ("A4", (1, 4))])
def test_level_rows_split_each_move_tuple_as_a_filter_per_generator_does(name, j_nodes):
    # one pass over each move tuple gives the rows, their order and the
    # order of the entries within each row that one filter per generator
    # gives, so the factorization makes the same pivots
    ring = _context(build_root_system(name), ParabolicSubset.of(j_nodes)).ring
    for k in sorted(ring.by_length)[1:]:
        rows = ring.levels[k][0]
        assert rows == quantum._level_rows(ring, k) == _reference_level_rows(ring, k)


# D4's levels have denominators 2 too, but each of its one-row columns reads
# its row at its denominator
@pytest.mark.parametrize("name", ["B3", "C3", "F4"])
def test_one_more_on_a_one_row_column_off_its_denominator_is_not_integral(
    name, monkeypatch
):
    # a column that reads one row r with coefficient a != den takes the
    # divided path: a and den are coprime and den > 1, so one more on any
    # entry of b_r leaves a * (b + 1) / den a fraction
    eng = _engine(build_root_system(name))
    k, r = next(
        (k, comb[0][0])
        for k in sorted(eng.by_length)[1:]
        for den, comb in eng.levels[k][1]
        if len(comb) == 1 and comb[0][1] != den
    )
    by = quantum._products(eng, eng.index[identity(eng.rs).perm], k - 1)
    quantum._solve_level(eng, by, k)
    right_hand_sides = quantum._right_hand_sides

    def one_more(eng, by, k):
        rhs = right_hand_sides(eng, by, k)
        key = next(iter(rhs[r]))
        rhs[r][key] += 1
        return rhs

    monkeypatch.setattr(quantum, "_right_hand_sides", one_more)
    with pytest.raises(RuntimeError, match="non-integer structure constant"):
        quantum._solve_level(eng, by, k)


def _tamper_with_solved_products(monkeypatch, tamper, engine=None):
    """Pass the first nonempty product of every level solve (of `engine`
    only, if given) through tamper(eng, terms) before the checks of
    `_finalized` read it."""
    solve = quantum._solve_level

    def tampered(eng, by, k):
        sol = solve(eng, by, k)
        if engine in (None, eng):
            tamper(eng, next(terms for terms in sol if terms))
        return sol

    monkeypatch.setattr(quantum, "_solve_level", tampered)


def _negate(eng, terms):
    key = next(iter(terms))
    terms[key] = -terms[key]


def _one_more_q(eng, terms):
    # the packed degree sits above the basis size in the key: one more q1,
    # which also raises the sum field
    key = next(iter(terms))
    one = (1,) + (0,) * (len(eng.weights) - 1)
    terms[key + eng.pack(one) * eng.size] = terms.pop(key)


def test_a_negative_structure_constant_is_refused(monkeypatch):
    rs, _ = _private_engine("A3")
    _tamper_with_solved_products(monkeypatch, _negate)
    s1 = simple_reflection(rs, 1)
    with pytest.raises(RuntimeError, match="negative structure constant"):
        quantum_product(rs, s1, s1)


def test_a_term_off_the_grading_is_refused(monkeypatch):
    rs, _ = _private_engine("A3")
    _tamper_with_solved_products(monkeypatch, _one_more_q)
    s1 = simple_reflection(rs, 1)
    with pytest.raises(RuntimeError, match="grading violation"):
        quantum_product(rs, s1, s1)


@pytest.mark.parametrize(
    "tamper, message",
    [(_negate, "negative structure constant"), (_one_more_q, "grading violation")],
    ids=["positivity", "grading"],
)
def test_a_tampered_g_mod_p_product_is_refused(monkeypatch, tamper, message):
    # on Gr(2, 4) = A3/{1,3}, (c_1, q1) = 4: a term with one more q1 breaks
    # l(y) + c_1(d) = l(u) + l(v); the Borel products behind the generator
    # moves are left alone
    rs = RootSystem(CartanType.parse("A3"))
    J = ParabolicSubset.of([1, 3])
    ring = _context(rs, J).ring
    assert ring.weights == (4,)
    _tamper_with_solved_products(monkeypatch, tamper, ring)
    s2 = simple_reflection(rs, 2)
    with pytest.raises(RuntimeError, match=message):
        parabolic_quantum_product(rs, J, s2, s2)


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
def test_borel_generators_are_the_divisors(name):
    # the instance J = {} of the level solver: its ring is the Borel engine,
    # whose one generator group is the rank divisors, and no level adds one
    rs = build_root_system(name)
    ring = _context(rs, BOREL).ring
    assert ring is _engine(rs)
    _level_systems(ring)
    assert [ring.elements[g] for g in ring.generators] == [
        simple_reflection(rs, i) for i in range(1, rs.rank + 1)
    ]


def _representatives(ctx):
    return {ctx.representatives[x][0] for x in range(len(ctx.basis))}


def test_levels_are_shared_by_every_product(tmp_path, capsys):
    assert main(["table", "--type", "B3", "--parabolic", "", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    rs = build_root_system("B3")
    eng = _engine(rs)
    # the table reads the products of the orbit representatives only, so it
    # factors every level up to the longest representative (an earlier test
    # on the shared engine may have factored more)
    reps = _representatives(_context(rs, BOREL))
    levels = dict(eng.levels)
    assert set(range(1, max(eng.lengths[z] for z in reps) + 1)) <= set(levels)
    # drop the per-right-factor products, so that the commands below solve
    # their level systems again
    eng.tables.clear()
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    word = format_word(w_o.word)
    assert main(["table", "--type", "B3", "--parabolic", "1", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    assert main(["mul", "--type", "B3", "--u", word, "--v", word]) == 0
    capsys.readouterr()
    # w_o * w_o is read off the table of w_o's representative, which is
    # shorter than w_o
    rep, k = _context(rs, BOREL).representatives[eng.index[w_o.perm]]
    assert k is not None and eng.lengths[rep] < w_o.length
    assert rep in eng.tables
    assert eng.levels == levels
    assert all(eng.levels[k] is levels[k] for k in levels)


def test_each_table_recurses_to_its_own_length(tmp_path, capsys):
    rs = build_root_system("B3")
    eng = _engine(rs)
    ctx = _context(rs, BOREL)
    eng.tables.clear()
    assert main(["table", "--type", "B3", "--json", "--cache-dir", str(tmp_path)]) == 0
    # every pair is read off the table of the later of its factors' orbit
    # representatives, up to the length of the earlier one; the pair (z, z)
    # of a representative z takes z's table to level l(z), and no other
    # class has a table
    reps = _representatives(ctx)
    assert len(reps) == eng.size // 2  # Z/2 acts freely on W(B3)
    assert sorted(eng.tables) == sorted(reps)
    for z, by in eng.tables.items():
        assert len(by) == bisect_right(eng.lengths, eng.lengths[z])
    eng.tables.clear()
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    assert main(["mul", "--type", "B3", "--u", format_word(w_o.word), "--v", "s1"]) == 0
    capsys.readouterr()
    # s1 is its own representative and comes before w_o's, so w_o * s1 is
    # read off the table of w_o's representative, up to level 1
    rep, _ = ctx.representatives[eng.index[w_o.perm]]
    s1 = eng.index[simple_reflection(rs, 1).perm]
    assert ctx.representatives[s1] == (s1, None) and s1 < rep
    assert list(eng.tables) == [rep]
    assert len(eng.tables[rep]) == bisect_right(eng.lengths, 1)


# rings with one to four quantum parameters, as (type, parabolic nodes)
PACKED_RINGS = [("A1", ()), ("A4", ()), ("D4", (1,)), ("B3", (2,)), ("A4", (2, 3))]


def _ring(name, j_nodes):
    return _context(build_root_system(name), ParabolicSubset.of(j_nodes)).ring


@pytest.mark.parametrize("name, j_nodes", PACKED_RINGS)
def test_every_in_range_degree_packs_and_reads_back(name, j_nodes):
    # in range: sum(d) <= dim, so every field of the packing, sum(d) and
    # each coordinate, lies below the base dim + 1
    ring = _ring(name, j_nodes)
    r, base = len(ring.weights), ring.base
    degrees = [d for d in iproduct(range(base), repeat=r) if sum(d) < base]
    packed = [ring.pack(d) for d in degrees]
    assert [ring.degrees[pd] for pd in packed] == degrees
    # the sum field is the highest, then d_1, ..., d_r
    assert [ring.degrees[pd] for pd in sorted(packed)] == sorted(
        degrees, key=lambda d: (sum(d), d)
    )
    top = base**r  # one in the sum field
    for pd, d in zip(packed, degrees):
        # a sum field off by one, or a borrow out of the lowest field
        bad = [pd + top, pd - top] + ([pd - 1] if d[-1] == 0 and any(d) else [])
        for wrong in bad:
            with pytest.raises(RuntimeError, match="sum field"):
                ring.degrees[wrong]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_packing_is_linear(data):
    # so a move delta or an orbit-map key delta adds to a key as a plain int
    ring = _ring(*data.draw(st.sampled_from(PACKED_RINGS)))
    r = len(ring.weights)
    vector = st.lists(st.integers(-50, 50), min_size=r, max_size=r)
    a, b, k = data.draw(vector), data.draw(vector), data.draw(st.integers(-5, 5))
    assert ring.pack([x + y for x, y in zip(a, b)]) == ring.pack(a) + ring.pack(b)
    assert ring.pack([k * x for x in a]) == k * ring.pack(a)


def test_a_memo_calls_its_builder_once_per_key():
    calls = []

    def square(key):
        calls.append(key)
        return key * key

    memo = _Memo(square)
    assert [memo[3], memo[4], memo[3], memo[4]] == [9, 16, 9, 16]
    assert calls == [3, 4]
    # `in` and `.get` read what the memo holds and never build
    assert 5 not in memo
    assert memo.get(5) is None and memo.get(5, 0) == 0
    assert calls == [3, 4] and memo == {3: 9, 4: 16}


def test_a_builder_that_raises_stores_nothing():
    # one more in the sum field of q1's packed degree: `_unpack` refuses it
    # on each subscript alike, and the memo keeps no entry for it
    _, eng = _private_engine("A3")
    wrong = eng.pack((1, 0, 0)) + eng.base**3
    errors = []
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"sum field 2 over coordinates \(1, 0, 0\)$") as info:
            eng.degrees[wrong]
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert wrong not in eng.degrees
