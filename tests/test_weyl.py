import random
from itertools import combinations

import pytest

from qflag import (
    BOREL,
    EnumerationBoundError,
    ParabolicSubset,
    build_root_system,
    enumerate_min_reps,
    format_word,
    from_word,
    identity,
    longest_element,
    min_coset_rep,
    parse_word,
    simple_reflection,
)
from qflag import weyl
from qflag.compare import _context
from qflag.quantum import _engine
from qflag.weyl import WeylElement

# Poincaré polynomials from the exponent product formula, frozen:
# A2: (1+t)(1+t+t^2), A3: (1+t)(1+t+t^2)(1+t+t^2+t^3), B2: (1+t)(1+t+t^2+t^3)
LENGTH_COUNTS = {
    "A2": [1, 2, 2, 1],
    "A3": [1, 3, 5, 6, 5, 3, 1],
    "B2": [1, 2, 2, 2, 1],
}


def _subgroup(rs, J):
    """The parabolic subgroup W_J: the elements whose minimal representative
    mod J is the identity."""
    return [
        w for w in enumerate_min_reps(rs, ParabolicSubset())
        if min_coset_rep(w, J) == identity(rs)
    ]


def _poly_quotient(num, den):
    """Exact quotient of integer polynomials given as coefficient lists."""
    num = list(num)
    out = []
    for k in range(len(num) - len(den) + 1):
        c = num[k]
        assert c % den[0] == 0
        c //= den[0]
        out.append(c)
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert all(x == 0 for x in num)
    return out


def test_word_parsing_round_trip():
    assert parse_word("e") == ()
    assert parse_word("s1s2s1") == (1, 2, 1)
    assert parse_word("s12") == (12,)
    assert format_word(()) == "e"
    assert format_word((2, 1)) == "s2s1"
    with pytest.raises(ValueError):
        parse_word("x1")


def test_a2_longest_and_braid():
    rs = build_root_system("A2")
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
    w = s1 * s2 * s1
    assert w.length == 3
    assert w == longest_element(rs, ParabolicSubset.full(2))
    assert s2 * s1 * s2 == s1 * s2 * s1


def test_words_are_canonical_and_reduced():
    rs = build_root_system("B2")
    for word in [(), (1,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 2), (1, 1, 2)]:
        w = from_word(rs, word)
        assert from_word(rs, w.word) == w
        assert len(w.word) == w.length


@pytest.mark.parametrize(
    "name,nodes",
    [("A3", ()), ("B3", ()), ("G2", ()), ("D4", ()),
     # W^J, where the canonical parent of a representative can leave W^J
     ("B3", (1,)), ("A4", (2, 3)), ("D4", (1, 3, 4))],
)
def test_word_ends_in_the_smallest_right_descent(name, nodes):
    # the defining rule word(w) = word(w s_i) + (i,), with i the smallest
    # right descent of w, on enumerated elements and on elements built
    # outside any enumeration (here the inverses)
    rs = build_root_system(name)
    elements = enumerate_min_reps(rs, ParabolicSubset.of(nodes))
    built = [from_word(rs, w.word[::-1]) for w in elements]
    for w in elements + built:
        descents = [i for i in range(1, rs.rank + 1) if w.is_right_descent(i)]
        if not descents:
            assert w.word == ()
            continue
        i = descents[0]
        assert w.word[-1] == i
        assert w.word[:-1] == (w * simple_reflection(rs, i)).word


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_engine_reflection_maps(name):
    # the engine's map of each positive root alpha sends x to s_alpha x, and
    # moves the length by an odd amount; s_alpha = w s_i w^-1 for any w, i
    # with w(alpha_i) = alpha, built from words here
    rs = build_root_system(name)
    eng = _engine(rs)
    npos = rs.npos
    reflections = {}
    for w in eng.elements:
        for i in range(1, rs.rank + 1):
            g = w.perm[rs._simple_global[i - 1]]
            if g < npos and g not in reflections:
                reflections[g] = from_word(rs, w.word + (i,) + w.word[::-1])
    assert sorted(reflections) == list(range(npos))
    for g, s_alpha in reflections.items():
        moved = eng.reflections[g]
        for x, w in enumerate(eng.elements):
            assert eng.elements[moved[x]] == s_alpha * w
            assert (eng.lengths[moved[x]] - eng.lengths[x]) % 2 == 1


def test_group_axioms_sampled():
    rs = build_root_system("A3")
    rng = random.Random(3)
    elements = enumerate_min_reps(rs, ParabolicSubset())
    e = identity(rs)
    for _ in range(50):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * from_word(rs, a.word[::-1]) == e
        assert (a * b).length <= a.length + b.length


def test_min_coset_rep_examples():
    rs = build_root_system("A2")
    J = ParabolicSubset.of([2])
    s2 = simple_reflection(rs, 2)
    assert min_coset_rep(s2, J) == identity(rs)
    assert min_coset_rep(identity(rs), J) == identity(rs)
    w = from_word(rs, (2, 1))
    assert min_coset_rep(w, J) == w
    assert min_coset_rep(w, ParabolicSubset()) == w
    # one descent step: s1s2 * s2 = s1
    assert min_coset_rep(from_word(rs, (1, 2)), J) == simple_reflection(rs, 1)


@pytest.mark.parametrize("name,j_nodes", [("A2", [2]), ("B2", [1]), ("A3", [1, 3])])
def test_min_coset_rep_constant_on_cosets(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    rng = random.Random(11)
    elements = enumerate_min_reps(rs, ParabolicSubset())
    for _ in range(40):
        w = elements[rng.randrange(len(elements))]
        rep = min_coset_rep(w, J)
        assert min_coset_rep(rep, J) == rep
        j = j_nodes[rng.randrange(len(j_nodes))]
        assert min_coset_rep(w * simple_reflection(rs, j), J) == rep


def test_longest_element_cases():
    rs = build_root_system("A2")
    assert longest_element(rs, ParabolicSubset()) == identity(rs)
    assert longest_element(rs, ParabolicSubset.of([2])) == simple_reflection(rs, 2)
    w_o = longest_element(rs, ParabolicSubset.full(2))
    assert w_o.length == 3
    assert w_o * w_o == identity(rs)


@pytest.mark.parametrize("name,j_nodes", [("A2", [1, 2]), ("B2", [1, 2]), ("A3", [1, 2])])
def test_longest_element_complements_lengths(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    w_j = longest_element(rs, J)
    members = _subgroup(rs, J)
    assert w_j.length == max(u.length for u in members)
    for u in members:
        assert (w_j * u).length == w_j.length - u.length


def test_enumerate_min_reps_examples():
    rs = build_root_system("A2")
    reps = enumerate_min_reps(rs, ParabolicSubset.of([2]))
    assert [format_word(w.word) for w in reps] == ["e", "s1", "s2s1"]
    assert len(enumerate_min_reps(rs, ParabolicSubset())) == 6
    rs3 = build_root_system("A3")
    assert len(enumerate_min_reps(rs3, ParabolicSubset.of([1, 3]))) == 6


@pytest.mark.parametrize("name", ["A2", "A3", "B2"])
def test_min_rep_length_counts_match_poincare_quotient(name):
    rs = build_root_system(name)
    full = LENGTH_COUNTS[name]
    assert len(full) == rs.npos + 1
    by_len = [0] * (rs.npos + 1)
    for w in enumerate_min_reps(rs, ParabolicSubset()):
        by_len[w.length] += 1
    assert by_len == full
    for j in range(1, rs.rank + 1):
        J = ParabolicSubset.of([j])
        sub = [0] * 2
        for u in _subgroup(rs, J):
            sub[u.length] += 1
        quotient = _poly_quotient(full, sub)
        counts = [0] * len(quotient)
        for w in enumerate_min_reps(rs, J):
            counts[w.length] += 1
        assert counts == quotient


def test_enumeration_bound_refuses_e7():
    rs = build_root_system("E7")  # roots close fine, only |W| is refused
    with pytest.raises(EnumerationBoundError):
        enumerate_min_reps(rs, ParabolicSubset())


@pytest.mark.parametrize(
    "enumerator, parabolic",
    [(enumerate_min_reps, ParabolicSubset())],
    ids=["min_reps"],
)
def test_enumeration_bound_is_the_module_constant(monkeypatch, enumerator, parabolic):
    rs = build_root_system("A2")  # |W| = 6
    monkeypatch.setattr(weyl, "DEFAULT_MAX_WEYL_ORDER", 6)
    assert len(enumerator(rs, parabolic)) == 6
    monkeypatch.setattr(weyl, "DEFAULT_MAX_WEYL_ORDER", 5)
    with pytest.raises(EnumerationBoundError, match="enumeration bound 5"):
        enumerator(rs, parabolic)


# |W| of every type up to rank 8: (n+1)! for A_n, 2^n n! for B_n and C_n,
# 2^(n-1) n! for D_n, and the exceptional orders
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040, "A7": 40320,
    "A8": 362880,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840, "B6": 46080, "B7": 645120,
    "B8": 10321920,
    "C2": 8, "C3": 48, "C4": 384, "C5": 3840, "C6": 46080, "C7": 645120,
    "C8": 10321920,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040, "D7": 322560, "D8": 5160960,
    "E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12,
}


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_enumeration_bound_reads_the_weyl_order(monkeypatch, name):
    monkeypatch.setattr(weyl, "DEFAULT_MAX_WEYL_ORDER", 0)
    with pytest.raises(EnumerationBoundError) as info:
        enumerate_min_reps(build_root_system(name), BOREL)
    assert str(info.value) == (
        f"|W({name})| = {WEYL_ORDERS[name]} exceeds the enumeration bound 0"
    )


def _brute_force_enumeration(rs, J):
    """W^J by a BFS keyed by whole permutations, ordered by length and then
    by the canonical word of a fresh element, which recurses through its
    own products and reads nothing the enumeration built."""
    e = identity(rs)
    seen, frontier = {e.perm: e}, [e]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(1, rs.rank + 1):
                v = simple_reflection(rs, i) * u
                if v.perm not in seen and min_coset_rep(v, J) == v:
                    seen[v.perm] = v
                    nxt.append(v)
        frontier = nxt
    fresh = [weyl.WeylElement(rs, perm) for perm in seen]
    return sorted(fresh, key=lambda w: (w.length, w.word))


@pytest.mark.parametrize(
    "name, nodes",
    [("A3", ()), ("B3", ()), ("C3", ()), ("D4", ()), ("G2", ()), ("F4", ()),
     ("A4", (2, 3)), ("D5", (1, 3)), ("E6", (2, 3, 4, 5, 6))],
)
def test_enumeration_matches_a_brute_force_bfs(name, nodes):
    # the enumeration keys elements by their images of the simple roots and
    # lends each word from the canonical parent; the same elements in the
    # same order with the same words, and the left maps floor(s_i x)
    rs = build_root_system(name)
    J = ParabolicSubset.of(nodes)
    basis, position, left = weyl._enumerate(rs, J)
    expected = _brute_force_enumeration(rs, J)
    assert [w.perm for w in basis] == [w.perm for w in expected]
    assert [w.word for w in basis] == [w.word for w in expected]
    assert [w.length for w in basis] == [w.length for w in expected]
    assert position == {w.perm: x for x, w in enumerate(expected)}
    assert left == [
        tuple(position[min_coset_rep(simple_reflection(rs, i) * w, J).perm] for w in expected)
        for i in range(1, rs.rank + 1)
    ]


# reference definitions, one WeylElement product per step, for the helpers
# that compose permutation tuples directly


def _product(rs, word):
    """The product of the word's simple reflections."""
    w = identity(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    return w


def _reference_word(w):
    """word(w) = word(w s_i) + (i,), i the smallest right descent of w,
    reading no element's `word`."""
    rs = w.rs
    i = next((i for i in range(1, rs.rank + 1) if w.is_right_descent(i)), None)
    return () if i is None else _reference_word(w * simple_reflection(rs, i)) + (i,)


def _generated(rs, nodes):
    """The subgroup W_J, closed under right multiplication by s_j, j in J."""
    gens = [simple_reflection(rs, j) for j in nodes]
    elements = frontier = {identity(rs)}
    while frontier:
        frontier = {w * s for w in frontier for s in gens} - elements
        elements = elements | frontier
    return elements


def _reference_min_rep(w, subgroup):
    """The shortest element of the coset w W_J."""
    return min((w * u for u in subgroup), key=lambda x: x.length)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_weyl_helpers_match_their_definitions_on_all_of_w(name):
    # every element, rebuilt from its permutation so that no word is lent
    # by the enumeration, and every parabolic J
    rs = build_root_system(name)
    nodes = range(1, rs.rank + 1)
    subgroups = {
        ParabolicSubset.of(J): _generated(rs, J)
        for r in range(rs.rank + 1)
        for J in combinations(nodes, r)
    }
    for w in enumerate_min_reps(rs, BOREL):
        fresh = WeylElement(rs, w.perm)
        word = _reference_word(fresh)
        assert fresh.word == w.word == word
        assert from_word(rs, word) == _product(rs, word) == w
        for J, subgroup in subgroups.items():
            assert min_coset_rep(fresh, J) == _reference_min_rep(fresh, subgroup)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_weyl_helpers_match_their_definitions_on_seeded_words(name):
    # words of up to 20 letters, most of them not reduced, with a seeded J
    rs = build_root_system(name)
    rng = random.Random(20)
    unreduced = 0
    for _ in range(100):
        word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 20)))
        w = from_word(rs, word)
        assert w == _product(rs, word)
        assert w.word == _reference_word(_product(rs, word))
        unreduced += len(w.word) < len(word)
        J = [j for j in range(1, rs.rank + 1) if rng.random() < 0.5]
        assert min_coset_rep(w, ParabolicSubset.of(J)) == _reference_min_rep(
            w, _generated(rs, J)
        )
    assert unreduced > 50


@pytest.mark.parametrize("name,nodes", [("A4", (2, 3, 4)), ("B3", (1,)), ("D5", (3,))])
def test_min_coset_rep_is_the_basis_element_of_its_coset(name, nodes):
    # every element of W floors to the basis element of G/P that is the
    # shortest of its coset
    rs = build_root_system(name)
    J = ParabolicSubset.of(nodes)
    ctx = _context(rs, J)
    subgroup = _generated(rs, nodes)
    for w in enumerate_min_reps(rs, BOREL):
        fresh = WeylElement(rs, w.perm)
        rep = ctx.basis[ctx.position[min_coset_rep(fresh, J).perm]]
        assert rep == _reference_min_rep(fresh, subgroup)
