"""The Seidel orbit route of `_Context.int_terms`, checked against the plain
readout: the closed form sigma_{floor(V_k)} * sigma_u = q^{delta_k(u)}
sigma_{floor(V_k u)} (Belkale; Chaput-Manivel-Perrin) on every minuscule k
and every u, with delta_k computed here apart from the package, over the
rationals, and the guards on a derived term."""

from fractions import Fraction

import pytest

from qflag import (
    BOREL,
    CartanType,
    ParabolicSubset,
    RootSystem,
    build_root_system,
    from_word,
    longest_element,
    min_coset_rep,
)
from qflag import cli
from qflag.cli import main
from qflag.compare import _context
from qflag.quantum import _int_product

SPACES = [
    ("A3", ()), ("B3", ()), ("C3", ()), ("D4", ()), ("A4", ()),
    ("A4", (2, 3)), ("A4", (1, 4)), ("B3", (1,)), ("C3", (3,)), ("D4", (1,)),
]

MINUSCULE = {"A3": [1, 2, 3], "A4": [1, 2, 3, 4], "B3": [1], "C3": [3], "D4": [1, 3, 4]}


def _inverse(matrix):
    """The inverse of a square int matrix, over the rationals."""
    n = len(matrix)
    m = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [a / p for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _delta(rs, k, u):
    """omega_k^vee - u^-1 omega_k^vee in simple-coroot coordinates, where
    omega_k^vee is row k of the inverse Cartan matrix and s_i acts by
    lam -> lam - <alpha_i, lam> alpha_i^vee, <alpha_i, lam> = sum_j lam_j
    cartan[j][i]."""
    omega = _inverse(rs.cartan)[k - 1]
    lam = list(omega)
    # u^-1 = s_{a_m} ... s_{a_1} for the word a_1 ... a_m of u
    for i in u.word:
        pairing = sum(lam[j] * rs.cartan[j][i - 1] for j in range(rs.rank))
        lam[i - 1] -= pairing
    delta = [a - b for a, b in zip(omega, lam)]
    assert all(d.denominator == 1 for d in delta)
    return [int(d) for d in delta]


@pytest.mark.parametrize("name, j_nodes", SPACES)
def test_the_closed_form_holds_in_the_plain_readout(name, j_nodes):
    rs = build_root_system(name)
    J = ParabolicSubset.of(j_nodes)
    ctx = _context(rs, J)
    ring, basis, position = ctx.ring, ctx.basis, ctx.position
    free = J.free_nodes(rs.rank)
    assert sorted(ctx.seidel) == MINUSCULE[name]
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    for k in ctx.seidel:
        # k may lie in J; the class is floor(V_k u), with V_k unreduced
        j_k = ParabolicSubset.of(i for i in range(1, rs.rank + 1) if i != k)
        v_k = w_o * longest_element(rs, j_k)
        top = position[min_coset_rep(v_k, J).perm]
        image, delta = ctx.orbit_maps[k]
        for x, u in enumerate(basis):
            full = _delta(rs, k, u)
            d = tuple(full[i - 1] for i in free)
            y = position[min_coset_rep(v_k * u, J).perm]
            assert ctx.rows(top, x) == [(ring.pack(d) * ring.size + y, 1)]
            assert (image[x], delta[x]) == (y, ring.pack(d) * ring.size + y - x)


@pytest.mark.parametrize("name, j_nodes", SPACES)
def test_each_representative_is_least_in_its_orbit(name, j_nodes):
    ctx = _context(build_root_system(name), ParabolicSubset.of(j_nodes))
    lengths, n = ctx.ring.lengths, len(ctx.basis)
    images = {k: ctx.orbit_maps[k][0] for k in ctx.seidel}
    for x in range(n):
        # the V_k and the identity form a group, so the orbit of x is x and
        # its images
        orbit = {x, *(image[x] for image in images.values())}
        rep, k = ctx.representatives[x]
        assert rep == min(orbit, key=lambda z: (lengths[z], z))
        assert x == (rep if k is None else images[k][rep])


def test_a_type_without_minuscule_nodes_keeps_every_factor():
    ctx = _context(build_root_system("G2"), BOREL)
    assert ctx.seidel == {}
    assert all(ctx.representatives[x] == (x, None) for x in range(len(ctx.basis)))


def test_a_product_of_representatives_builds_no_orbit_map():
    # s1 * s1 on D4 reads s1's own table: no class of W is mapped, so a
    # small product on a large type pays nothing for the orbit route
    rs = RootSystem(CartanType.parse("D4"))
    ctx = _context(rs, BOREL)
    s1 = ctx.position[rs.simple_perms[0]]
    assert ctx.representatives[s1] == (s1, None)
    ctx.int_terms(s1, s1)
    assert ctx.orbit_maps == {}


# (corruption, the error it raises), by id.  A corruption is taken off the
# key of every term that the corrupted map moves, and each one below gives
# every such term the same fault, or none.  A rank-r packed degree has the
# fields sum(d), d_1, ..., d_r, highest first, each below base = dim + 1
CORRUPTIONS = {
    # one taken off the field above the sum field: a product's sum(d) is at
    # most dim, below the base, so every moved key goes below zero
    "negative": (lambda size, base, rank: size * base ** (rank + 1), "wraps its packed key"),
    # q_r less and q_{r-1} more: the key stays positive, a term with a q_r
    # keeps its grade, but one without borrows from q_{r-1}, and the sum
    # field no longer adds up
    "borrow": (lambda size, base, rank: size * (1 - base), "sum field"),
    # a key delta one off moves the class: it is not a whole packed degree
    "position": (lambda size, base, rank: 1, "wraps its packed key"),
    # the sum field one higher, the coordinates unchanged
    "sum": (lambda size, base, rank: -size * base**rank, "sum field"),
}

# one q_r less, in the sum field and in d_r: a term with a q_r keeps a
# whole degree of a lower grade, and the key of a classical term goes below
# zero
ONE_Q_LESS = (lambda size, base, rank: size * (base**rank + 1), "grading violation")


def _first_applied(ctx, i, j):
    """(node, representative) of the orbit map applied first in sigma_i *
    sigma_j: the later factor's, unless it is its own representative."""
    (ri, k), (rj, l) = ctx.representatives[i], ctx.representatives[j]
    return (l, rj) if l is not None else (k, ri)


def _corrupted(name, corruption, words=None):
    """(ctx, i, j) on a private G/B of type `name`, whose product sigma_i *
    sigma_j reads an orbit map corrupted by `corruption` in the key delta of
    a representative, the map applied first.  The factors are the classes of
    `words`, or else by type.  On A3, i is not its own representative z and
    j = s1 is: the terms of sigma_z * sigma_{s1} lie off z, and some are
    classical, so a corrupted key delta of z is taken off them and nothing adds
    it back.  On D4, neither factor is, and their nodes differ: the later
    factor's map S_l comes first, and S_k moves its corrupted terms on."""
    # a private root system, so that the corruption stays in this test
    rs = RootSystem(CartanType.parse(name))
    ctx = _context(rs, BOREL)
    ring = ctx.ring
    if words:
        i, j = (ctx.position[from_word(rs, w).perm] for w in words)
    else:
        i = next(x for x in range(ring.size) if ctx.representatives[x][1] is not None)
        k = ctx.representatives[i][1]
        if name == "A3":
            j = ctx.position[rs.simple_perms[0]]
            assert ctx.representatives[j] == (j, None)
        else:
            j = next(y for y in range(ring.size) if ctx.representatives[y][1] not in (None, k))
    assert ctx.int_terms(i, j) == ctx.rows(i, j)
    node, z = _first_applied(ctx, i, j)
    image, delta = ctx.orbit_maps[node]
    delta = list(delta)
    delta[z] += corruption(ring.size, ring.base, rs.rank)
    ctx.orbit_maps[node] = (image, tuple(delta))
    return ctx, i, j


def _first_wrap(ctx, i, j):
    """The class of the first term of the representatives' product that the
    map applied first in sigma_i * sigma_j, on its own, moves out of its
    packed field, or None."""
    size = ctx.ring.size
    node, rep = _first_applied(ctx, i, j)
    image, delta = ctx.orbit_maps[node]
    ri, rj = ctx.representatives[i][0], ctx.representatives[j][0]
    for key in _int_product(ctx.ring, ri, rj):
        z = key % size
        moved = key + delta[z] - (delta[rep] + rep - image[rep])
        if moved < 0 or moved % size != image[z]:
            return ctx.basis[image[z]]
    return None


@pytest.mark.parametrize(
    "name, words, corruption, message",
    [("A3", None, *case) for case in CORRUPTIONS.values()]
    + [("D4", None, *case) for case in CORRUPTIONS.values()]
    # sigma_{s3} * sigma_{s2s3}, s2s3 = floor(V_2 s2s1): of the two
    # classical terms of sigma_{s3} * sigma_{s2s1}, the first keeps a key
    # above zero but breaks the grading, and the second goes below zero
    + [("A3", [(3,), (2, 3)], *ONE_Q_LESS)],
    ids=[*CORRUPTIONS, *(f"two maps-{key}" for key in CORRUPTIONS), "wrap before grading"],
)
def test_a_derived_term_never_wraps(name, words, corruption, message):
    ctx, i, j = _corrupted(name, corruption, words)
    with pytest.raises(RuntimeError, match=message) as raised:
        ctx.int_terms(i, j)
    # the first faulty term is refused.  A wrap is refused by the check
    # after the corrupted map, before the next map can move the term on; a
    # corruption that wraps one term wraps every term it moves, so the
    # first term it wraps is the one named
    wrapped = _first_wrap(ctx, i, j)
    if message == "wraps its packed key":
        assert str(raised.value) == f"a derived term of {wrapped!r} wraps its packed key"
    elif words:
        # a later term wraps, yet the first term's grading fault is reported
        assert wrapped is not None


@pytest.mark.parametrize("corruption, message", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_a_table_over_a_corrupted_orbit_map_fails_whole(
    corruption, message, tmp_path, capsys, monkeypatch
):
    ctx, _, _ = _corrupted("A3", corruption)
    monkeypatch.setattr(cli, "build_root_system", lambda ctype: ctx.rs)
    code = main(["table", "--type", "A3", "--parabolic", "", "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ") and message in err
    assert list(tmp_path.iterdir()) == []
