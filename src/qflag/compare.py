"""Gromov-Witten invariants and quantum products of G/P.

Peterson's comparison formula: for an effective degree d of G/P with
alcove-reduced lift lambda_d, derived parabolic P' and longest element w'_d
of its Levi Weyl group,

    <sigma_u, sigma_v, sigma_w>_d (G/P) = <sigma_u, sigma_v, sigma_{w w'_d}>_{lambda_d} (G/B)

for minimal coset representatives u, v, w.  The right side is the
coefficient of q^{lambda_d} sigma_{w_o w w'_d} in the Borel product
sigma_u * sigma_v.  That readout is injective, so it is run backwards: a
Borel term q^lambda sigma_x is a G/P term exactly when lambda is the lift of
its restriction d to the free nodes and y = x w'_d w_J is a minimal
representative, and then it is the term q^d sigma_y (w_o w = y w_J for
y = dual(w)).  `_Context.rows` maps every term of one Borel product this
way, on basis positions.  The Borel ring is the case J = {} of the same
map (lambda_d = d, w'_d = w_J = e).

The formula only has to supply the products sigma_g * sigma_x of the
generator classes g of length >= 2 that some G/P spaces need: the divisors'
products are the quantum Chevalley rule on W^J, and associativity gives
every other product by the level recursion of `quantum.py`, run on W^J by
an engine given `_Context.rows` as its readout, whose tables recurse only
through the minimal representatives, not through all of W.  A space whose
levels pick divisors only never builds the Borel ring for its products, and
on it `check --suite recursion` compares two independent routes.

Seidel orbits cut the tables further.  For a minuscule node k, one whose
alpha_k has coefficient 1 in the highest root, let V_k = w_o w_{o,J_k},
J_k being every node but k.  Then multiplying by sigma_{floor(V_k)} gives
one shifted term: sigma_{floor(V_k)} * sigma_u = q^{delta_k(u)}
sigma_{floor(V_k u)}, with delta_k(u) = omega_k^vee - u^-1 omega_k^vee
restricted to the free nodes (Belkale, Compositio Math. 140 (2004);
Chaput-Manivel-Perrin, Math. Res. Lett. 16 (2009)).  The V_k and the
identity form a group, P^vee/Q^vee, so a product is read off the product of
the factors' orbit representatives, and its terms are moved back through
one orbit map per factor that is not its own representative.  So
`_Context.int_terms` reads every product that `table`, `mul`, `gw` and
`star` serve off the W^J table of a representative (on A5, 120 of the 720
classes), in one pass that maps each term through both orbit maps and
checks it for positivity and grading as a solved term is checked.  The
direct readout `_Context.rows` reads the plain Borel product of the
factors themselves.  It serves the longer generators' moves, the
comparison audit, the recursion audit, which compares the two routes on
every ordered pair, and the right side a * (b * c) of the associativity
audit, whose left side takes the orbit route.  Both routes give a product
as the sorted (key, c) pairs of `ring`, whose key order is the output
order (see `quantum.py`): `table` encodes them as they are, and `mul`,
`gw` and `star` unpack the keys with `ring.term`.

W acts on the basis positions through the maps x -> floor(s_i x) that the
enumeration of W^J returns (`weyl._enumerate`), and every action here is
composed from them: the dual floor(w_o x), the orbit images floor(V_k x)
and the candidates floor(V_k^-1 x) of a representative, along reduced
words, with no Weyl group product.

The readout runs on the Borel engine's packed keys, through one memo: per
Borel key, the key in `ring` of the G/P term it reads as, or -1 when
lambda is not a lift or x w'_d w_J is not minimal.  The memo's builder
lifts the degree, permutes x and checks the grading once per key, so a
term of a Borel product costs one dict lookup and no Weyl group product.

Everything that depends only on (root system, parabolic) and the degree is
built once, in a memoized context, as one `ComparisonData` record per
degree; the readout, the degree helpers, the CLI and the audit all read it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property, reduce
from operator import itemgetter

from .degrees import (
    _as_degree,
    _c1_pairing,
    derived_parabolic,
    flag_dimension,
    peterson_lift,
    push_degree,
)
from .classical import classical_parabolic_invariant
from .quantum import BOREL, QClass, _Engine, _Memo, _engine, _finalized, _int_product
from .root_system import ParabolicSubset, RootSystem
from .weyl import WeylElement, _enumerate, longest_element, min_coset_rep


class ComparisonData(namedtuple("ComparisonData", "d_B j_prime w_prime d_pprime c1 shift")):
    """Everything needed to move one degree's invariants to the Borel level:
    the lift lambda_d (a coweight, as its tuple of simple-coroot
    coefficients), the derived parabolic P', its longest element w'_d, the
    pushed degree d'', the anticanonical pairing c_1(d) and the readout shift
    w'_d w_J."""

    __slots__ = ()


class _Context:
    """The data of one G/P that no Schubert class depends on.

    The coset basis is enumerated on first use only, so degree lifts still
    work on types whose Weyl group is too large to enumerate.  Every memo
    is a `quantum._Memo`, filled by its builder only: `degrees`, degree ->
    `ComparisonData`; `representatives`, basis position -> orbit
    representative; `orbit_maps`, minuscule node -> orbit map; and
    `_readout`, Borel key -> G/P key or -1 (`_read_key`).
    """

    def __init__(self, rs: RootSystem, parabolic: ParabolicSubset):
        self.rs = rs
        self.parabolic = parabolic
        self.flag_dimension = flag_dimension(rs, parabolic)
        self.w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
        self.w_J = longest_element(rs, parabolic)
        self.free = parabolic.free_nodes(rs.rank)
        self.degrees = _Memo(self._comparison_data)
        self.representatives = _Memo(self._representative)
        self.orbit_maps = _Memo(self._orbit_map)
        self._readout = _Memo(self._read_key)

    @cached_property
    def engine(self):
        return _engine(self.rs)

    @cached_property
    def ring(self):
        """The level solver whose tables hold this ring's products: the
        Borel engine at J = {}, else the instance on W^J, which reads the
        moves of its longer generators off the direct readout `rows`."""
        if not len(self.parabolic):
            return self.engine
        return _Engine(self.rs, self.parabolic, self._enumeration, self.c1_weights, self.rows)

    @cached_property
    def c1_weights(self):
        """c_1 of the unit degree at each free node; c_1 is linear in the
        degree, so c_1(d) is the sum of d_t times the t-th weight."""
        free = range(len(self.free))
        return [self.degrees[tuple(int(i == t) for i in free)].c1 for t in free]

    @cached_property
    def _enumeration(self):
        """`weyl._enumerate` of the parabolic, at J = {} the engine's own."""
        if not len(self.parabolic):
            eng = self.engine
            return eng.elements, eng.index, eng.left
        return _enumerate(self.rs, self.parabolic)

    # the minimal representatives by length, then by word
    basis = cached_property(lambda self: self._enumeration[0])
    # the basis position of each minimal representative, keyed by its
    # permutation: a lookup tests minimality
    position = cached_property(lambda self: self._enumeration[1])
    # per simple reflection s_i, the basis position of floor(s_i x) per
    # position x, read off the enumeration's products
    left = cached_property(lambda self: self._enumeration[2])

    @cached_property
    def borel_index(self):
        """The engine's element index of each basis element."""
        index = self.engine.index
        return [index[w.perm] for w in self.basis]

    @cached_property
    def dual(self):
        """Poincare duality on basis positions: the position of floor(w_o x)
        per position x."""
        return self._act(self.w_o.word)

    def _act(self, word):
        """The basis position of floor(w x) per position x, for w the product
        of the word: W acts on the cosets x W_J, so this composes the `left`
        maps, the last letter first."""
        image = tuple(range(len(self.basis)))
        for i in reversed(word):
            image = itemgetter(*image)(self.left[i - 1])
        return image

    def _comparison_data(self, degree):
        """The comparison data of a degree, given as the int tuple that
        `_as_degree` returns, the builder of `degrees`."""
        rs, parabolic = self.rs, self.parabolic
        lift = peterson_lift(rs, parabolic, degree)
        jp = derived_parabolic(rs, parabolic, lift)
        w_prime = longest_element(rs, jp)
        return ComparisonData(
            d_B=lift,
            j_prime=jp,
            w_prime=w_prime,
            d_pprime=push_degree(rs, jp, lift),
            c1=_c1_pairing(rs, parabolic, lift),
            shift=w_prime * self.w_J,
        )

    def _read_key(self, key):
        """The key in `ring` of the G/P term that the Borel term of `key`,
        q^lambda sigma_x, reads as, or -1 when it reads as none, the builder
        of `_readout`: q^d sigma_y when lambda is the lift of its
        restriction d and y = x w'_d w_J is a minimal representative.  The
        term must then keep the grading, l(y) + c_1(d) = l(x) + c_1(lambda),
        the Borel term's grade, which the engine checked; so a graded d has
        sum(d) <= dim G/P, and its key is q^d sigma_y's."""
        eng = self.engine
        pd, x = divmod(key, eng.size)
        lam = eng.degrees[pd]
        d = tuple(lam[i - 1] for i in self.free)
        cd = self.degrees[d]
        if lam != cd.d_B:
            return -1
        y = self.position.get(itemgetter(*cd.shift.perm)(eng.elements[x].perm), -1)
        if y < 0:
            return -1
        if self.basis[y].length + cd.c1 != eng.grades[key]:
            raise RuntimeError(f"G/P term {self.basis[y]!r} q^{d} breaks the grading")
        return self.ring.pack(d) * self.ring.size + y

    def rows(self, i, j):
        """The G/P product of the basis elements at positions i and j by the
        direct readout, as the int-keyed terms (key, c) of `ring`, sorted:
        each term of the Borel product that `_readout` reads as a G/P
        term, under that term's key."""
        readout, borel = self._readout, self.borel_index
        return sorted(
            (at, c)
            for key, c in _int_product(self.engine, borel[i], borel[j]).items()
            if (at := readout[key]) >= 0
        )

    @cached_property
    def seidel(self):
        """Per minuscule node k, the one whose alpha_k has coefficient 1 in
        the highest root, V_k = w_o w_{o,J_k}, J_k being every node but k.
        With the identity they form a group, P^vee/Q^vee, which acts on the
        basis by x -> floor(V_k x); it is trivial on E8, F4 and G2."""
        rs = self.rs
        top = max(rs.positive_roots, key=sum)
        nodes = range(1, rs.rank + 1)
        return {
            k: self.w_o * longest_element(rs, ParabolicSubset.of(i for i in nodes if i != k))
            for k in nodes
            if top[k - 1] == 1
        }

    def _representative(self, x):
        """(z, k) for the basis position x, the builder of
        `representatives`: z is the element of x's orbit, {x} and every
        floor(V_k^-1 x), that is least by (length, position), and k the
        minuscule node with x = floor(V_k z), or None when z = x.
        floor(V_k^-1 x) walks x through the `left` maps along V_k's word.
        Memoized per position, so a product of two factors builds no orbit
        map when both are their own representatives."""
        basis, left = self.basis, self.left
        got, least = (x, None), (basis[x].length, x)
        for k, v_k in self.seidel.items():
            z = reduce(lambda z, i: left[i - 1][z], v_k.word, x)
            if (basis[z].length, z) < least:
                got, least = (z, k), (basis[z].length, z)
        return got

    def _orbit_map(self, k):
        """(image, delta) of the minuscule node k, the builder of
        `orbit_maps`, per basis position z: the position of floor(V_k z),
        and the key delta of the map S_k:
        q^e sigma_z -> q^{e + delta_k(z)} sigma_{floor(V_k z)} on a term at
        z, that is the key delta of q^{delta_k(z)} plus floor(V_k z) - z, where
        delta_k(z) = omega_k^vee - z^-1 omega_k^vee restricted to the free
        nodes.  By the closed form of the module docstring, S_k is
        multiplication by sigma_{floor(V_k)}.  Ints only: the image composes
        the `left` maps along a reduced word of V_k, and the q-shift follows
        delta_k(s_i u) = delta_k(u) + [i = k] (u^-1 alpha_k)^vee down a left
        descent; minimal representatives are closed under removing one."""
        ring, left, basis, rs = self.ring, self.left, self.basis, self.rs
        image = self._act(self.seidel[k].word)
        g_k = rs._simple_global[k - 1]
        shift = [0] * ring.size
        for x in range(1, ring.size):
            i, u = next(
                (i, u) for i, u in enumerate(left) if ring.lengths[u[x]] < ring.lengths[x]
            )
            u = u[x]
            shift[x] = shift[u]
            if i == k - 1:
                coroot = rs.positive_coroots[basis[u].perm.index(g_k)]
                shift[x] += ring.pack([coroot[t - 1] for t in self.free]) * ring.size
        delta = tuple(s + y - z for z, (s, y) in enumerate(zip(shift, image)))
        return image, delta

    def int_terms(self, i, j):
        """The product of the basis elements at positions i and j, as the
        int-keyed terms (key, c) of `ring`, sorted, read off the product of
        their orbit representatives: with i = floor(V_k ri) and j =
        floor(V_l rj), sigma_i * sigma_j = q^{-delta_k(ri) - delta_l(rj)}
        S_k S_l (sigma_ri * sigma_rj).

        When both factors are their own representatives, these are the
        terms of their table, which `quantum._finalized` checked when they
        were solved.  Else one pass maps each term through S_l and then S_k,
        per map key -> key + delta[z] less the key delta of q^{delta_k(rep)}
        (`orbit_maps`); a key that would leave its class's position or go
        below zero is refused, not carried into another packed field.  The
        term is then checked for positivity and the grading l(y) + c_1(d) =
        l(i) + l(j) against the ring's memo of key grades, and a faulty one
        goes to `quantum._finalized`, which refuses it as it refuses a
        solved one.  The first faulty term is refused."""
        ring, reps, orbit_maps = self.ring, self.representatives, self.orbit_maps
        size, grades = ring.size, ring.grades
        ri, k = reps[i]
        rj, l = reps[j]
        table = _int_product(ring, ri, rj)
        maps = []  # per map, in the order applied: (image, delta, key delta of q^{delta_k(rep)})
        for m, rep in ((l, rj), (k, ri)):
            if m is not None:
                image, delta = orbit_maps[m]
                maps.append((image, delta, delta[rep] + rep - image[rep]))
        if not maps:
            return sorted(table.items())
        grade = ring.lengths[i] + ring.lengths[j]
        terms = []
        for key, c in table.items():
            z = key % size
            for image, delta, base in maps:
                y = image[z]
                key += delta[z] - base
                z = key % size
                if key < 0 or z != y:
                    raise RuntimeError(f"a derived term of {self.basis[y]!r} wraps its packed key")
            if c < 0 or grades[key] != grade:
                _finalized(ring, ((key, c),), grade)
            terms.append((key, c))
        terms.sort()
        return terms

    def times(self, a, b, product) -> dict:
        """Bilinear extension of `product`, `int_terms` or `rows`, to
        classes given as dicts {(basis position, degree): c}: each term c ca
        cb q^(d + da + db) sigma_y of a product of two terms is added into
        one dict.  The degrees stay tuples, since an iterated product can
        pass the degrees that a packed key holds."""
        term = self.ring.term
        out = {}
        for (i, da), ca in a.items():
            for (j, db), cb in b.items():
                for key, c in product(i, j):
                    y, d = term(key)
                    key = (y, tuple(map(sum, zip(d, da, db))))
                    out[key] = out.get(key, 0) + c * ca * cb
        return out

    def invariant(self, classes, degree) -> int:
        """Invariant of minimal representatives at an effective degree: 0 off
        the grading sum(l(w_i)) = dim G/P + c_1(d), else the coefficient of
        q^d on the dual of the last class in the G/P product of the others."""
        if sum(w.length for w in classes) != self.flag_dimension + self.degrees[degree].c1:
            return 0
        zero = (0,) * len(self.free)
        first, *middle, last = (self.position[w.perm] for w in classes)
        prod = {(first, zero): 1}
        for k in middle:
            prod = self.times(prod, {(k, zero): 1}, self.int_terms)
        return prod.get((self.dual[last], degree), 0)


@cache
def _context(rs: RootSystem, parabolic: ParabolicSubset) -> _Context:
    if not parabolic.free_nodes(rs.rank):
        raise ValueError("the full parabolic has no quantum parameters")
    return _Context(rs, parabolic)


def comparison_data(rs: RootSystem, parabolic: ParabolicSubset, degree) -> ComparisonData:
    """Lift a degree and package the derived parabolic, its longest element,
    the pushed degree, the anticanonical pairing and the readout shift."""
    degree = _as_degree(rs, parabolic, degree)
    if any(x < 0 for x in degree):
        raise ValueError(f"degree {degree} is not effective")
    return _context(rs, parabolic).degrees[degree]


def parabolic_gw_invariant(rs: RootSystem, parabolic: ParabolicSubset, classes, degree) -> int:
    """Genus-zero small invariant of G/P, computed at the Borel level.

    Coset classes may be given by any representatives; they are normalized to
    minimal ones.  Returns 0 for non-effective degrees and on grading failure.
    With four or more classes the value is the coefficient of q^d on the dual
    of the last class in the iterated product of the others, checked with
    the three-point grading; it is not the n-point genus-zero invariant.
    """
    rs.check_parabolic(parabolic)
    rs.check_elements(*classes)
    classes = [min_coset_rep(w, parabolic) for w in classes]
    if len(classes) < 3:
        raise ValueError("an invariant needs at least three classes")
    degree = _as_degree(rs, parabolic, degree)
    if any(x < 0 for x in degree):
        return 0
    return _context(rs, parabolic).invariant(classes, degree)


def gw_invariant(rs: RootSystem, classes, degree) -> int:
    """Genus-zero small invariant of the full flag variety, which is the G/P
    invariant at J = {}: 0 for a non-effective degree or off the grading
    sum(l(u_i)) = dim G/B + 2 sum(d_i), else the coefficient of q^degree on
    the dual of the last class in the product of the others.  With four or
    more classes that is the coefficient of the iterated product, checked
    with the three-point grading, not the n-point genus-zero invariant."""
    return parabolic_gw_invariant(rs, BOREL, classes, degree)


def quantum_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Quantum product of two Schubert classes on the full flag variety,
    which is the G/P product at J = {}."""
    return parabolic_quantum_product(rs, BOREL, u, v)


def parabolic_quantum_product(
    rs: RootSystem, parabolic: ParabolicSubset, u: WeylElement, v: WeylElement
) -> QClass:
    """Quantum product of two G/P Schubert classes in the coset basis, read
    off the W^J table of the later minimal representative.  At J = {} this
    is the Borel product."""
    return star(QClass.unit(rs, parabolic, u), QClass.unit(rs, parabolic, v))


def star(a: QClass, b: QClass) -> QClass:
    """Bilinear extension of the basis quantum product to arbitrary classes,
    in the ring of the full flag variety or of a G/P alike.  Coset classes
    may be given by any representatives; each term is moved to the basis
    position of its minimal one, and `_Context.times` multiplies there."""
    a._compatible(b)
    rs, parabolic = a.rs, a.parabolic
    ctx = _context(rs, parabolic)
    basis, position = ctx.basis, ctx.position

    def positions(qc):
        out = {}
        for (w, d), c in qc.terms.items():
            rs.check_elements(w)
            key = (position[min_coset_rep(w, parabolic).perm], d)
            out[key] = out.get(key, 0) + c
        return out

    prod = ctx.times(positions(a), positions(b), ctx.int_terms)
    return QClass(rs, parabolic, {(basis[y], d): c for (y, d), c in prod.items()})


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    """One audit outcome, as every `check` suite reports it."""

    __slots__ = ()


def check_comparison_consistency(
    rs: RootSystem, parabolic: ParabolicSubset, degree
) -> tuple:
    """Self-consistency audit at one degree: permutation symmetry of the
    invariants, factorization through the derived parabolic, and (at degree
    zero) agreement with the localization oracle.

    Every ordered triple (a, b, c) whose lengths add up to dim G/P + c_1(d)
    is audited.  Its value is the coefficient of q^d sigma_{dual(c)} in the
    product sigma_a * sigma_b, read off the `rows` of two basis positions.
    `rows(a, b)` and `rows(b, a)` read one Borel product, the table of the
    later factor, so each unordered pair is read once and each unordered
    triple {a, b, c} is visited once.  Its orderings take the values of
    sigma_a * sigma_b, sigma_a * sigma_c and sigma_b * sigma_c, which the
    symmetry check compares, and each value counts once per ordering it
    stands for, so every count is of ordered triples.  The value at the
    derived parabolic P' is read the same way off the rows at P' (a minimal
    representative mod J is one mod J' too), when d'' is graded there.  The
    localization oracle is symmetric in its classes, so it runs once per
    unordered triple.

    Returns a tuple of `CheckResult`s; a non-effective degree yields none.
    """
    return _consistency(rs, parabolic, degree, {})


def _read_pair(ctx, i, j, reads):
    """The rows of the unordered pair {i, j} in `ctx` as a dict {key: c},
    read on first use and kept in `reads` under (ctx, min, max): both orders
    read one Borel product."""
    key = (ctx, i, j) if i <= j else (ctx, j, i)
    got = reads.get(key)
    if got is None:
        got = reads[key] = dict(ctx.rows(*key[1:]))
    return got


def _consistency(rs, parabolic, degree, reads) -> tuple:
    """`check_comparison_consistency`, reading each unordered product
    through `reads`, which a caller may share across the degrees of one
    audit."""
    degree = _as_degree(rs, parabolic, degree)
    if any(x < 0 for x in degree):
        return ()
    ctx = _context(rs, parabolic)
    cd = ctx.degrees[degree]
    target = ctx.flag_dimension + cd.c1
    at_pprime = _context(rs, cd.j_prime)
    relift = at_pprime.degrees[cd.d_pprime]
    stable = relift.d_B == cd.d_B and relift.j_prime == cd.j_prime
    # every triple has length sum `target`, so the grading at P' is one test;
    # off it every value at P' is 0
    graded_pprime = target == at_pprime.flag_dimension + relift.c1
    basis, by_length = ctx.basis, ctx.ring.by_length
    # per class z, the key of q^d sigma_{dual(z)} in the rows at P, and that
    # of q^{d''} sigma_{dual(z)} at P'; only graded triples are looked up,
    # and a graded degree has sum(d) <= dim, so it packs into its fields
    at_d = ctx.ring.pack(degree) * ctx.ring.size
    dual_key = [at_d + y for y in ctx.dual]
    if graded_pprime:
        to_pprime = [at_pprime.position[w.perm] for w in basis]
        at_dpp = at_pprime.ring.pack(cd.d_pprime) * at_pprime.ring.size
        dual_key_pprime = [at_dpp + at_pprime.dual[k] for k in to_pprime]

    def value(x, y, z):
        """(at P, at P') of the ordered triples (x, y, z) and (y, x, z): both
        read the one product of the pair {x, y}."""
        at_p = _read_pair(ctx, x, y, reads).get(dual_key[z], 0)
        if not graded_pprime:
            return at_p, 0
        rows = _read_pair(at_pprime, to_pprime[x], to_pprime[y], reads)
        return at_p, rows.get(dual_key_pprime[z], 0)

    classical = not any(degree)
    graded = asymmetric = mismatched = off_classical = 0
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            for k in by_length.get(target - a.length - basis[j].length, ()):
                if k < j:
                    continue
                # per distinct third class of the triple i <= j <= k, its
                # value and its orderings: the other two in either order,
                # once when they are equal
                values = [(value(i, j, k), 1 + (i != j))]
                if j != k:
                    values.append((value(i, k, j), 2))
                if i != j:
                    values.append((value(j, k, i), 1 + (j != k)))
                orderings = sum(n for _, n in values)
                graded += orderings
                # the permutations of a graded triple are graded, so a class
                # whose values differ makes every one of its orderings
                # asymmetric
                if len({at_p for (at_p, _), _ in values}) > 1:
                    asymmetric += orderings
                mismatched += sum(n for (at_p, at_pp), n in values if at_p != at_pp)
                if classical:
                    expected = classical_parabolic_invariant(
                        rs, parabolic, [basis[i], basis[j], basis[k]]
                    )
                    off_classical += sum(n for (at_p, _), n in values if at_p != expected)

    entries = [
        CheckResult(
            "permutation-symmetry",
            asymmetric == 0,
            f"{graded} graded triples, {asymmetric} asymmetric",
        ),
        CheckResult(
            "derived-parabolic-factorization",
            stable and mismatched == 0,
            f"lift stable: {stable}; {graded} triples, {mismatched} mismatched",
        ),
    ]
    if classical:
        entries.append(
            CheckResult(
                "classical-degree-zero",
                off_classical == 0,
                f"{graded} triples, {off_classical} mismatched",
            )
        )
    return tuple(entries)
