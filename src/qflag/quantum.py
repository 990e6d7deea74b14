"""Small quantum cohomology in the Schubert basis, by one level solver.

The solver works over a basis graded by length and a few generator classes
g, given with their products sigma_g * sigma_x by every basis element x.  A
product by a class of length k >= 1 is recovered from them: the products of
all length-k classes with a fixed right factor v satisfy one linear equation
per (generator g, class w' of length k - l(g)) pair,

    sum_z a_z sigma_z * sigma_v
        = sigma_g * (sigma_{w'} * sigma_v) - sum c q^d sigma_y * sigma_v,

where the a_z sigma_z and the c q^d sigma_y are the classical and the
quantum terms of sigma_g * sigma_{w'}, and the right-hand side is known by
induction.  Its matrix of classical coefficients depends only on the ring
and k, so it is factored once per (ring, length) by fraction-free
Gauss-Jordan, pivoting each column on the sparsest row that holds it: an
exact sparse left inverse, each column stored as integers over its least
common denominator.  The same elimination picks the generators: levels are
factored in order, and a column that no remaining row holds pivots on the
unit row of its class, which becomes a generator of length k.  A generator
of length L has a unit row at level L (w' = e), so the same solve reads its
products off the right-hand sides.  The inverse reads one row per column,
a square block of the system, and is checked once, when it is factored, to
invert that block; so an exactly divided solution satisfies the rows it
reads, whatever the right-hand sides.  For each right factor the inverse is
applied to the right-hand sides, the result is divided exactly (a remainder
is an error), the residual of every row the inverse does not read is
checked, and every term is checked to be positive and graded: every row of
the system holds.  Everything is integer arithmetic; no Fractions
and no floats.  The recursion has one mode, the quantum one: the cup
product is computed apart from it, by localization, in `classical.py`.

There is one engine, `_Engine`, the ring of G/P on the minimal coset
representatives W^J; the full flag variety G/B is the case J = {}, whose
basis is the enumeration of W.  Level 1 has no rows, so the divisors
sigma_{s_i}, i a free node, are the first generators, and their products
are the quantum Chevalley rule on W^J (Fulton-Woodward, On the quantum
product of Schubert classes, J. Algebraic Geom. 13 (2004)), read off the
reflection maps x -> floor(s_beta x), which compose the enumeration's left
maps x -> floor(s_i x).  On G/B the divisors generate the cohomology, so no
later level adds a generator.  On G/P they need not: later levels add a few
classes, whose products the engine reads off the readout it is given;
`compare` gives it Peterson's comparison formula.

The recursion runs on ints.  Element x is its index in the basis, and the
term q^d sigma_x is the key pd * size + x, where pd packs sum(d) and then
the coordinates d_1, ..., d_r, each a digit in base B = dim + 1 below the
one before: pd = ((sum(d) B + d_1) B + ...) B + d_r.  The packing is
linear, so a generator move of x adds a fixed int to the key.  The grading
gives q_i the weight (c_1, d_i), which is 2 on G/B and at least 2 on every
G/P, and every term of a product of degree l(u) + l(v) <= 2 dim has l(x) +
(c_1, d) = l(u) + l(v); so sum(d) <= dim, no field of pd exceeds dim or
carries into the next, and keys sort by (sum(d), d, x), the order of
`QClass.sorted_terms`.  `degree` refuses a pd whose sum field is not the
sum of its coordinates, which is what a borrow or a carry between fields
leaves.  Terms become `QClass`es or (basis position, degree) dicts only on
the way out, in `compare._Context`, which reads both rings alike:
`quantum_product` is `parabolic_quantum_product` at J = {}.

Products are memoized per longer factor, in one engine per ring:
`_int_product` reads sigma_u * sigma_v off the table of whichever of u, v
comes later in the basis, and that table recurses only to the length of the
other, the shorter factor, so the two orders of a pair share one table.
Every product that a user sees comes through `compare._Context.int_terms`,
which calls it on the Seidel orbit representatives of the two factors only
and maps the terms back to the factors (see `compare.py`).  So only
representatives get tables, and the table of a representative z reaches
level l(z) at most.  Peterson's readout, and through it the moves of the
longer G/P generators, and the commutativity audit (`_oriented_product`)
read the plain tables of the factors they are given.  The caches live as
long as the root system, and `build_root_system` interns one per Cartan
type, so memory is bounded by the number of rings used.  The caches are not
locked: confine an engine to one thread, or give a thread a private engine
by constructing its own `RootSystem(...)` directly.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, cached_property
from math import gcd
from operator import itemgetter, mul

from .root_system import ParabolicSubset
from .weyl import _enumerate, format_word

BOREL = ParabolicSubset()


class QClass:
    """Finitely supported Z[q]-combination of Schubert classes.

    Terms map (schubert element, degree vector) to an integer coefficient;
    zero coefficients are dropped.
    """

    __slots__ = ("rs", "parabolic", "terms")

    def __init__(self, rs, parabolic, terms):
        self.rs = rs
        self.parabolic = parabolic
        self.terms = {key: c for key, c in terms.items() if c}

    @classmethod
    def unit(cls, rs, parabolic, w, degree=None):
        r = rs.rank - len(parabolic)
        d = (0,) * r if degree is None else tuple(degree)
        return cls(rs, parabolic, {(w, d): 1})

    def _compatible(self, other):
        if self.parabolic != other.parabolic or self.rs.cartan != other.rs.cartan:
            raise ValueError("classes live in different rings")

    def coefficient(self, w, degree) -> int:
        return self.terms.get((w, tuple(degree)), 0)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0][1]), kv[0][1], kv[0][0].length, kv[0][0].word),
        )

    def __eq__(self, other):
        return (
            isinstance(other, QClass)
            and self.parabolic == other.parabolic
            and self.rs.cartan == other.rs.cartan
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_qclass(self)

    def __repr__(self):
        return f"QClass({format_qclass(self)})"


def format_qclass(qc: QClass) -> str:
    """Deterministic human form: terms ordered by q-degree then word."""
    return format_terms(
        (format_word(w.word), d, c) for (w, d), c in qc.sorted_terms()
    )


def format_terms(rows) -> str:
    """Render (word, q-degree, coefficient) rows, in the order given, as
    `coeff * q1^a*q2^b * sigma[word]` with unit factors dropped."""
    bits = []
    for word, d, c in rows:
        parts = []
        if c != 1:
            parts.append(str(c))
        qpart = "*".join(
            f"q{t + 1}" if e == 1 else f"q{t + 1}^{e}" for t, e in enumerate(d) if e
        )
        if qpart:
            parts.append(qpart)
        if word != "e" or not parts:
            parts.append(f"sigma[{word}]")
        bits.append(" * ".join(parts))
    return " + ".join(bits) or "0"


class _Engine:
    """The int tables of the quantum ring of G/P for one parabolic J: the
    basis W^J as its enumeration lists it (`weyl._enumerate`; elements with
    a `length` and a `word`, ordered by length), their positions and the
    left maps x -> floor(s_i x) on positions, the move tables of the
    generators, the factored levels and the products per right factor, all
    keyed as the module docstring describes.  G/B is the case J = {}.

    Generators come in groups of one length, kept in `groups` by length as
    (length, generator positions, moves, qmoves), where per position x
    `moves[x]` holds per generator g the (key delta, coefficient) of each
    term of sigma_g * sigma_x, and `qmoves[x]` the quantum terms as
    (coefficient per generator, key delta of q^d, position).  `_grow` fills
    both lists: the divisors' by the quantum Chevalley rule, a longer
    group's off `readout(g, x)`, which gives sigma_g * sigma_x as sorted
    (key, c) terms; G/B, whose divisors generate, has no readout.  A new
    engine has no generators: `_level` adds each group as the factorization
    of its level finds it."""

    def __init__(self, rs, parabolic, enumeration, weights, readout=None):
        self.rs = rs
        self.parabolic = parabolic
        self.free = parabolic.free_nodes(rs.rank)
        self.elements, self.index, self.left = enumeration
        self.lengths = [w.length for w in self.elements]
        self.by_length = {}
        for x, lx in enumerate(self.lengths):
            self.by_length.setdefault(lx, []).append(x)
        self.size = len(self.elements)
        self.base = self.lengths[-1] + 1  # dim G/P + 1
        self.weights = tuple(weights)  # the grading weight (c_1, d_i) of q_i
        self.readout = readout
        self.groups = []
        self.reach = -1  # every move table covers the elements of length <= reach
        self.degrees = {}
        self.q_grades = {}  # packed degree of d -> c_1(d)
        self.grades = {}  # key of q^d sigma_y -> l(y) + c_1(d), once `_finalized` read it
        self.tables = {}
        self.levels = {}

    @property
    def generators(self):
        return tuple(g for _, gens, _, _ in self.groups for g in gens)

    def extend_moves(self, length):
        """Extend every group's move tables to every element of length <=
        `length`."""
        if length > self.reach:
            self.reach = length
            end = bisect_right(self.lengths, length)
            for group in self.groups:
                self._grow(group, end)

    def pack(self, d):
        """The int packing of a degree vector, sum(d) first, as `degree`
        reads it back."""
        pd = sum(d)
        for a in d:
            pd = pd * self.base + a
        return pd

    def degree(self, pd):
        """The degree vector packed as pd, memoized; a pd whose sum field is
        not the sum of its coordinates is refused."""
        d = self.degrees.get(pd)
        if d is None:
            digits, rest = [], pd
            for _ in self.weights:
                rest, a = divmod(rest, self.base)
                digits.append(a)
            d = tuple(reversed(digits))
            if rest != sum(d):
                raise RuntimeError(f"packed degree {pd} has sum field {rest} over coordinates {d}")
            self.degrees[pd] = d
        return d

    def term(self, key):
        """(y, d) for the key of the term q^d sigma_y."""
        pd, y = divmod(key, self.size)
        return y, self.degree(pd)

    @cached_property
    def reflections(self):
        """Per positive root beta, the position of floor(s_beta x) per
        position x.  A simple root's map is `left`; any other beta is s_j
        gamma for a positive root gamma of smaller height, and W acts on the
        cosets x W_J, so floor(s_beta x) = floor(s_j floor(s_gamma floor(s_j
        x))) composes the maps a whole column at a time."""
        rs, left = self.rs, self.left
        heights = [sum(alpha) for alpha in rs.positive_roots]
        maps = [None] * rs.npos
        for i, g in enumerate(rs._simple_global):
            maps[g] = left[i]
        for g in sorted(range(rs.npos), key=heights.__getitem__):
            if maps[g] is None:
                j, beta = next(
                    (j, perm[g]) for j, perm in enumerate(rs.simple_perms)
                    if heights[perm[g]] < heights[g]
                )
                maps[g] = itemgetter(*itemgetter(*left[j])(maps[beta]))(left[j])
        return maps

    def _grow(self, group, end):
        """Extend a group's move tables to the positions below `end`.  The
        moves of the divisors sigma_{s_i}, one per free node i in node
        order, as level 1 lists them, are the quantum Chevalley rule on W^J
        (Fulton-Woodward, On the quantum product of Schubert classes, J.
        Algebraic Geom. 13 (2004)): per position x and positive root alpha
        off the Levi, with y = floor(x s_alpha), sigma_{s_i} * sigma_x has
        the term alpha^vee_i sigma_y when l(y) = l(x) + 1, and alpha^vee_i
        q^{d(alpha)} sigma_y when l(y) = l(x) + 1 - c_1(d(alpha)), d(alpha)
        being alpha^vee on the free nodes.  A longer generator g's moves are
        the terms of `readout(g, x)`.  The divisors generate H*(G/B), so
        without a readout a longer group means a level lost rank."""
        length, gens, moves_of, qmoves_of = group
        size = self.size
        if length != 1:
            if self.readout is None:
                raise RuntimeError("recursion system is rank deficient")
            for x in range(len(moves_of), end):
                rows = [self.readout(g, x) for g in gens]
                moves_of.append(tuple(tuple((key - x, c) for key, c in terms) for terms in rows))
                # each quantum term c q^d sigma_y of generator t, as the move
                # with coefficient c for t and 0 for the others
                qmoves_of.append(tuple(
                    (tuple(c if s == t else 0 for s in range(len(gens))), key - key % size, key % size)
                    for t, terms in enumerate(rows) for key, c in terms if key >= size
                ))
            return
        rs, lengths = self.rs, self.lengths
        # x s_alpha = s_{x(alpha)} x, and s_{-beta} = s_beta: per root index,
        # negative roots included, the map x -> floor(s_beta x)
        maps = self.reflections * 2
        levi = set(rs.parabolic_root_indices(self.parabolic))
        # per positive root alpha off the Levi: its index, the key delta of
        # q^{d(alpha)}, the length drop c_1(d(alpha)) - 1 of a quantum move,
        # d(alpha), which is also alpha^vee_i per divisor, and the divisors
        # (t, alpha^vee_i) it feeds
        roots = []
        for g, cor in enumerate(rs.positive_coroots):
            if g not in levi:
                d = tuple(cor[i - 1] for i in self.free)
                feeds = [(t, a) for t, a in enumerate(d) if a]
                roots.append((g, self.pack(d) * size, sum(map(mul, self.weights, d)) - 1, d, feeds))
        for x in range(len(moves_of), end):
            lx, perm = lengths[x], self.elements[x].perm
            per_divisor = [[] for _ in gens]
            qmoves = []
            for g, shift, drop, d, feeds in roots:
                y = maps[perm[g]][x]
                if lengths[y] == lx + 1:
                    delta = y - x
                elif lengths[y] == lx - drop:
                    delta = shift + y - x
                    qmoves.append((d, shift, y))
                else:
                    continue
                for t, a in feeds:
                    per_divisor[t].append((delta, a))
            moves_of.append(tuple(map(tuple, per_divisor)))
            qmoves_of.append(tuple(qmoves))


@cache
def _engine(rs) -> _Engine:
    """The ring of G/B, where the grading weight (c_1, alpha_i^vee) of each
    q_i is 2."""
    return _Engine(rs, BOREL, _enumerate(rs, BOREL), (2,) * rs.rank)


def _finalized(eng, terms, grade):
    """Check positivity and the grading of int-keyed terms, given as (key,
    c) pairs, caching each key's grade l(y) + c_1(d) in `eng.grades` and
    each degree's c_1(d) in `eng.q_grades`, which the misses share.  Every
    q-shift is an effective degree, so no degree coordinate goes negative; a
    carry or a borrow between packed fields leaves a sum field that `degree`
    refuses."""
    size, grades, q_grades = eng.size, eng.grades, eng.q_grades
    for key, c in terms:
        if c < 0:
            raise RuntimeError(f"negative structure constant {c} at {eng.elements[key % size]}")
        got = grades.get(key)
        if got is None:
            pd, x = divmod(key, size)
            q_grade = q_grades.get(pd)
            if q_grade is None:
                q_grade = q_grades[pd] = sum(map(mul, eng.weights, eng.degree(pd)))
            got = grades[key] = eng.lengths[x] + q_grade
        if got != grade:
            y, d = eng.term(key)
            raise RuntimeError(
                f"grading violation: term ({format_word(eng.elements[y].word)}, "
                f"{d}) in a degree-{grade} product"
            )


def _combine(s, y, f, x, holding=None, r=None):
    """y = s * y + f * x on sparse dicts, dropping the entries that cancel.
    With `holding`, the sets of rows that hold each key, row r's entries
    are kept in it as keys appear and cancel."""
    if s != 1:
        for key in y:
            y[key] *= s
    for key, a in x.items():
        c = f * a
        if key in y:
            c += y[key]
            if c:
                y[key] = c
            else:
                del y[key]
                if holding is not None:
                    holding[key].discard(r)
        elif c:
            y[key] = c
            if holding is not None:
                holding[key].add(r)


def _left_inverse(rows, ncols):
    """Exact left inverse of an integer matrix, completed to full column
    rank by unit rows.

    `rows` gives each row as sparse (column, int) pairs.  Fraction-free
    Gauss-Jordan over dict rows tracks each row as an integer combination of
    the input rows.  Each column pivots on the sparsest remaining row that
    holds it (fewest entries, then fewest combination entries; Markowitz,
    Management Sci. 3 (1957)), which keeps the inverse sparse, and is
    eliminated from the rows that hold it; an elimination step scales a row
    by the pivot and, when that scale is not 1, divides out the gcd of its
    entries.  A column that no remaining row holds leads no row of the
    echelon form of `rows`, so its unit row is appended as its pivot; these
    columns depend on the row space only, not on the pivot choices.  Returns
    (inverse, added columns in order), where the inverse gives, per column,
    the least denominator `den` and integer (row, coefficient) pairs with
    den * x[column] = sum coefficient * b[row] whenever A x = b, A being
    `rows` followed by the unit rows of the added columns.
    """
    m = [dict(row) for row in rows]
    comb = [{r: 1} for r in range(len(rows))]
    # the rows that hold each column, kept up to date as rows change
    holding = [set() for _ in range(ncols)]
    for r, row in enumerate(m):
        for key in row:
            holding[key].add(r)
    added = []
    for col in range(ncols):
        # in row order, so that a tie goes to the first sparsest row
        holders = sorted(holding[col])
        piv = min(
            (r for r in holders if r >= col),
            key=lambda r: (len(m[r]), len(comb[r])),
            default=None,
        )
        if piv is None:
            piv = len(m)
            added.append(col)
            m.append({col: 1})
            comb.append({piv: 1})
            holding[col].add(piv)
        pivot, pcomb = m[piv], comb[piv]
        p = pivot[col]
        for r in holders:
            if r == piv:
                continue
            row, rcomb = m[r], comb[r]
            f = row[col]
            g = gcd(p, f)
            scale = p // g
            _combine(scale, row, -f // g, pivot, holding, r)
            _combine(scale, rcomb, -f // g, pcomb)
            # a step that does not scale the row adds no common factor worth
            # a pass: the supports, and so the pivots, do not depend on it,
            # and the final normalization gives the same inverse
            g = 1 if scale == 1 else gcd(*row.values(), *rcomb.values())
            if g != 1:
                for vec in (row, rcomb):
                    for key in vec:
                        vec[key] //= g
        swapped = (col, piv) if piv != col else ()
        for r in swapped:
            for key in m[r]:
                holding[key].discard(r)
        m[col], m[piv] = m[piv], m[col]
        comb[col], comb[piv] = comb[piv], comb[col]
        for r in swapped:
            for key in m[r]:
                holding[key].add(r)
    inverse = []
    for col in range(ncols):
        den, terms = m[col][col], comb[col]
        g = gcd(den, *terms.values()) * (1 if den > 0 else -1)
        inverse.append((den // g, tuple((r, a // g) for r, a in sorted(terms.items()))))
    return tuple(inverse), added


def _level_rows(eng, k):
    """The rows of the length-k system, per generator group, w'-major and
    generator-minor: for each generator g of length l <= k and w' of length
    k - l, the classical coefficients of sigma_g * sigma_{w'} as sparse
    (column, int) pairs over the length-k elements."""
    first, size = eng.by_length[k][0], eng.size
    # a classical move keeps the key below size: its degree part is zero
    return tuple(
        tuple((x + delta - first, a) for delta, a in moves if x + delta < size)
        for length, _, moves_of, _ in eng.groups
        if length <= k
        for x in eng.by_length[k - length]
        for moves in moves_of[x]
    )


def _unread_rows(k, rows, inverse):
    """The rows of the length-k system that no column of its left inverse
    reads, once the inverse is checked: per column, sum_r comb[r] * rows[r]
    is den * e_col, and the rows read are one per column.  The read rows
    then form a square block A_P with L_P A_P = D, so A_P is invertible, and
    an exactly divided solution L_P b_P / D satisfies every read row for
    every right-hand side b; only the unread rows need a residual per right
    factor."""
    read = set()
    for col, (den, comb) in enumerate(inverse):
        product = {}
        for r, a in comb:
            read.add(r)
            for c, entry in rows[r]:
                product[c] = product.get(c, 0) + a * entry
        if {c: v for c, v in product.items() if v} != {col: den}:
            raise RuntimeError(f"left inverse of level {k} is not exact on column {col}")
    if len(read) != len(inverse):
        raise RuntimeError(
            f"left inverse of level {k} reads {len(read)} rows for {len(inverse)} columns"
        )
    return tuple(r for r in range(len(rows)) if r not in read)


def _level(eng, k):
    """The length-k system shared by every right factor, its exact left
    inverse and the rows the inverse does not read (`_unread_rows`).  Levels
    1..k-1 are built first, so the shorter generators are chosen by then;
    the classes of the columns that the factorization completes with unit
    rows become the generators of length k, and their unit rows, which
    `_level_rows` lists last and in the same order, join the system."""
    got = eng.levels.get(k)
    if got is None:
        for j in range(1, k):
            _level(eng, j)
        eng.extend_moves(k - 1)
        rows = _level_rows(eng, k)
        inverse, added = _left_inverse(rows, len(eng.by_length[k]))
        if added:
            group = (k, tuple(eng.by_length[k][c] for c in added), [], [])
            # its move tables as long as the other groups'
            eng._grow(group, bisect_right(eng.lengths, eng.reach))
            eng.groups.append(group)
            rows = _level_rows(eng, k)
        got = eng.levels[k] = (rows, inverse, _unread_rows(k, rows, inverse))
    return got


def _right_hand_sides(eng, by, k):
    """Per row (g, w') of the length-k system: sigma_g * (sigma_{w'} *
    sigma_v) minus the quantum terms of sigma_g * sigma_{w'} times the known
    products, as int-keyed dicts, in one pass over each sigma_{w'} * sigma_v
    per generator group."""
    size = eng.size
    rhs = []
    for length, gens, moves_of, qmoves_of in eng.groups:
        if length > k:
            break
        for wp in eng.by_length[k - length]:
            rows = [{} for _ in gens]
            for key, c in by[wp].items():
                for b, moves in zip(rows, moves_of[key % size]):
                    for delta, a in moves:
                        y = key + delta
                        b[y] = b.get(y, 0) + c * a
            for coefs, shift, ws in qmoves_of[wp]:
                for b, a in zip(rows, coefs):
                    if a:
                        for key, c in by[ws].items():
                            y = key + shift
                            b[y] = b.get(y, 0) - a * c
            rhs.extend(rows)
    return rhs


def _row_name(eng, k, r):
    """Row r of the length-k system as the words (w', g)."""
    for length, gens, _, _ in eng.groups:
        block = len(eng.by_length[k - length]) * len(gens)
        if r < block:
            wp, g = eng.by_length[k - length][r // len(gens)], gens[r % len(gens)]
            return format_word(eng.elements[wp].word), format_word(eng.elements[g].word)
        r -= block


def _solve_level(eng, by, k):
    """sigma_w * sigma_v for every w of length k, in index order: the level's
    left inverse applied to the right-hand sides, divided exactly, then
    checked against the rows the inverse does not read.  The rows it reads
    hold for every exact solution, as `_unread_rows` checked once, so every
    row of the system holds."""
    rows, inverse, unread = _level(eng, k)
    rhs = _right_hand_sides(eng, by, k)
    sol = []
    for x, (den, comb) in zip(eng.by_length[k], inverse):
        acc = {}
        for r, a in comb:
            for key, c in rhs[r].items():
                acc[key] = acc.get(key, 0) + a * c
        terms = {}
        for key, c in acc.items():
            q, rem = divmod(c, den)
            if rem:
                g = gcd(c, den)
                raise RuntimeError(
                    f"non-integer structure constant {c // g}/{den // g} "
                    f"at {eng.elements[x]}"
                )
            if q:
                terms[key] = q
        sol.append(terms)
    # the apply never reads an unread row's right-hand side, so its residual
    # is taken in place
    for r in unread:
        residual = rhs[r]
        for col, a in rows[r]:
            for key, c in sol[col].items():
                residual[key] = residual.get(key, 0) - a * c
        if any(residual.values()):
            wp, g = _row_name(eng, k, r)
            raise RuntimeError(f"recursion system is inconsistent on row ({wp}, {g})")
    return sol


def _products(eng, v, upto):
    """sigma_w * sigma_v as int-keyed terms, per element index w, for every w
    of length <= upto; the list grows by whole length levels and is kept per
    factor v (an element index)."""
    by = eng.tables.setdefault(v, [{v: 1}])
    lv = eng.lengths[v]
    # level k reads the moves of the terms of sigma_w * sigma_v with
    # l(w) <= k - 1, which have length at most k - 1 + l(v)
    eng.extend_moves(upto - 1 + lv)
    for k in range(eng.lengths[len(by) - 1] + 1, upto + 1):
        sol = _solve_level(eng, by, k)
        for terms in sol:
            _finalized(eng, terms.items(), k + lv)
        by.extend(sol)
    return by


def _oriented_product(eng, x, y):
    """sigma_x * sigma_y for element indices x, y, as int-keyed terms read
    off y's own table, which recurses to l(x).  The commutativity audit calls
    it both ways round, so that it compares two recursions."""
    return _products(eng, y, eng.lengths[x])[x]


def _int_product(eng, x, y):
    """sigma_x * sigma_y for element indices x, y, as the int-keyed terms of
    the table of the later one.  The ring is commutative, so both orders read
    that table: the later factor is never the shorter one, and its table
    recurses only to the shorter length.  A memo hit, a table that already
    reaches the earlier factor, is read directly; only a miss goes through
    `_oriented_product`.  The dict is the table's own."""
    if x > y:
        x, y = y, x
    by = eng.tables.get(y)
    if by is not None and x < len(by):
        return by[x]
    return _oriented_product(eng, x, y)
