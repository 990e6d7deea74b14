"""Small quantum cohomology of the full flag variety in the Schubert basis.

Divisor classes multiply by the quantum Chevalley rule.  A product by a class
of length k >= 1 is recovered from the divisor rule: the products of all
length-k classes with a fixed right factor satisfy one linear equation per
(divisor, length-(k-1) class) pair, with right-hand sides known by induction,
and the system has full column rank because divisors generate the cohomology.
Its matrix of classical Chevalley coefficients depends only on the root system
and k, so it is factored once per (root system, length) by fraction-free
Gauss-Jordan, pivoting each column on the sparsest row that holds it: an
exact sparse left inverse, each column stored as integers over its least
common denominator.  For each right factor the inverse is applied to the
right-hand sides, the result is divided exactly (a remainder is an error),
and every row of the system is checked.  Level 1 is the identity system, one
row (e, i) with the single entry 1 at s_i, so the same solve reads the
divisor products off its right-hand sides.  Everything is integer
arithmetic; no Fractions and no floats.  The recursion has one mode, the
quantum one: the cup product is computed apart from it, by localization, in
`classical.py`.

The recursion runs on ints.  Element x is its index in the length-graded
enumeration of W, and the term q^d sigma_x is the key pd * |W| + x, where pd
packs the degree d in base npos + 1.  A Chevalley move of x adds a fixed int
to the key.  In a product of degree l(u) + l(v) <= 2 npos, every term has
l(x) + 2 sum(d) = l(u) + l(v), so sum(d) <= npos and no coordinate of d
carries into the next.  Products become `QClass`es only on the way out.

Products are memoized per longer factor, in one engine per root system:
sigma_u * sigma_v is read off the table of whichever of u, v comes later in
the enumeration, and that table recurses only to the length of the other, the
shorter factor.  So the two orders of a pair share one table, and the table of
an element z reaches at most level l(z) unless the commutativity audit asks
for more.  The caches live as long as the root system, and
`build_root_system` interns one per Cartan type, so memory is bounded by the
number of types used.  The caches are not locked: confine an engine to one
thread, or give a thread a private engine by constructing its own
`RootSystem(...)` directly.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from math import gcd
from operator import itemgetter

from .root_system import ParabolicSubset, RootSystem
from .weyl import WeylElement, enumerate_min_reps, format_word

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
    """The int tables of one root system: the enumeration, its Chevalley
    moves, the factored levels and the products per right factor, all keyed
    as the module docstring describes."""

    def __init__(self, rs):
        self.rs = rs
        self.elements = enumerate_min_reps(rs, BOREL)
        self.index = {w.perm: x for x, w in enumerate(self.elements)}
        self.lengths = [w.length for w in self.elements]
        self.by_length = {}
        for x, lx in enumerate(self.lengths):
            self.by_length.setdefault(lx, []).append(x)
        self.size = len(self.elements)
        self.base = rs.npos + 1
        self.shifts = [itemgetter(*rs.reflection_perm(g)) for g in range(rs.npos)]
        self.chevalley, self.qmoves = [], []
        self.degrees = {}
        self.q_grades = {}  # packed degree -> 2 sum(d)
        self.tables = {}
        self.levels = {}

    def extend_moves(self, length):
        """Extend the move tables to every element of length <= `length`.
        Per element x: per divisor i, the (key delta, coefficient) of each
        term of sigma_{s_i} * sigma_x; and the quantum moves of x as
        (coroot, key delta of q^coroot, element index)."""
        index, lengths, rank = self.index, self.lengths, self.rs.rank
        for x in range(len(self.chevalley), bisect_right(lengths, length)):
            perm, lx = self.elements[x].perm, lengths[x]
            per_divisor = [[] for _ in range(rank)]
            qmoves = []
            for shift_by, cor in zip(self.shifts, self.rs.positive_coroots):
                y = index[shift_by(perm)]
                if lengths[y] == lx + 1:
                    delta = y - x
                elif lengths[y] == lx + 1 - 2 * sum(cor):
                    pd = sum(a * self.base**t for t, a in enumerate(cor))
                    shift = pd * self.size
                    delta = shift + y - x
                    qmoves.append((cor, shift, y))
                else:
                    continue
                for i, a in enumerate(cor):
                    if a:
                        per_divisor[i].append((delta, a))
            self.chevalley.append(tuple(map(tuple, per_divisor)))
            self.qmoves.append(tuple(qmoves))

    def degree(self, pd):
        """The degree vector packed as pd, memoized."""
        d = self.degrees.get(pd)
        if d is None:
            digits, rest = [], pd
            for _ in range(self.rs.rank):
                rest, a = divmod(rest, self.base)
                digits.append(a)
            d = self.degrees[pd] = tuple(digits)
        return d


@cache
def _engine(rs) -> _Engine:
    return _Engine(rs)


def _finalized(eng, terms, grade):
    """Check positivity and the grading of int-keyed terms, and return them.
    Every q-shift is a positive coroot, so no degree coordinate goes
    negative; a carry out of a packed coordinate would lower sum(d) by npos
    and break the grading."""
    size, lengths, q_grades = eng.size, eng.lengths, eng.q_grades
    for key, c in terms.items():
        pd, x = divmod(key, size)
        if c < 0:
            raise RuntimeError(f"negative structure constant {c} at {eng.elements[x]}")
        q_grade = q_grades.get(pd)
        if q_grade is None:
            q_grade = q_grades[pd] = 2 * sum(eng.degree(pd))
        if lengths[x] + q_grade != grade:
            raise RuntimeError(
                f"grading violation: term ({format_word(eng.elements[x].word)}, "
                f"{eng.degree(pd)}) in a degree-{grade} product"
            )
    return terms


def _combine(s, y, f, x):
    """y = s * y + f * x on sparse dicts, dropping the entries that cancel."""
    if s != 1:
        for key in y:
            y[key] *= s
    for key, a in x.items():
        c = y.get(key, 0) + f * a
        if c:
            y[key] = c
        else:
            y.pop(key, None)


def _left_inverse(rows, ncols):
    """Exact left inverse of a full-column-rank integer matrix.

    `rows` gives each row as sparse (column, int) pairs.  Fraction-free
    Gauss-Jordan over dict rows tracks each row as an integer combination of
    the input rows.  Each column pivots on the sparsest remaining row that
    holds it (fewest entries, then fewest combination entries; Markowitz,
    Management Sci. 3 (1957)), which keeps the inverse sparse, and is
    eliminated from the rows that hold it; an elimination step scales a row
    by the pivot and divides out the gcd of its entries.  Returns, per
    column, the least denominator `den` and integer (row, coefficient) pairs
    with den * x[column] = sum coefficient * b[row] whenever A x = b.
    """
    m = [dict(row) for row in rows]
    comb = [{r: 1} for r in range(len(rows))]
    for col in range(ncols):
        holders = [r for r, row in enumerate(m) if col in row]
        piv = min(
            (r for r in holders if r >= col),
            key=lambda r: (len(m[r]), len(comb[r])),
            default=None,
        )
        if piv is None:
            raise RuntimeError("recursion system is rank deficient")
        pivot, pcomb = m[piv], comb[piv]
        p = pivot[col]
        for r in holders:
            if r == piv:
                continue
            row, rcomb = m[r], comb[r]
            f = row[col]
            g = gcd(p, f)
            _combine(p // g, row, -f // g, pivot)
            _combine(p // g, rcomb, -f // g, pcomb)
            g = gcd(*row.values(), *rcomb.values())
            if g != 1:
                for vec in (row, rcomb):
                    for key in vec:
                        vec[key] //= g
        m[col], m[piv] = m[piv], m[col]
        comb[col], comb[piv] = comb[piv], comb[col]
    inverse = []
    for col in range(ncols):
        den, terms = m[col][col], comb[col]
        g = gcd(den, *terms.values()) * (1 if den > 0 else -1)
        inverse.append((den // g, tuple((r, a // g) for r, a in sorted(terms.items()))))
    return tuple(inverse)


def _level(eng, k):
    """The length-k system shared by every right factor: one row per (w' of
    length k-1, divisor i) holding the classical Chevalley coefficients of
    sigma_{s_i} * sigma_{w'} as sparse (column, int) pairs over the length-k
    elements, and its exact left inverse."""
    got = eng.levels.get(k)
    if got is None:
        eng.extend_moves(k - 1)
        first = eng.by_length[k][0]
        # a classical move keeps the key below |W|: its degree part is zero
        rows = tuple(
            tuple((x + delta - first, a) for delta, a in moves if x + delta < eng.size)
            for x in eng.by_length[k - 1]
            for moves in eng.chevalley[x]
        )
        got = (rows, _left_inverse(rows, len(eng.by_length[k])))
        eng.levels[k] = got
    return got


def _right_hand_sides(eng, by, k):
    """Per row (w', i) of the length-k system: sigma_{s_i} * (sigma_{w'} *
    sigma_v) minus the quantum moves of w', as int-keyed dicts."""
    size, chevalley = eng.size, eng.chevalley
    rhs = []
    for wp in eng.by_length[k - 1]:
        rows = [{} for _ in range(eng.rs.rank)]
        for key, c in by[wp].items():
            for b, moves in zip(rows, chevalley[key % size]):
                for delta, a in moves:
                    y = key + delta
                    b[y] = b.get(y, 0) + c * a
        for cor, shift, ws in eng.qmoves[wp]:
            for b, a in zip(rows, cor):
                if a:
                    for key, c in by[ws].items():
                        y = key + shift
                        b[y] = b.get(y, 0) - a * c
        rhs.extend(rows)
    return rhs


def _solve_level(eng, by, k):
    """sigma_w * sigma_v for every w of length k, in index order: the level's
    left inverse applied to the right-hand sides, divided exactly, then
    checked against every row of the system."""
    rows, inverse = _level(eng, k)
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
    # the apply has read every right-hand side, so each row's residual is
    # taken in place
    for r, (row, residual) in enumerate(zip(rows, rhs)):
        for col, a in row:
            for key, c in sol[col].items():
                residual[key] = residual.get(key, 0) - a * c
        if any(residual.values()):
            wp = eng.elements[eng.by_length[k - 1][r // eng.rs.rank]]
            raise RuntimeError(
                f"recursion system is inconsistent on row "
                f"({format_word(wp.word)}, {r % eng.rs.rank + 1})"
            )
    return sol


def _products(eng, v, upto):
    """sigma_w * sigma_v as int-keyed terms, per element index w, for every w
    of length <= upto; the list grows by whole length levels and is kept per
    factor v (an element index)."""
    by = eng.tables.setdefault(v, [{v: 1}])
    lv = eng.lengths[v]
    # level k reads the moves of the terms of sigma_w * sigma_v with
    # l(w) = k - 1, which have length at most k - 1 + l(v)
    eng.extend_moves(upto - 1 + lv)
    for k in range(eng.lengths[len(by) - 1] + 1, upto + 1):
        by.extend(_finalized(eng, terms, k + lv) for terms in _solve_level(eng, by, k))
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
    recurses only to the shorter length.  The dict is the table's own."""
    if x > y:
        x, y = y, x
    return _products(eng, y, eng.lengths[x])[x]


def quantum_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Quantum product of two Schubert classes on the full flag variety."""
    eng = _engine(rs)
    terms = _int_product(eng, eng.index[u.perm], eng.index[v.perm])
    return QClass(rs, BOREL, {
        (eng.elements[key % eng.size], eng.degree(key // eng.size)): c
        for key, c in terms.items()
    })
