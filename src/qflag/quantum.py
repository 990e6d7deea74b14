"""Small quantum cohomology of the full flag variety in the Schubert basis.

Divisor classes multiply by the quantum Chevalley rule.  A product by a class
of length k >= 2 is recovered from the divisor rule: the products of all
length-k classes with a fixed right factor satisfy one linear equation per
(divisor, length-(k-1) class) pair, with right-hand sides known by induction,
and the system has full column rank because divisors generate the cohomology.
Its matrix of classical Chevalley coefficients depends only on the root system
and k, so it is factored once per (root system, length): an exact sparse left
inverse, each column stored as integers over one common denominator.  For each
right factor the inverse is applied to the right-hand sides, the result is
divided exactly (a remainder is an error), and every row of the system is
checked.  Everything is integer arithmetic, with Fractions only inside the
factorization; no floats anywhere.  The recursion has one mode, the quantum
one: the cup product is computed apart from it, by localization, in
`classical.py`.

Products are memoized per right factor, in one engine per root system.  The
caches live as long as the root system, and `build_root_system` interns one
per Cartan type, so memory is bounded by the number of types used.  The
caches are not locked: confine an engine to one thread, or give a thread a
private engine by constructing its own `RootSystem(...)` directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

from .root_system import ParabolicSubset, RootSystem
from .weyl import (
    WeylElement,
    enumerate_min_reps,
    format_word,
    identity,
)

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
    def zero(cls, rs, parabolic=BOREL):
        return cls(rs, parabolic, {})

    @classmethod
    def unit(cls, rs, parabolic, w, degree=None):
        r = rs.rank - len(parabolic)
        d = (0,) * r if degree is None else tuple(degree)
        return cls(rs, parabolic, {(w, d): 1})

    def _compatible(self, other):
        if self.parabolic != other.parabolic or self.rs.cartan != other.rs.cartan:
            raise ValueError("classes live in different rings")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return QClass(self.rs, self.parabolic, out)

    def __sub__(self, other):
        self._compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return QClass(self.rs, self.parabolic, out)

    def scale(self, c):
        return QClass(self.rs, self.parabolic, {k: c * v for k, v in self.terms.items()})

    def shift(self, delta):
        """Multiply by the q-monomial with the given degree vector."""
        return QClass(
            self.rs,
            self.parabolic,
            {
                (w, tuple(a + b for a, b in zip(d, delta))): c
                for (w, d), c in self.terms.items()
            },
        )

    def classical_part(self):
        return QClass(
            self.rs,
            self.parabolic,
            {(w, d): c for (w, d), c in self.terms.items() if not any(d)},
        )

    def coefficient(self, w, degree) -> int:
        return self.terms.get((w, tuple(degree)), 0)

    def is_zero(self) -> bool:
        return not self.terms

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
    def __init__(self, rs):
        self.rs = rs
        elements = enumerate_min_reps(rs, BOREL)
        # one instance per element, so that dict keys built from moves
        # compare by identity
        self.canonical = {w: w for w in elements}
        self.by_length = {}
        for w in elements:
            self.by_length.setdefault(w.length, []).append(w)
        self.reflections = tuple(
            WeylElement(rs, rs.reflection_perm(g)) for g in range(rs.npos)
        )
        self.moves = {}
        self.chev = {}
        self.tables = {}
        self.levels = {}


@cache
def _engine(rs) -> _Engine:
    return _Engine(rs)


def _moves(eng, w):
    """Positive roots split by how the reflection changes the length of w:
    up by one (classical Chevalley moves) or down by <2 rho, coroot> - 1
    (quantum moves)."""
    m = eng.moves.get(w)
    if m is None:
        classical, quantum = [], []
        lw = w.length
        for g, cor in enumerate(eng.rs.positive_coroots):
            ws = w * eng.reflections[g]
            lws = ws.length
            if lws == lw + 1:
                classical.append((cor, eng.canonical[ws]))
            elif lws == lw + 1 - 2 * sum(cor):
                quantum.append((cor, eng.canonical[ws]))
        m = (tuple(classical), tuple(quantum))
        eng.moves[w] = m
    return m


def chevalley_multiply(rs: RootSystem, i: int, w: WeylElement) -> QClass:
    """Quantum Chevalley rule: the i-th divisor class times the class of w.

    sigma_{s_i} * sigma_w
        = sum_{alpha: l(w s_a) = l(w)+1} <omega_i, alpha^v> sigma_{w s_a}
        + sum_{alpha: l(w s_a) = l(w)+1-<2rho, alpha^v>}
              <omega_i, alpha^v> q^{alpha^v} sigma_{w s_a}

    over positive roots alpha.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"divisor index {i} out of range for {rs.cartan_type}")
    eng = _engine(rs)
    key = (i, w)
    got = eng.chev.get(key)
    if got is None:
        zero = (0,) * rs.rank
        terms = {}
        cmoves, qmoves = _moves(eng, w)
        for cor, ws in cmoves:
            c = cor[i - 1]
            if c:
                terms[(ws, zero)] = terms.get((ws, zero), 0) + c
        for cor, ws in qmoves:
            c = cor[i - 1]
            if c:
                terms[(ws, cor)] = terms.get((ws, cor), 0) + c
        got = QClass(rs, BOREL, terms)
        eng.chev[key] = got
    return got


def _finalized(rs, terms, grade):
    """Check positivity and the grading of integer terms, as a QClass."""
    for (w, d), c in terms.items():
        if c < 0:
            raise RuntimeError(f"negative structure constant {c} at {w}")
        if any(x < 0 for x in d):
            raise RuntimeError(f"negative q-degree {d} at {w}")
        if w.length + 2 * sum(d) != grade:
            raise RuntimeError(
                f"grading violation: term ({format_word(w.word)}, {d}) in a "
                f"degree-{grade} product"
            )
    return QClass(rs, BOREL, terms)


def _axpy(y, f, x):
    """y += f * x on sparse dicts, dropping the entries that cancel."""
    for key, a in x.items():
        c = y.get(key, 0) + f * a
        if c:
            y[key] = c
        else:
            y.pop(key, None)


def _left_inverse(rows, ncols):
    """Exact left inverse of a full-column-rank integer matrix.

    `rows` gives each row as sparse (column, int) pairs.  Gauss-Jordan over
    dict rows, pivoting on the first remaining row with a nonzero entry in
    the column, tracks each row as a combination of the input rows.  Returns,
    per column, a common denominator `den` and integer (row, coefficient)
    pairs with den * x[column] = sum coefficient * b[row] whenever A x = b.
    """
    m = [{col: Fraction(a) for col, a in row} for row in rows]
    comb = [{r: Fraction(1)} for r in range(len(rows))]
    for col in range(ncols):
        piv = next((r for r in range(col, len(m)) if col in m[r]), None)
        if piv is None:
            raise RuntimeError("recursion system is rank deficient")
        m[col], m[piv] = m[piv], m[col]
        comb[col], comb[piv] = comb[piv], comb[col]
        inv = 1 / m[col][col]
        pivot = m[col] = {c: a * inv for c, a in m[col].items()}
        pcomb = comb[col] = {r: a * inv for r, a in comb[col].items()}
        for r, row in enumerate(m):
            f = row.get(col)
            if f and r != col:
                _axpy(row, -f, pivot)
                _axpy(comb[r], -f, pcomb)
    inverse = []
    for terms in comb[:ncols]:
        den = lcm(*(a.denominator for a in terms.values()))
        inverse.append((den, tuple((r, int(a * den)) for r, a in sorted(terms.items()))))
    return tuple(inverse)


def _level(eng, k):
    """The length-k system shared by every right factor: one row per (w' of
    length k-1, divisor i) holding the classical Chevalley coefficients of
    sigma_{s_i} * sigma_{w'} as sparse (column, int) pairs over the length-k
    elements, and its exact left inverse."""
    got = eng.levels.get(k)
    if got is None:
        pos = {w: t for t, w in enumerate(eng.by_length[k])}
        rows = tuple(
            tuple((pos[ws], cor[i]) for cor, ws in _moves(eng, wp)[0] if cor[i])
            for wp in eng.by_length[k - 1]
            for i in range(eng.rs.rank)
        )
        got = (rows, _left_inverse(rows, len(pos)))
        eng.levels[k] = got
    return got


def _right_hand_sides(eng, by, prev):
    """Per row (w', i) of the level system: sigma_{s_i} * (sigma_{w'} *
    sigma_v) minus the quantum moves of w', as plain dicts."""
    rs = eng.rs
    rhs = []
    for wp in prev:
        known = by[wp].terms.items()
        qmoves = _moves(eng, wp)[1]
        for i in range(1, rs.rank + 1):
            b = {}
            for (x, d), c in known:
                for (y, d2), c2 in chevalley_multiply(rs, i, x).terms.items():
                    key = (y, tuple(map(add, d, d2)))
                    b[key] = b.get(key, 0) + c * c2
            for cor, ws in qmoves:
                a = cor[i - 1]
                if a:
                    for (y, d), c in by[ws].terms.items():
                        key = (y, tuple(map(add, d, cor)))
                        b[key] = b.get(key, 0) - a * c
            rhs.append(b)
    return rhs


def _solve_level(eng, by, k):
    """sigma_w * sigma_v for every w of length k: the level's left inverse
    applied to the right-hand sides, divided exactly, then checked against
    every row of the system."""
    level, prev = eng.by_length[k], eng.by_length[k - 1]
    rows, inverse = _level(eng, k)
    rhs = _right_hand_sides(eng, by, prev)
    sol = []
    for w, (den, comb) in zip(level, inverse):
        acc = {}
        for r, a in comb:
            for key, c in rhs[r].items():
                acc[key] = acc.get(key, 0) + a * c
        x = {}
        for key, c in acc.items():
            q, rem = divmod(c, den)
            if rem:
                raise RuntimeError(
                    f"non-integer structure constant {Fraction(c, den)} at {w}"
                )
            if q:
                x[key] = q
        sol.append(x)
    for r, (row, b) in enumerate(zip(rows, rhs)):
        residual = dict(b)
        for col, a in row:
            for key, c in sol[col].items():
                residual[key] = residual.get(key, 0) - a * c
        if any(residual.values()):
            wp, i = prev[r // eng.rs.rank], r % eng.rs.rank + 1
            raise RuntimeError(
                f"recursion system is inconsistent on row "
                f"({format_word(wp.word)}, {i})"
            )
    return zip(level, sol)


def _products(rs, v, upto):
    """Fill the per-v cache with sigma_w * sigma_v for all lengths <= upto."""
    eng = _engine(rs)
    slot = eng.tables.get(v)
    if slot is None:
        slot = {"upto": -1, "by": {}}
        eng.tables[v] = slot
    by = slot["by"]
    for k in range(slot["upto"] + 1, upto + 1):
        if k == 0:
            by[identity(rs)] = QClass.unit(rs, BOREL, v)
        elif k == 1:
            for w in eng.by_length.get(1, ()):
                by[w] = _finalized(
                    rs, chevalley_multiply(rs, w.word[0], v).terms, 1 + v.length
                )
        elif k in eng.by_length:
            for w, terms in _solve_level(eng, by, k):
                by[w] = _finalized(rs, terms, k + v.length)
        slot["upto"] = k
    return by


def quantum_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Quantum product of two Schubert classes on the full flag variety."""
    return _products(rs, v, u.length)[u]
