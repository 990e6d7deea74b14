"""Small quantum cohomology of the full flag variety in the Schubert basis.

Divisor classes multiply by the quantum Chevalley rule.  A product by a class
of length k >= 2 is recovered from the divisor rule: the products of all
length-k classes with a fixed right factor satisfy one linear equation per
(divisor, length-(k-1) class) pair, with right-hand sides known by induction,
and the system has full column rank because divisors generate the cohomology.
Everything is integer or Fraction arithmetic; no floats anywhere.

Products are memoized per right factor, in one engine per root system.  The
caches live as long as the root system, and `build_root_system` interns one
per Cartan type, so memory is bounded by the number of types used.  The
caches are not locked: confine an engine to one thread, or give a thread a
private engine by constructing its own `RootSystem(...)` directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

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

    Terms map (schubert element, degree vector) to a coefficient.  Finalized
    classes carry integers; Fractions appear only inside the recursion solver.
    """

    __slots__ = ("rs", "parabolic", "terms")

    def __init__(self, rs, parabolic, terms):
        self.rs = rs
        self.parabolic = parabolic
        clean = {}
        for key, c in terms.items():
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            if c != 0:
                clean[key] = c
        self.terms = clean

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
        self.by_length = {}
        for w in elements:
            self.by_length.setdefault(w.length, []).append(w)
        self.reflections = tuple(
            WeylElement(rs, rs.reflection_perm(g)) for g in range(rs.npos)
        )
        self.moves = {}
        self.chev = {}
        self.tables = {}


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
                classical.append((cor, ws))
            elif lws == lw + 1 - 2 * sum(cor):
                quantum.append((cor, ws))
        m = (tuple(classical), tuple(quantum))
        eng.moves[w] = m
    return m


def chevalley_multiply(rs: RootSystem, i: int, w: WeylElement, quantum=True) -> QClass:
    """Quantum Chevalley rule: the i-th divisor class times the class of w.

    sigma_{s_i} * sigma_w
        = sum_{alpha: l(w s_a) = l(w)+1} <omega_i, alpha^v> sigma_{w s_a}
        + sum_{alpha: l(w s_a) = l(w)+1-<2rho, alpha^v>}
              <omega_i, alpha^v> q^{alpha^v} sigma_{w s_a}

    over positive roots alpha.  With quantum=False only the first sum is kept.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"divisor index {i} out of range for {rs.cartan_type}")
    eng = _engine(rs)
    key = (i, w, quantum)
    got = eng.chev.get(key)
    if got is None:
        zero = (0,) * rs.rank
        terms = {}
        cmoves, qmoves = _moves(eng, w)
        for cor, ws in cmoves:
            c = cor[i - 1]
            if c:
                terms[(ws, zero)] = terms.get((ws, zero), 0) + c
        if quantum:
            for cor, ws in qmoves:
                c = cor[i - 1]
                if c:
                    terms[(ws, cor)] = terms.get((ws, cor), 0) + c
        got = QClass(rs, BOREL, terms)
        eng.chev[key] = got
    return got


def _divisor_times(rs, i, qc, quantum):
    out = {}
    for (x, d), c in qc.terms.items():
        for (y, d2), c2 in chevalley_multiply(rs, i, x, quantum).terms.items():
            key = (y, tuple(a + b for a, b in zip(d, d2)))
            out[key] = out.get(key, 0) + c * c2
    return QClass(rs, BOREL, out)


def _finalized(qc, grade):
    """Check integrality, positivity and the grading, and cast to int."""
    terms = {}
    for (w, d), c in qc.terms.items():
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise RuntimeError(f"non-integer structure constant {c} at {w}")
            c = int(c)
        if c < 0:
            raise RuntimeError(f"negative structure constant {c} at {w}")
        if any(x < 0 for x in d):
            raise RuntimeError(f"negative q-degree {d} at {w}")
        if w.length + 2 * sum(d) != grade:
            raise RuntimeError(
                f"grading violation: term ({format_word(w.word)}, {d}) in a "
                f"degree-{grade} product"
            )
        terms[(w, d)] = c
    return QClass(qc.rs, qc.parabolic, terms)


def _solve_full_column_rank(rows, rhs, ncols):
    """Exact Gauss-Jordan for an overdetermined consistent system whose
    right-hand sides are QClass-valued.  Raises on rank deficiency or on an
    inconsistent leftover row; both would mean an engine bug."""
    m = [[Fraction(x) for x in row] for row in rows]
    b = list(rhs)
    nrows = len(m)
    for col in range(ncols):
        piv = next((r for r in range(col, nrows) if m[r][col] != 0), None)
        if piv is None:
            raise RuntimeError("recursion system is rank deficient")
        m[col], m[piv] = m[piv], m[col]
        b[col], b[piv] = b[piv], b[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        b[col] = b[col].scale(inv)
        for r in range(nrows):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                b[r] = b[r] - b[col].scale(f)
    for r in range(ncols, nrows):
        if not b[r].is_zero():
            raise RuntimeError("recursion system is inconsistent on a discarded row")
    return b[:ncols]


def _products(rs, v, upto, quantum):
    """Fill the per-v cache with sigma_w * sigma_v for all lengths <= upto."""
    eng = _engine(rs)
    slot = eng.tables.get((v, quantum))
    if slot is None:
        slot = {"upto": -1, "by": {}}
        eng.tables[(v, quantum)] = slot
    by = slot["by"]
    for k in range(slot["upto"] + 1, upto + 1):
        if k == 0:
            by[identity(rs)] = QClass.unit(rs, BOREL, v)
        elif k == 1:
            for w in eng.by_length.get(1, ()):
                by[w] = _finalized(
                    chevalley_multiply(rs, w.word[0], v, quantum), 1 + v.length
                )
        else:
            level = eng.by_length.get(k, [])
            if level:
                prev = eng.by_length[k - 1]
                pos = {w: t for t, w in enumerate(level)}
                rows, rhs = [], []
                for wp in prev:
                    known = by[wp]
                    cmoves, qmoves = _moves(eng, wp)
                    for i in range(1, rs.rank + 1):
                        row = [0] * len(level)
                        for cor, ws in cmoves:
                            c = cor[i - 1]
                            if c:
                                row[pos[ws]] += c
                        bvec = _divisor_times(rs, i, known, quantum)
                        if quantum:
                            for cor, ws in qmoves:
                                c = cor[i - 1]
                                if c:
                                    bvec = bvec - by[ws].shift(cor).scale(c)
                        rows.append(row)
                        rhs.append(bvec)
                sol = _solve_full_column_rank(rows, rhs, len(level))
                for w, qc in zip(level, sol):
                    by[w] = _finalized(qc, k + v.length)
        slot["upto"] = k
    return by


def quantum_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Quantum product of two Schubert classes on the full flag variety."""
    by = _products(rs, v, u.length, True)
    return by[u]


def classical_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Cup product of two Schubert classes: the same recursion with every
    positive-degree term discarded throughout."""
    by = _products(rs, v, u.length, False)
    return by[u]
