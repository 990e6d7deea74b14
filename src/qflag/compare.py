"""Gromov-Witten invariants and quantum products of G/P through the Borel
engine.

Peterson's comparison formula: for an effective degree d of G/P with
alcove-reduced lift lambda_d, derived parabolic P' and longest element w'_d
of its Levi Weyl group,

    <sigma_u, sigma_v, sigma_w>_d (G/P) = <sigma_u, sigma_v, sigma_{w w'_d}>_{lambda_d} (G/B)

for minimal coset representatives u, v, w.  The right side is the
coefficient of q^{lambda_d} sigma_{w_o w w'_d} in the Borel product
sigma_u * sigma_v, so every product, invariant and audit value here is one
readout: `_Context.borel_key` names that coefficient and
`_Context.invariant` reads it.  The Borel ring is the case J = {} of the
same readout (lambda_d = d, w'_d = e), so `gw_invariant` and `star` need no
route of their own.

Everything that depends only on (root system, parabolic) and the degree is
built once, in a memoized context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations, product as iter_product

from .degrees import (
    CurveClass,
    _c1_pairing,
    derived_parabolic,
    flag_dimension,
    is_effective,
    peterson_lift,
    push_degree,
)
from .quantum import BOREL, QClass, classical_product, quantum_product
from .root_system import ParabolicSubset, RootSystem
from .weyl import WeylElement, enumerate_min_reps, longest_element, min_coset_rep


@dataclass(frozen=True)
class ComparisonData:
    """Everything needed to move one degree's invariants to the Borel level."""

    d_B: CurveClass
    j_prime: ParabolicSubset
    w_prime: WeylElement
    d_pprime: tuple

    def __post_init__(self):
        if not set(self.j_prime.indices) <= set(self.d_B.parabolic.indices):
            raise RuntimeError("derived parabolic escaped the original one")


class _Context:
    """The data of one G/P that no Schubert class depends on.

    The coset basis is enumerated on first use only, so degree lifts still
    work on types whose Weyl group is too large to enumerate.
    """

    def __init__(self, rs: RootSystem, parabolic: ParabolicSubset):
        self.rs = rs
        self.parabolic = parabolic
        self.flag_dimension = flag_dimension(rs, parabolic)
        self.w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
        self._degrees = {}

    @cached_property
    def basis(self):
        return enumerate_min_reps(self.rs, self.parabolic)

    @cached_property
    def by_length(self):
        by_len = {}
        for w in self.basis:
            by_len.setdefault(w.length, []).append(w)
        return by_len

    @cached_property
    def dual(self):
        """Poincare duality on the basis: w -> min_coset_rep(w_o w)."""
        return {w: min_coset_rep(self.w_o * w, self.parabolic) for w in self.basis}

    @cached_property
    def weights(self):
        """Anticanonical pairing of each unit degree."""
        r = len(self.parabolic.free_nodes(self.rs.rank))
        weights = tuple(
            self.degree(tuple(int(s == t) for s in range(r)))[1] for t in range(r)
        )
        if any(wt < 1 for wt in weights):
            raise RuntimeError("anticanonical weight must be positive")
        return weights

    def degree(self, degree):
        """(ComparisonData, anticanonical pairing) of a degree, memoized."""
        key = tuple(int(x) for x in degree)
        got = self._degrees.get(key)
        if got is None:
            rs, parabolic = self.rs, self.parabolic
            lift = peterson_lift(rs, parabolic, key)
            jp = derived_parabolic(rs, parabolic, lift.lam)
            cd = ComparisonData(
                d_B=lift,
                j_prime=jp,
                w_prime=longest_element(rs, jp),
                d_pprime=push_degree(rs, jp, lift.lam),
            )
            got = (cd, _c1_pairing(rs, parabolic, lift.lam))
            self._degrees[key] = got
        return got

    def borel_key(self, w, degree):
        """Where Peterson's formula reads the class of w at a degree: the
        Borel element w_o w w'_d and the coweight lambda_d."""
        cd = self.degree(degree)[0]
        return self.w_o * w * cd.w_prime, cd.d_B.lam

    def invariant(self, classes, degree) -> int:
        """Invariant of minimal representatives at an effective degree: 0 off
        the grading sum(l(w_i)) = dim G/P + c_1(d), else the coefficient at
        the Borel key of the last class in the Borel product of the others."""
        if sum(w.length for w in classes) != self.flag_dimension + self.degree(degree)[1]:
            return 0
        rs = self.rs
        prod = quantum_product(rs, classes[0], classes[1])
        for w in classes[2:-1]:
            prod = star(prod, QClass.unit(rs, BOREL, w))
        return prod.coefficient(*self.borel_key(classes[-1], degree))


@cache
def _context(rs: RootSystem, parabolic: ParabolicSubset) -> _Context:
    return _Context(rs, parabolic)


def comparison_data(rs: RootSystem, parabolic: ParabolicSubset, degree) -> ComparisonData:
    """Lift a degree and package the derived parabolic, its longest element
    and the pushed degree."""
    if not is_effective(rs, parabolic, degree):
        raise ValueError(f"degree {tuple(degree)} is not effective")
    return _context(rs, parabolic).degree(degree)[0]


def class_lift(rs: RootSystem, parabolic: ParabolicSubset, w: WeylElement) -> WeylElement:
    """Index map of the Schubert-class pullback: the minimal representative."""
    return min_coset_rep(w, parabolic)


def class_pushforward(rs: RootSystem, parabolic: ParabolicSubset, w: WeylElement):
    """Index map of the Schubert-class pushforward: the coset representative
    when w factors as (minimal rep) * (longest Levi element), else None."""
    rs.check_parabolic(parabolic)
    rep = min_coset_rep(w, parabolic)
    if w.length == rep.length + longest_element(rs, parabolic).length:
        return rep
    return None


def anticanonical_pairing(rs: RootSystem, parabolic: ParabolicSubset, degree) -> int:
    """(c_1(G/P), d), evaluated through the alcove-reduced lift."""
    return _context(rs, parabolic).degree(degree)[1]


def parabolic_gw_invariant(rs: RootSystem, parabolic: ParabolicSubset, classes, degree) -> int:
    """Genus-zero small invariant of G/P, computed at the Borel level.

    Coset classes may be given by any representatives; they are normalized to
    minimal ones.  Returns 0 for non-effective degrees and on grading failure.
    With four or more classes the value is the coefficient of q^d on the dual
    of the last class in the iterated product of the others, checked with
    the three-point grading; it is not the n-point genus-zero invariant.
    """
    rs.check_parabolic(parabolic)
    classes = [min_coset_rep(w, parabolic) for w in classes]
    if len(classes) < 3:
        raise ValueError("an invariant needs at least three classes")
    if not is_effective(rs, parabolic, degree):
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


def parabolic_quantum_product(
    rs: RootSystem, parabolic: ParabolicSubset, u: WeylElement, v: WeylElement
) -> QClass:
    """Quantum product of two G/P Schubert classes in the coset basis, read
    off the Borel product of their minimal representatives.  At J = {} it is
    the Borel product itself.

    The degree sum is finite: only effective degrees whose anticanonical
    pairing is at most l(u) + l(v) can contribute, by the grading.
    """
    if not len(parabolic):
        return quantum_product(rs, u, v)
    ctx = _context(rs, parabolic)
    if not parabolic.free_nodes(rs.rank):
        raise ValueError("the full parabolic has no quantum parameters")
    u = min_coset_rep(u, parabolic)
    v = min_coset_rep(v, parabolic)
    by_length = ctx.by_length
    borel = quantum_product(rs, u, v)
    bound = u.length + v.length
    terms = {}
    for d in iter_product(*(range(bound // wt + 1) for wt in ctx.weights)):
        c1d = ctx.degree(d)[1]
        for w in by_length.get(ctx.flag_dimension + c1d - bound, ()):
            c = borel.coefficient(*ctx.borel_key(w, d))
            if c:
                terms[(ctx.dual[w], d)] = c
    return QClass(rs, parabolic, terms)


def star(a: QClass, b: QClass) -> QClass:
    """Bilinear extension of the basis quantum product to arbitrary classes,
    in the ring of the full flag variety or of a G/P alike."""
    a._compatible(b)
    rs, parabolic = a.rs, a.parabolic
    out = QClass.zero(rs, parabolic)
    for (x, dx), cx in a.terms.items():
        for (y, dy), cy in b.terms.items():
            piece = parabolic_quantum_product(rs, parabolic, x, y)
            out = out + piece.shift(tuple(p + q for p, q in zip(dx, dy))).scale(cx * cy)
    return out


def classical_parabolic_invariant(rs: RootSystem, parabolic: ParabolicSubset, classes) -> int:
    """Degree-zero triple intersection number of G/P, by an independent route:
    classical Borel products followed by the coset pushforward."""
    if len(classes) != 3:
        raise ValueError("the classical oracle takes exactly three classes")
    u, v, w = (min_coset_rep(x, parabolic) for x in classes)
    w_p = longest_element(rs, parabolic)

    def times(qc, y):
        out = QClass.zero(rs, BOREL)
        for (x, d), c in qc.terms.items():
            out = out + classical_product(rs, x, y).shift(d).scale(c)
        return out

    total = times(times(classical_product(rs, u, v), w), w_p)
    pushed = {}
    for (x, _), c in total.terms.items():
        img = class_pushforward(rs, parabolic, x)
        if img is not None:
            pushed[img] = pushed.get(img, 0) + c
    point = min_coset_rep(longest_element(rs, ParabolicSubset.full(rs.rank)), parabolic)
    return pushed.get(point, 0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def as_dicts(self):
        return [
            {"name": e.name, "passed": e.passed, "detail": e.detail}
            for e in self.entries
        ]


def check_comparison_consistency(
    rs: RootSystem, parabolic: ParabolicSubset, degree
) -> ConsistencyReport:
    """Self-consistency audit at one degree: permutation symmetry of the
    invariants, factorization through the derived parabolic, and (at degree
    zero) agreement with the classical intersection oracle.

    Non-effective degrees yield an empty, trivially passing report.
    """
    if not is_effective(rs, parabolic, degree):
        return ConsistencyReport(())
    ctx = _context(rs, parabolic)
    cd, c1 = ctx.degree(degree)
    basis = ctx.basis
    target = ctx.flag_dimension + c1
    triples = [
        (a, b, c)
        for a in basis
        for b in basis
        for c in basis
        if a.length + b.length + c.length == target
    ]
    at_pprime = _context(rs, cd.j_prime)
    relift = at_pprime.degree(cd.d_pprime)[0]
    stable = relift.d_B.lam == cd.d_B.lam and relift.j_prime == cd.j_prime
    classical = not any(degree)
    asymmetric = mismatched = off_classical = 0
    for trip in triples:
        vals = [ctx.invariant(perm, degree) for perm in permutations(trip)]
        at_p = vals[0]
        asymmetric += len(set(vals)) > 1
        mismatched += at_p != at_pprime.invariant(trip, cd.d_pprime)
        if classical:
            off_classical += at_p != classical_parabolic_invariant(rs, parabolic, trip)

    entries = [
        CheckResult(
            "permutation-symmetry",
            asymmetric == 0,
            f"{len(triples)} graded triples, {asymmetric} asymmetric",
        ),
        CheckResult(
            "derived-parabolic-factorization",
            stable and mismatched == 0,
            f"lift stable: {stable}; {len(triples)} triples, {mismatched} mismatched",
        ),
    ]
    if classical:
        entries.append(
            CheckResult(
                "classical-degree-zero",
                off_classical == 0,
                f"{len(triples)} triples, {off_classical} mismatched",
            )
        )
    return ConsistencyReport(tuple(entries))
