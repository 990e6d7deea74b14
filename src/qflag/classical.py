"""Cup products and degree-zero invariants by localization, a cross-check of
the quantum engine.

Billey's formula gives the restriction of a Schubert class to a torus-fixed
point.  Evaluated at rho^vee, so that each root pairs to its height, and with
x = x' s_i and l(x) = l(x') + 1, it reads

    sigma_u|_x = sigma_u|_{x'} + [l(u s_i) < l(u)] ht(x'(alpha_i)) sigma_{u s_i}|_{x'}

(Billey, Kostant polynomials and the cohomology ring for G/B, Duke Math. J.
96, 1999).  An integral over G/B is the sum over fixed points x of
(-1)^(N - l(x)) times the product of the localizations, divided by
D = prod_{alpha > 0} ht(alpha), with N = dim G/B.  The fixed points are the
engine's enumeration of W, with its index and its reflection maps
x -> s_beta x.  The canonical parent of x is x' = x s_i for the smallest i
with x(alpha_i) < 0; it is s_beta x for beta = -x(alpha_i), and
ht(x'(alpha_i)) = ht(beta).  The enumeration, the index and the reflection
maps are all this module shares with the engine: it reads no Chevalley
coefficient and runs no linear solve, so these values cross-check the
engine.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .quantum import BOREL, QClass, _engine
from .root_system import ParabolicSubset, RootSystem
from .weyl import WeylElement, longest_element, min_coset_rep


class _Localizations:
    """rows[x][u] = sigma_u|_x at rho^vee for all x, u in W, on the engine's
    element indices."""

    def __init__(self, rs: RootSystem):
        eng = _engine(rs)
        self.elements, self.index = eng.elements, eng.index
        # x s_i = s_{x alpha_i} x, with s_{x alpha_i} one of the engine's
        # reflections, and l(x s_i) > l(x) iff x alpha_i > 0
        reflections, simple, npos = eng.reflections, rs._simple_global, rs.npos
        # per i, the pairs (u, u s_i) with l(u s_i) = l(u) + 1
        ascents = [
            [(u, reflections[w.perm[g]][u])
             for u, w in enumerate(self.elements) if w.perm[g] < npos]
            for g in simple
        ]
        self.rows = [[1] + [0] * (len(self.elements) - 1)]
        for x in range(1, len(self.elements)):
            # the canonical parent x' = x s_i, for the smallest right descent
            # i; x'(alpha_i) = -x(alpha_i) is the positive root r
            perm = self.elements[x].perm
            i, r = next((i, perm[g] - npos) for i, g in enumerate(simple) if perm[g] >= npos)
            xp = reflections[r][x]
            height = sum(rs.positive_roots[r])
            prev = self.rows[xp]
            row = list(prev)
            for u, us in ascents[i]:
                if prev[u]:
                    row[us] += height * prev[u]
            self.rows.append(row)
        self.signs = [(-1) ** (rs.npos - x.length) for x in self.elements]
        self.denominator = prod(sum(alpha) for alpha in rs.positive_roots)


@cache
def _localizations(rs: RootSystem) -> _Localizations:
    return _Localizations(rs)


def _integral(rs: RootSystem, classes) -> int:
    """Integral over G/B of the product of the classes: 0 unless their
    lengths add up to N, where above N the localization sum need not vanish."""
    if sum(w.length for w in classes) != rs.npos:
        return 0
    loc = _localizations(rs)
    cols = [loc.index[w.perm] for w in classes]
    total = 0
    for sign, row in zip(loc.signs, loc.rows):
        p = sign
        for c in cols:
            p *= row[c]
            if not p:
                break
        total += p
    value, rem = divmod(total, loc.denominator)
    if rem:
        raise RuntimeError(
            f"localization sum {total} is not divisible by {loc.denominator}"
        )
    return value


def classical_product(rs: RootSystem, u: WeylElement, v: WeylElement) -> QClass:
    """Cup product of two Schubert classes on G/B: the coefficient of sigma_x
    is the integral of sigma_u sigma_v sigma_{w_o x}, over l(x) = l(u) + l(v)."""
    rs.check_elements(u, v)
    w_o = longest_element(rs, ParabolicSubset.full(rs.rank))
    zero = (0,) * rs.rank
    grade = u.length + v.length
    return QClass(
        rs,
        BOREL,
        {
            (x, zero): _integral(rs, (u, v, w_o * x))
            for x in _localizations(rs).elements
            if x.length == grade
        },
    )


def classical_parabolic_invariant(rs: RootSystem, parabolic: ParabolicSubset, classes) -> int:
    """Degree-zero triple intersection number of G/P, by localization on G/B:
    for minimal representatives u, v, w it is the integral of
    sigma_u sigma_v sigma_w sigma_{w_J} over G/B, since the pushforward of
    sigma_{w_J} to G/P is the unit class."""
    if len(classes) != 3:
        raise ValueError("the classical oracle takes exactly three classes")
    rs.check_elements(*classes)
    u, v, w = (min_coset_rep(x, parabolic) for x in classes)
    return _integral(rs, (u, v, w, longest_element(rs, parabolic)))
