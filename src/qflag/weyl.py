"""Weyl group elements, coset representatives and longest elements.

An element is stored as the permutation it induces on the full root list.
That makes length, descent tests and composition cheap and gives a canonical
hashable key.  The canonical reduced word follows one rule,
word(w) = word(w s_i) + (i,) with i the smallest right descent of w, so it
never depends on how an element was built; the enumeration hands each new
element its canonical parent's word, and any other element peels its
descents in a loop.  Building an element from a word, reading its word and
flooring it to W^J compose permutation tuples, with no element per letter.

The enumeration keys an element by its images of the simple roots, rank
root indices where the permutation has 2 npos (6 against 72 on E6): a
linear map is fixed by its values on a basis.  A candidate s_i u forms only
its key, the full permutation is built only for an element not yet seen,
and the canonical parent v s_d is looked up by its key, the images under v
of s_d alpha_g, with no product of permutations.

The enumeration of W^J is also the one source of the action of W on basis
positions: its BFS forms every product s_i u, so it returns, beside the
basis, the maps x -> floor(s_i x) on positions.  Every other index map
(an engine's reflections x -> floor(s_beta x), Poincare duality, the Seidel
orbit maps) is composed from them, with no product of permutations.
"""

from __future__ import annotations

import re
from functools import cache
from math import prod

from .root_system import ParabolicSubset, RootSystem

# The cap on |W| for full enumeration: covers the classical types up to
# rank 6 plus F4, G2 and E6.  E7 and E8 are refused with a clear message.
DEFAULT_MAX_WEYL_ORDER = 60_000


class EnumerationBoundError(RuntimeError):
    """Raised when a Weyl group is too large to enumerate."""


class WeylElement:
    __slots__ = ("rs", "perm", "_word", "_length", "_hash")

    def __init__(self, rs: RootSystem, perm: tuple):
        self.rs = rs
        self.perm = perm
        self._word = None
        self._length = None
        self._hash = None

    @property
    def length(self) -> int:
        if self._length is None:
            npos = self.rs.npos
            self._length = sum(1 for g in range(npos) if self.perm[g] >= npos)
        return self._length

    @property
    def word(self) -> tuple:
        """Canonical reduced word: the smallest right descent s_i is peeled,
        w -> w s_i, in a loop until e, and the letters are read backwards."""
        if self._word is None:
            letters = _peel(self.rs, self.perm, range(1, self.rs.rank + 1))[1]
            self._word = tuple(reversed(letters))
        return self._word

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if other.rs is not self.rs:
            self.rs.check_elements(other)
        p, q = self.perm, other.perm
        return WeylElement(self.rs, tuple(map(p.__getitem__, q)))

    def is_right_descent(self, i: int) -> bool:
        """True iff multiplying by s_i on the right shortens the element."""
        g = self.rs._simple_global[i - 1]
        return self.perm[g] >= self.rs.npos

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.perm == other.perm
            and (self.rs is other.rs or self.rs.cartan == other.rs.cartan)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.perm)
        return self._hash

    def __repr__(self):
        return f"<W {format_word(self.word)}>"


def _peel(rs: RootSystem, perm: tuple, nodes):
    """Multiply the permutation `perm` on the right by s_i, i the first of
    `nodes` that is a right descent, until none is: (the permutation, the
    letters in the order peeled)."""
    npos, simple, perms = rs.npos, rs._simple_global, rs.simple_perms
    letters = []
    while True:
        for i in nodes:
            if perm[simple[i - 1]] >= npos:
                break
        else:
            return perm, letters
        letters.append(i)
        perm = tuple(map(perm.__getitem__, perms[i - 1]))


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, rs.identity_perm)


def _simple_perm(rs: RootSystem, i: int) -> tuple:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"generator index {i} out of range for {rs.cartan_type}")
    return rs.simple_perms[i - 1]


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(rs, _simple_perm(rs, i))


def from_word(rs: RootSystem, word) -> WeylElement:
    """The product of the simple reflections of a word, reduced or not,
    composed on permutations."""
    perm = rs.identity_perm
    for i in word:
        perm = tuple(map(perm.__getitem__, _simple_perm(rs, i)))
    return WeylElement(rs, perm)


def parse_word(text: str) -> tuple:
    """Parse "e" or a concatenation like "s1s2s1" into generator indices."""
    text = text.strip()
    if text in ("e", ""):
        return ()
    if not re.fullmatch(r"(s[0-9]+)+", text):
        raise ValueError(f"cannot parse Weyl word {text!r} (expected 'e' or e.g. 's1s2')")
    return tuple(int(m) for m in re.findall(r"s([0-9]+)", text))


def format_word(word) -> str:
    return "".join(f"s{i}" for i in word) if word else "e"


def min_coset_rep(w: WeylElement, parabolic: ParabolicSubset) -> WeylElement:
    """Minimal-length element of the coset w*W_J: right descents in J are
    peeled off, and w itself is returned when it has none."""
    w.rs.check_parabolic(parabolic)
    perm, letters = _peel(w.rs, w.perm, parabolic.indices)
    return WeylElement(w.rs, perm) if letters else w


@cache
def longest_element(rs: RootSystem, parabolic: ParabolicSubset) -> WeylElement:
    """Longest element of the standard parabolic subgroup, by greedy ascent."""
    rs.check_parabolic(parabolic)
    w = identity(rs)
    while True:
        j = next((j for j in parabolic.indices if not w.is_right_descent(j)), None)
        if j is None:
            return w
        w = w * simple_reflection(rs, j)


def enumerate_min_reps(rs: RootSystem, parabolic: ParabolicSubset):
    """All minimal coset representatives for W/W_J, graded by length, and
    sorted by word within a length.

    With the empty parabolic this enumerates the whole Weyl group.  Minimal
    representatives are closed under removing a left descent, so a BFS by
    left multiplication that keeps only representatives finds all of them.
    """
    return _enumerate(rs, parabolic)[0]


def _enumerate(rs: RootSystem, parabolic: ParabolicSubset):
    """(basis, position, left): the `enumerate_min_reps` list, the basis
    position of each element keyed by its permutation, and per simple
    reflection s_i the position of floor(s_i x) per position x.

    `seen` is keyed by the images of the simple roots (see the module
    docstring): the key of s_i u is s_i applied to the key of u, and the
    key of v s_d reads v's permutation at the roots s_d alpha_g.

    `left` is read off the products the BFS forms: s_i is an involution, so
    an ascent u -> s_i u also gives the descent back, and every descent of a
    representative is an ascent of one in an earlier level.  When s_i u is
    not minimal, s_i u = u s_j with j in J (Deodhar's lemma), so floor(s_i u)
    is u itself.
    """
    rs.check_parabolic(parabolic)
    # |W| = prod over alpha > 0 of (ht alpha + 1) / ht alpha (Macdonald, The
    # Poincare series of a Coxeter group, Math. Ann. 199 (1972), at t = 1)
    heights = [sum(alpha) for alpha in rs.positive_roots]
    order = prod(h + 1 for h in heights) // prod(heights)
    if order > DEFAULT_MAX_WEYL_ORDER:
        raise EnumerationBoundError(
            f"|W({rs.cartan_type})| = {order} exceeds the enumeration bound "
            f"{DEFAULT_MAX_WEYL_ORDER}"
        )
    npos, simple = rs.npos, rs._simple_global
    # per s_i: i, its action on root indices, and the root alpha_i
    steps = [
        (i, perm.__getitem__, g)
        for i, (perm, g) in enumerate(zip(rs.simple_perms, simple), 1)
    ]
    # per s_d: the roots s_d alpha_g per simple g, whose images under v are
    # the key of v s_d
    parent_roots = [tuple(perm[g] for g in simple) for perm in rs.simple_perms]
    in_j = [j - 1 for j in parabolic.indices]
    e = identity(rs)
    # (key, element) per element of the current length
    level = [(simple, e)]
    seen = {simple: e}
    out = []
    # i, u, s_i u per ascent that stays minimal, flat: a list of tuples
    # would keep one more object per product for the garbage collector
    pairs = []
    while level:
        out.extend(u for _, u in level)
        nxt = []
        for key, u in level:
            p, lu = u.perm, u.length
            for i, act, g in steps:
                # l(s_i u) > l(u) iff u^-1 alpha_i > 0: skip a left descent
                if p.index(g) >= npos:
                    continue
                vkey = tuple(map(act, key))
                v = seen.get(vkey)
                if v is None:
                    # s_i u alpha_j < 0 for a j in J: s_i u is not minimal
                    if any(vkey[j] >= npos for j in in_j):
                        continue
                    v = seen[vkey] = WeylElement(rs, tuple(map(act, p)))
                    v._length = lu + 1
                    nxt.append((vkey, v))
                    # the canonical parent v s_d, d the smallest right
                    # descent, lends its word when it was enumerated; at
                    # J != {} it can leave W^J, and the word is then peeled
                    d = next(d for d, image in enumerate(vkey) if image >= npos)
                    parent = seen.get(tuple(map(v.perm.__getitem__, parent_roots[d])))
                    if parent is not None:
                        v._word = parent.word + (d + 1,)
                pairs += (i, u, v)
        nxt.sort(key=lambda kv: kv[1].word)
        level = nxt
    # the pairs hold the very elements of `out`, so they resolve by identity
    # and no permutation is hashed again
    at = {id(w): x for x, w in enumerate(out)}
    left = [list(range(len(out))) for _ in range(rs.rank)]
    it = iter(pairs)
    for i, u, v in zip(it, it, it):
        x, y = at[id(u)], at[id(v)]
        left[i - 1][x], left[i - 1][y] = y, x
    return out, {w.perm: x for x, w in enumerate(out)}, [tuple(row) for row in left]
