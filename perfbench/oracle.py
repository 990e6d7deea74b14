"""Root systems and Weyl groups of types A-D, built from the classical
epsilon models and sharing no code with the qflag package.

The benchmark checks qflag's outputs against this module.  Roots are integer
vectors in Z^m (m = n + 1 for A_n, m = n otherwise) with the standard dot
product, simple roots follow the Bourbaki numbering, and a Weyl group
element is a signed permutation of the coordinates: ``img[k] = +-(j + 1)``
means that the element sends e_k to +-e_j.  Degrees are written in
simple-coroot coordinates, as qflag writes them.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction


def _unit(m, k, scale=1):
    v = [0] * m
    v[k] = scale
    return tuple(v)


def _plus(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _is_positive(vec):
    for x in vec:
        if x:
            return x > 0
    raise ValueError("the zero vector has no sign")


def _coordinates(basis, vec):
    """Integer coefficients of vec in a linearly independent basis, by exact
    elimination; raises if vec is outside the integer span."""
    n, m = len(basis), len(vec)
    rows = [[Fraction(basis[j][k]) for j in range(n)] + [Fraction(vec[k])] for k in range(m)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("basis is not linearly independent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        raise ValueError(f"{vec} is not in the span")
    coeffs = [rows[i][n] for i in range(n)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"{vec} is not in the integer span")
    return tuple(int(c) for c in coeffs)


class RootData:
    """Positive roots, coroots and the Weyl group of A_n, B_n, C_n or D_n."""

    def __init__(self, name: str):
        m = re.fullmatch(r"([ABCD])(\d+)", name)
        if not m:
            raise ValueError(f"unsupported type {name!r}")
        series, n = m.group(1), int(m.group(2))
        self.name, self.series, self.rank = name, series, n
        dim = n + 1 if series == "A" else n
        self.dim = dim
        e = lambda k, s=1: _unit(dim, k, s)  # noqa: E731
        simple = [_plus(e(i), e(i + 1), -1) for i in range(n - 1)]
        if series == "A":
            simple.append(_plus(e(n - 1), e(n), -1))
        elif series == "B":
            simple.append(e(n - 1))
        elif series == "C":
            simple.append(e(n - 1, 2))
        else:
            simple.append(_plus(e(n - 2), e(n - 1)))
        self.simple = tuple(simple)

        positive = set()
        for i in range(dim):
            for j in range(i + 1, dim):
                positive.add(_plus(e(i), e(j), -1))
                if series != "A":
                    positive.add(_plus(e(i), e(j)))
            if series == "B":
                positive.add(e(i))
            if series == "C":
                positive.add(e(i, 2))
        self.positive = tuple(sorted(positive, reverse=True))
        self.coroot = {a: tuple(2 * x // _dot(a, a) for x in a) for a in self.positive}
        simple_coroots = [self.coroot[a] for a in self.simple]
        # simple-root and simple-coroot coordinates of every positive root
        self.root_coords = {a: _coordinates(self.simple, a) for a in self.positive}
        self.coroot_coords = {
            a: _coordinates(simple_coroots, self.coroot[a]) for a in self.positive
        }
        two_rho = tuple(sum(col) for col in zip(*self.positive))
        self.two_rho_pairing = {a: _dot(two_rho, self.coroot[a]) for a in self.positive}
        self.identity = tuple(range(1, dim + 1))
        self.simple_refl = tuple(self.reflection(a) for a in self.simple)
        self._elements = None
        self._lengths = {}

    # -- Weyl group elements as signed permutations -------------------------

    def reflection(self, alpha):
        """s_alpha(x) = x - (x . alpha^v) alpha, as a signed permutation."""
        cor = self.coroot[alpha]
        img = []
        for k in range(self.dim):
            image = _plus(_unit(self.dim, k), tuple(cor[k] * x for x in alpha), -1)
            (j,) = [t for t, x in enumerate(image) if x]
            img.append((j + 1) * image[j])
        return tuple(img)

    @staticmethod
    def compose(w1, w2):
        """The element acting as w1 after w2."""
        return tuple((1 if t > 0 else -1) * w1[abs(t) - 1] for t in w2)

    def act(self, w, vec):
        out = [0] * self.dim
        for k, x in enumerate(vec):
            if x:
                t = w[k]
                out[abs(t) - 1] += x if t > 0 else -x
        return tuple(out)

    def length(self, w) -> int:
        got = self._lengths.get(w)
        if got is None:
            got = sum(1 for a in self.positive if not _is_positive(self.act(w, a)))
            self._lengths[w] = got
        return got

    def from_word(self, word):
        w = self.identity
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"generator s{i} out of range for {self.name}")
            w = self.compose(w, self.simple_refl[i - 1])
        return w

    def is_right_descent(self, w, i) -> bool:
        return not _is_positive(self.act(w, self.simple[i - 1]))

    def min_rep(self, w, parabolic):
        """Minimal-length element of the coset w W_J."""
        while True:
            j = next((j for j in parabolic if self.is_right_descent(w, j)), None)
            if j is None:
                return w
            w = self.compose(w, self.simple_refl[j - 1])

    def elements(self):
        """Every element of W, by breadth-first search from the identity."""
        if self._elements is None:
            seen = {self.identity}
            order = [self.identity]
            queue = deque(order)
            while queue:
                w = queue.popleft()
                for s in self.simple_refl:
                    x = self.compose(w, s)
                    if x not in seen:
                        seen.add(x)
                        order.append(x)
                        queue.append(x)
            self._elements = order
        return self._elements

    def min_reps(self, parabolic):
        return [
            w for w in self.elements()
            if not any(self.is_right_descent(w, j) for j in parabolic)
        ]

    def longest(self):
        return max(self.elements(), key=self.length)

    # -- parabolic data -----------------------------------------------------

    def free_nodes(self, parabolic):
        return tuple(i for i in range(1, self.rank + 1) if i not in parabolic)

    def in_levi(self, alpha, parabolic) -> bool:
        coords = self.root_coords[alpha]
        return all(c == 0 or (i + 1) in parabolic for i, c in enumerate(coords))

    def flag_dimension(self, parabolic) -> int:
        return sum(1 for a in self.positive if not self.in_levi(a, parabolic))

    def degree_weights(self, parabolic):
        """<c_1(G/P), alpha_i^v> for each free node i: a degree d has
        anticanonical pairing sum(weights[t] * d[t])."""
        off = [a for a in self.positive if not self.in_levi(a, parabolic)]
        return tuple(
            sum(_dot(a, self.coroot[self.simple[i - 1]]) for a in off)
            for i in self.free_nodes(parabolic)
        )

    # -- quantum Bruhat graph -----------------------------------------------

    def qbg_weights(self, u):
        """Weight of a shortest path from u to every element in the quantum
        Bruhat graph.  Edges w -> w s_a go up by one in length (weight 0) or
        down by <2 rho, a^v> - 1 (weight a^v).  Shortest paths to one vertex
        all have the same weight (Postnikov 2005); a disagreement raises."""
        reflections = [(a, self.reflection(a)) for a in self.positive]
        lengths = {w: self.length(w) for w in self.elements()}
        zero = (0,) * self.rank
        dist, weight = {u: 0}, {u: zero}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            lw = lengths[w]
            for a, s in reflections:
                x = self.compose(w, s)
                lx = lengths[x]
                if lx == lw + 1:
                    wt = weight[w]
                elif lx == lw + 1 - self.two_rho_pairing[a]:
                    wt = _plus(weight[w], self.coroot_coords[a])
                else:
                    continue
                if x not in dist:
                    dist[x] = dist[w] + 1
                    weight[x] = wt
                    queue.append(x)
                elif dist[x] == dist[w] + 1 and weight[x] != wt:
                    raise RuntimeError("shortest paths of unequal weight")
        return weight


def parse_word(text: str) -> tuple:
    """"e" or a concatenation like "s1s2s1" as a tuple of generator indices."""
    if text == "e":
        return ()
    if not re.fullmatch(r"(s\d+)+", text):
        raise ValueError(f"not a Weyl word: {text!r}")
    return tuple(int(x) for x in re.findall(r"s(\d+)", text))


def format_word(word) -> str:
    return "".join(f"s{i}" for i in word) if word else "e"


def reduced_word(rd: RootData, w) -> tuple:
    """Some reduced word for w, found by peeling right descents."""
    rev = []
    while True:
        i = next((i for i in range(1, rd.rank + 1) if rd.is_right_descent(w, i)), None)
        if i is None:
            return tuple(reversed(rev))
        rev.append(i)
        w = rd.compose(w, rd.simple_refl[i - 1])
