"""Root systems of finite Cartan type, in exact integer arithmetic.

Roots are stored in simple-root coordinates and coweights in simple-coroot
coordinates; every pairing routes through the Cartan matrix, so nothing here
ever touches floating point.  Node numbering follows the standard Bourbaki
labeling for each series.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache


def _parse_ints(text: str) -> tuple:
    """The ints of a comma list, each an optional sign and ASCII digits with
    optional spaces around them; int() alone would also take digit
    separators and non-ASCII digits."""
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", part) for part in parts):
        raise ValueError(f"not a comma list of integers: {text!r}")
    return tuple(map(int, parts))


# min/max admissible rank per series (max None = unbounded)
_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_POSITIVE = {
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}


@dataclass(frozen=True)
class CartanType:
    """A finite Cartan type such as A2 or B3."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _RANK_RULES:
            raise ValueError(
                f"unknown Cartan series {self.series!r}: expected one of A..G"
            )
        lo, hi = _RANK_RULES[self.series]
        rank = self.rank
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < lo or (
            hi is not None and rank > hi
        ):
            raise ValueError(
                f"invalid rank {self.rank} for series {self.series} "
                f"(allowed: {lo}{'..' + str(hi) if hi else ' and up'})"
            )

    @classmethod
    def parse(cls, name: str) -> "CartanType":
        m = re.fullmatch(r"([A-Ga-g])([0-9]+)", name.strip())
        if not m:
            raise ValueError(f"cannot parse Cartan type {name!r} (expected e.g. 'A2')")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self):
        return f"{self.series}{self.rank}"

    def positive_root_count(self) -> int:
        n = self.rank
        if self.series == "A":
            return n * (n + 1) // 2
        if self.series in ("B", "C"):
            return n * n
        if self.series == "D":
            return n * (n - 1)
        return _EXCEPTIONAL_POSITIVE[(self.series, n)]


@dataclass(frozen=True)
class ParabolicSubset:
    """A set of simple-root node indices (1-based, CLI numbering).

    The empty set is the Borel case; the full set is the whole group and is
    rejected by degree-level operations since there are no curve classes left.
    """

    indices: tuple = ()

    def __post_init__(self):
        idx = self.indices
        if any(isinstance(j, bool) or not isinstance(j, int) or j < 1 for j in idx):
            raise ValueError("parabolic node indices must be 1-based positive integers")
        object.__setattr__(self, "indices", tuple(sorted(set(idx))))

    @classmethod
    def of(cls, indices) -> "ParabolicSubset":
        return cls(tuple(indices))

    @classmethod
    def parse(cls, text: str) -> "ParabolicSubset":
        text = (text or "").strip()
        if not text:
            return cls()
        try:
            return cls(_parse_ints(text))
        except ValueError:
            raise ValueError(f"cannot parse parabolic node list {text!r}") from None

    @classmethod
    def full(cls, rank: int) -> "ParabolicSubset":
        return cls(tuple(range(1, rank + 1)))

    def free_nodes(self, rank: int) -> tuple:
        return tuple(i for i in range(1, rank + 1) if i not in self.indices)

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return "{" + ",".join(str(j) for j in self.indices) + "}"


def _cartan_matrix(series, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if series == "B":
            a[n - 1][n - 2] = -2  # last node carries the short root
        if series == "C":
            a[n - 2][n - 1] = -2  # last node carries the long root
    elif series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif series == "E":
        spine = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(spine, spine[1:]):
            bond(i, j)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2)
        bond(2, 3)
        a[2][1] = -2
    elif series == "G":
        a[0][1] = -3
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


class RootSystem:
    """Positive roots, coroots and the simple reflections' permutations of the
    roots for a finite Cartan type.

    The roots are built in a deterministic order (graded by height,
    lexicographic within a height), so downstream output is reproducible
    byte for byte.  Nothing changes after construction except the memo of
    `parabolic_root_indices`, filled per parabolic on first use.  Any other
    reflection acts through an engine's index maps.
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan = _cartan_matrix(cartan_type.series, cartan_type.rank)
        self.positive_roots, self.positive_coroots = self._close_roots()
        self.npos = len(self.positive_roots)
        self.nroots = 2 * self.npos
        self._index = {}
        for g, r in enumerate(self.positive_roots):
            self._index[r] = g
            self._index[tuple(-x for x in r)] = g + self.npos
        self._simple_global = tuple(
            self._index[self._basis(i0)] for i0 in range(self.rank)
        )
        self.identity_perm = tuple(range(self.nroots))
        self.simple_perms = tuple(self._simple_perm(i0) for i0 in range(self.rank))
        self._parabolic_roots = {}

    # -- construction ------------------------------------------------------

    def _basis(self, i0):
        return tuple(1 if j == i0 else 0 for j in range(self.rank))

    def _close_roots(self):
        """Positive roots and coroots, closed under the simple reflections.
        A finite type closes on exactly its number of positive roots; the
        closure stops once it holds more, as an infinite type never closes."""
        a = self.cartan
        n = self.rank
        expected = self.cartan_type.positive_root_count()
        found = {}
        frontier = []
        for i0 in range(n):
            r = self._basis(i0)
            found[r] = r  # a simple root is its own coroot in these coordinates
            frontier.append(r)
        while frontier and len(found) <= expected:
            new = []
            for r in frontier:
                cor = found[r]
                for i0 in range(n):
                    pr = sum(a[i0][j] * r[j] for j in range(n) if r[j])
                    if pr == 0:
                        continue
                    img = list(r)
                    img[i0] -= pr
                    img = tuple(img)
                    if img in found or any(x < 0 for x in img):
                        continue
                    pc = sum(a[k][i0] * cor[k] for k in range(n) if cor[k])
                    icor = list(cor)
                    icor[i0] -= pc
                    found[img] = tuple(icor)
                    new.append(img)
            frontier = new
        if len(found) != expected:
            raise RuntimeError(
                f"root closure for {self.cartan_type} produced {len(found)} "
                f"positive roots, expected {expected}"
            )
        order = sorted(found, key=lambda root: (sum(root), root))
        roots = tuple(order)
        coroots = tuple(found[r] for r in order)
        for r, c in zip(roots, coroots):
            if self.pairing(r, c) != 2:
                raise RuntimeError(f"coroot normalization failed for root {r}")
        return roots, coroots

    def _simple_perm(self, i0):
        """The permutation of the root list by s_i: r -> r - <r, alpha_i^vee>
        alpha_i, where alpha_i is its own coroot in these coordinates."""
        alpha = self._basis(i0)
        return tuple(
            self._index[r[:i0] + (r[i0] - self.pairing(r, alpha),) + r[i0 + 1:]]
            for r in sorted(self._index, key=self._index.get)
        )

    # -- lookups -----------------------------------------------------------

    def pairing(self, root, coweight) -> int:
        if len(root) != self.rank or len(coweight) != self.rank:
            raise ValueError("vector length must equal the rank")
        a = self.cartan
        total = 0
        for i, c in enumerate(coweight):
            if c:
                row = a[i]
                total += c * sum(row[j] * root[j] for j in range(self.rank) if root[j])
        return total

    # -- parabolic structure -------------------------------------------------

    def check_parabolic(self, parabolic: ParabolicSubset):
        for j in parabolic.indices:
            if not 1 <= j <= self.rank:
                raise ValueError(
                    f"parabolic node {j} out of range for {self.cartan_type}"
                )

    def check_elements(self, *elements):
        """Refuse Weyl group elements of another Cartan matrix."""
        for w in elements:
            if w.rs is not self and w.rs.cartan != self.cartan:
                raise ValueError("elements belong to different root systems")

    def parabolic_root_indices(self, parabolic: ParabolicSubset):
        """Indices of positive roots supported on the parabolic nodes."""
        cached = self._parabolic_roots.get(parabolic.indices)
        if cached is None:
            inside = set(parabolic.indices)
            cached = tuple(
                g
                for g, r in enumerate(self.positive_roots)
                if all(r[j] == 0 or (j + 1) in inside for j in range(self.rank))
            )
            self._parabolic_roots[parabolic.indices] = cached
        return cached


def build_root_system(cartan_type) -> RootSystem:
    """The root system of a CartanType (or a string like 'A2').

    Every call with the same type returns the same interned instance, so the
    memo tables keyed on it (engines, longest elements, G/P contexts) are
    shared and live as long as the process, one set per type.
    """
    if isinstance(cartan_type, str):
        cartan_type = CartanType.parse(cartan_type)
    return _interned(cartan_type)


@cache
def _interned(cartan_type: CartanType) -> RootSystem:
    return RootSystem(cartan_type)

