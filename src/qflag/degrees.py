"""Curve-class lattices for flag varieties.

A degree of G/P is an int tuple, one coordinate per node outside the
parabolic; `_as_degree` is the one place that validates and normalizes it.
Degrees are lifted to the Borel level by reducing into the fundamental
alcove of the affine Weyl group of the Levi: the lift is a coweight, an int
tuple of simple-coroot coefficients.  Orientation convention used
throughout: effective degrees have nonnegative coordinates, the reduced lift
has nonnegative coroot coefficients, and the alcove condition is
<alpha, lam> in {-1, 0} for every positive root alpha of the Levi, which
`_in_alcove` tests.  The walk into the alcove reads its walls off the Levi
roots: the simple roots of J, and each root of the Levi that no simple root
of J raises.

The data derived from a lift (`comparison_data`) lives in `compare`.
"""

from __future__ import annotations

from itertools import product as iter_product
from operator import index

from .root_system import ParabolicSubset, RootSystem


def _as_degree(rs: RootSystem, parabolic: ParabolicSubset, degree) -> tuple:
    """A degree of G/P as an int tuple.  Checks, in this order, the
    parabolic's nodes, that it is not the full parabolic, each coordinate
    (an integer, not a bool, a float or a string) and the number of
    coordinates."""
    rs.check_parabolic(parabolic)
    free = parabolic.free_nodes(rs.rank)
    if not free:
        raise ValueError("the full parabolic has no curve classes (H_2 = 0)")
    coords = []
    for x in degree:
        try:
            if isinstance(x, bool):
                raise TypeError
            coords.append(index(x))
        except TypeError:
            raise ValueError(f"degree coordinate {x!r} is not an integer") from None
    if len(coords) != len(free):
        raise ValueError(
            f"degree vector has {len(coords)} coordinates, expected {len(free)}"
        )
    return tuple(coords)


def _in_alcove(rs, parabolic, lam) -> bool:
    """True iff every positive Levi root pairs with lam to -1 or 0."""
    return all(
        rs.pairing(rs.positive_roots[g], lam) in (-1, 0)
        for g in rs.parabolic_root_indices(parabolic)
    )


def _alcove_walls(rs, parabolic):
    """Simple walls of the fundamental alcove of the Levi's affine Weyl group,
    each as (g, s, k): the alcove lies on the side s * <alpha_g, .> <= k.

    The linear walls <alpha_j, .> <= 0, one per parabolic node j, come first.
    Then <theta, .> >= -1 for the highest root theta of each connected
    component of J: the one Levi root that no simple Levi root raises
    (Bourbaki, Lie Groups and Lie Algebras, ch. VI, 1.8)."""
    walls = [(rs._simple_global[j - 1], 1, 0) for j in parabolic.indices]
    for g in rs.parabolic_root_indices(parabolic):
        theta = rs.positive_roots[g]
        raised = (
            tuple(x + 1 if i == j - 1 else x for i, x in enumerate(theta))
            for j in parabolic.indices
        )
        if not any(r in rs._index for r in raised):
            walls.append((g, -1, 1))
    return walls


def _walk_length(rs, parabolic, lam):
    """Number of Levi-root hyperplanes <alpha, .> = k (k an integer) that
    separate lam from the fundamental domain.  Each step of the alcove walk
    crosses exactly one of them, so this is the walk's exact length."""
    levi = (rs.positive_roots[g] for g in rs.parabolic_root_indices(parabolic))
    return sum(max(m, -1 - m) for m in (rs.pairing(alpha, lam) for alpha in levi))


def peterson_lift(rs: RootSystem, parabolic: ParabolicSubset, degree) -> tuple:
    """The unique coweight over the given degree with all Levi pairings in
    {-1, 0}, found by walking into the fundamental alcove, as its tuple of
    simple-coroot coefficients.

    Every reflection step fixes the coordinates at the free nodes, so the
    result restricts back to the input degree: `push_degree` of the lift is
    the degree.
    """
    degree = _as_degree(rs, parabolic, degree)
    free = parabolic.free_nodes(rs.rank)
    lam = [0] * rs.rank
    for i, d in zip(free, degree):
        lam[i - 1] = d
    if any(degree):
        walls = _alcove_walls(rs, parabolic)
        ceiling = _walk_length(rs, parabolic, lam)
        steps = 0
        while True:
            for g, s, k in walls:
                c = s * rs.pairing(rs.positive_roots[g], lam) - k
                if c > 0:
                    break
            else:
                break
            steps += 1
            if steps > ceiling:
                raise RuntimeError(
                    f"alcove walk for {rs.cartan_type}, J={parabolic}, d={degree} "
                    f"exceeded {ceiling} steps"
                )
            coroot = rs.positive_coroots[g]
            for i in range(rs.rank):
                lam[i] -= s * c * coroot[i]
        if not _in_alcove(rs, parabolic, lam):
            raise RuntimeError("alcove walk terminated outside the domain")
    lam = tuple(lam)
    if all(x >= 0 for x in degree) and any(x < 0 for x in lam):
        raise RuntimeError(
            f"effective degree {degree} lifted to a non-effective coweight {lam}"
        )
    return lam


def derived_parabolic(rs: RootSystem, parabolic: ParabolicSubset, lam) -> ParabolicSubset:
    """Parabolic nodes whose simple root pairs to zero with an alcove-reduced
    coweight.  Rejects coweights that are not alcove-reduced."""
    rs.check_parabolic(parabolic)
    lam = tuple(lam)
    if not _in_alcove(rs, parabolic, lam):
        raise ValueError(f"{lam} is not alcove-reduced for J={parabolic}")
    return ParabolicSubset.of(
        j
        for j in parabolic.indices
        if rs.pairing(rs.positive_roots[rs._simple_global[j - 1]], lam) == 0
    )


def push_degree(rs: RootSystem, parabolic: ParabolicSubset, lam) -> tuple:
    """Degree coordinates of a coweight at the nodes outside the parabolic."""
    rs.check_parabolic(parabolic)
    return tuple(lam[i - 1] for i in parabolic.free_nodes(rs.rank))


def flag_dimension(rs: RootSystem, parabolic: ParabolicSubset) -> int:
    """Complex dimension of G/P: the number of positive roots off the Levi."""
    rs.check_parabolic(parabolic)
    return rs.npos - len(rs.parabolic_root_indices(parabolic))


def _c1_pairing(rs: RootSystem, parabolic: ParabolicSubset, lam) -> int:
    """(c_1(G/P), lam): the sum of <alpha, lam> over positive roots off the Levi."""
    inside = set(rs.parabolic_root_indices(parabolic))
    return sum(
        rs.pairing(alpha, lam)
        for g, alpha in enumerate(rs.positive_roots)
        if g not in inside
    )


def enumerate_alcove_lifts(rs, parabolic, degree, window=6):
    """Brute-force search for lattice lifts of a degree satisfying the alcove
    condition, with the parabolic-direction coefficients confined to
    [-window, window].  Independent of the alcove walk; used as its oracle."""
    degree = _as_degree(rs, parabolic, degree)
    free = parabolic.free_nodes(rs.rank)
    base = [0] * rs.rank
    for i, d in zip(free, degree):
        base[i - 1] = d
    hits = []
    slots = list(parabolic.indices)
    for combo in iter_product(range(-window, window + 1), repeat=len(slots)):
        lam = base[:]
        for j, c in zip(slots, combo):
            lam[j - 1] = c
        if _in_alcove(rs, parabolic, lam):
            hits.append(tuple(lam))
    return hits
