import pytest

from qflag import CartanType, ParabolicSubset, build_root_system, pairing, reflect_coweight

ALL_SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


@pytest.mark.parametrize(
    "name,count",
    [
        ("A1", 1),
        ("A2", 3),
        ("A3", 6),
        ("B2", 4),
        ("B3", 9),
        ("C3", 9),
        ("D4", 12),
        ("G2", 6),
        ("F4", 24),
        ("E6", 36),
        ("E7", 63),
        ("E8", 120),
    ],
)
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("bad", ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "A0", "H3"])
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        build_root_system(bad)


def test_type_parse_rejects_garbage():
    for text in ["", "2A", "Axx", "A-1"]:
        with pytest.raises(ValueError):
            CartanType.parse(text)


@pytest.mark.parametrize("name", ALL_SMALL)
def test_simple_roots_are_basis_vectors(name):
    rs = build_root_system(name)
    for i0 in range(rs.rank):
        e = tuple(1 if j == i0 else 0 for j in range(rs.rank))
        g = rs.positive_index(e)
        assert rs.positive_roots[g] == e
        assert rs.positive_coroots[g] == e


@pytest.mark.parametrize("name", ALL_SMALL)
def test_coroot_normalization(name):
    rs = build_root_system(name)
    for alpha, cov in zip(rs.positive_roots, rs.positive_coroots):
        assert pairing(rs, alpha, cov) == 2


@pytest.mark.parametrize("name", ALL_SMALL + ["E6", "E8"])
def test_symmetrizer_symmetrizes(name):
    rs = build_root_system(name)
    a, d = rs.cartan, rs.symmetrizer
    assert all(x >= 1 for x in d)
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[i] * a[i][j] == d[j] * a[j][i]


def test_pairing_examples():
    rs = build_root_system("A2")
    # Cartan entry itself
    assert pairing(rs, (0, 1), (1, 0)) == -1
    # bilinearity over Cartan entries: <a2, 2h1 + h2> = 2(-1) + 2 = 0
    assert pairing(rs, (0, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        pairing(rs, (1, 0, 0), (1, 0))


def test_reflect_coweight_examples():
    rs = build_root_system("A2")
    assert reflect_coweight(rs, (1, 0), (1, 0)) == (-1, 0)
    # s_{a1}(h2) = h2 + h1 since <a1, h2> = -1
    assert reflect_coweight(rs, (1, 0), (0, 1)) == (1, 1)
    with pytest.raises(ValueError):
        reflect_coweight(rs, (2, 0), (1, 0))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_reflect_coweight_is_involutive(name):
    rs = build_root_system(name)
    samples = [(1, 0), (0, 1), (2, -1), (3, 5)]
    for alpha in rs.positive_roots:
        for lam in samples:
            assert reflect_coweight(rs, alpha, reflect_coweight(rs, alpha, lam)) == lam


def test_deterministic_root_order():
    one = build_root_system("F4")
    two = build_root_system("F4")
    assert one.positive_roots == two.positive_roots
    assert one.positive_coroots == two.positive_coroots
    heights = [sum(r) for r in one.positive_roots]
    assert heights == sorted(heights)


def test_highest_root_per_component():
    rs = build_root_system("A3")
    theta, cov = rs.highest_root_in((1, 2, 3))
    assert theta == (1, 1, 1)
    theta, _ = rs.highest_root_in((1,))
    assert theta == (1, 0, 0)
    comps = rs.parabolic_components(ParabolicSubset.of([1, 3]))
    assert comps == ((1,), (3,))
    comps = rs.parabolic_components(ParabolicSubset.of([1, 2]))
    assert comps == ((1, 2),)


def test_parabolic_subset_basics():
    par = ParabolicSubset.parse("3,1")
    assert par.indices == (1, 3)
    assert ParabolicSubset.parse("").indices == ()
    assert ParabolicSubset.full(3).indices == (1, 2, 3)
    assert ParabolicSubset.of([2]).free_nodes(3) == (1, 3)
    with pytest.raises(ValueError):
        ParabolicSubset.of([0])
    with pytest.raises(ValueError):
        ParabolicSubset.parse("1,x")
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        rs.check_parabolic(ParabolicSubset.of([3]))


def test_root_systems_are_interned_per_type():
    assert build_root_system("B2") is build_root_system("B2")
    assert build_root_system("B2") is build_root_system(CartanType("B", 2))
    assert build_root_system("B2") is not build_root_system("C2")
