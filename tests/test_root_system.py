import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qflag import CartanType, ParabolicSubset, RootSystem, build_root_system, root_system

ALL_SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]

# sha256 of repr((Cartan matrix, positive roots, positive coroots, simple
# reflection permutations)) for every type up to rank 8
ROOT_DATA_SHA256 = {
    "A1": "159b1e516d5b7fc57483fa8cb0552021f3d8616e2e7129c4c3ba62b26b760f2e",
    "A2": "8b56325aa41a4c03f2b761a92de818ddb87750a48959aae18ca0ec52079d8d87",
    "A3": "0c66220399d39c591c7423c2d543899409ba1d67ac9d655b9190b257fe5e502d",
    "A4": "9f34fad48fa15d909de56356e4d4aa0af03022b9117efba787bb2abe96c387c5",
    "A5": "032d66bda8a664a8d86bcac52eeb10e95a87c851f73e881ca86562bf7bf00fc3",
    "A6": "ceef2313088d4153056ad63e37cddbf2b6800108f3bfc2a796dac81b827922cd",
    "A7": "07890c0b8f0276b727d144a22c0bba9c249f279427eb818bdecd83ef7c125608",
    "A8": "3b87a4e56c2430ce60b30ab22c9d6fb57f183a1ff05ce569f3271f61eb778a1d",
    "B2": "4750e0d53b28839dc27788e34b62c70b0856dab312e90f0fb189f42295711540",
    "B3": "00c39b455405789b3bab4691ce5ef5f7092db218151a2139f817d0409f6d93f5",
    "B4": "cb45fe242d9a4f8178c84bccaefc36fcb38781e9b1e6c6325edb4d4b3ab2c15a",
    "B5": "ff3e4da2a6a3802f74201f6e776c5fbdda1830092f3e0befcbf4a0f584f0b24a",
    "B6": "8afe375bee7904b4aa5d08f0480fe2bfc9f0a8023219af6aaf9a465c5a963027",
    "B7": "2c71d4e3ad5d0e3e5b92765d3e8242e88e95318a416ab3a94e8517bf39e351fa",
    "B8": "786ece6b59b801c39f59b8ea054cc57188094fcd02811da69ff4cd4f56e7bc3a",
    "C2": "b4c906451a612da3e1716cf9a274e40f9e5cda3548f81bb33815a1f745bac231",
    "C3": "b02f9abec5a4c6fc0c98e32e87695d746de5392915b68a5b835df3cf19a07b4d",
    "C4": "96bd6689f091819a400dc7e41b5ec3f8a4accfb8ffb52066878a9e2f26449efc",
    "C5": "a006f0d49fa1dfaa8587e62cb183770336b4436cbdbf1f00c73c8d9839aeddfa",
    "C6": "c747e9ef71e81ff7a87a361697d425ffe6ee6b1378fef4e7cb60838b8cdc43d4",
    "C7": "0a1cfc682d0ce39b1dd2eb7a9897cbeca0f7b52947ea24bd22e9230e8ede77e1",
    "C8": "f3b0e7e176f5fc7baccb362fa1b4892c8cacb2b1dfa621685fcd529c9c52ca81",
    "D3": "7e1f307d96deb5fd649e20d40f634d695949806937fe1bd13023aa2018741d8d",
    "D4": "e0e15e82c9683411d4cef68fc11989e835f271a189415256d27dbc13cdca3f4c",
    "D5": "55bde4a4c88ad665e30cf01a43f8bc260b468c7d0ee3402101342cb721f6257b",
    "D6": "369591c55da45a12f22a4b43ada303ba6bfa9d39df643a4339beb5f0762c64c1",
    "D7": "53ea09c4522e7c38579412afff613d506fa59d2e53492e430ef6ad9562fedde0",
    "D8": "206a42946c65a75adb88c9ff0360346471d51cf4fcc812dabffa7f1015a14c9b",
    "E6": "0720c47c12bd4d33cc54cc5fc313c02d6dc80ce0354f3dcb38d42c18feb66697",
    "E7": "682f58d3ef076c555efe19c4dbb6fa2a5d590dc86c236ec776a84a4876899edb",
    "E8": "3300229993059305421c8efe22cd1a15272989ca4108c2ed6f45487dd7251168",
    "F4": "8f3c3b5aa981119f502000f1f392624732687ec2379b52c53f8c06241ec06bc5",
    "G2": "d09f11159902b2d5689ebbb1083f52bdf9ce2a61bec7ee6b30b7470baec99ef2",
}


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


@pytest.mark.parametrize(
    "bad",
    ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "A0", "H3", ("A", True), ("B", 2.0)],
    ids=str,
)
def test_invalid_types_rejected(bad):
    # a bool is not a rank: CartanType("A", True) would print as ATrue
    with pytest.raises(ValueError):
        build_root_system(bad if isinstance(bad, str) else CartanType(*bad))


def test_type_parse_rejects_garbage():
    for text in ["", "2A", "Axx", "A-1"]:
        with pytest.raises(ValueError):
            CartanType.parse(text)


@pytest.mark.parametrize("name", ALL_SMALL)
def test_simple_roots_are_basis_vectors(name):
    rs = build_root_system(name)
    for i0 in range(rs.rank):
        e = tuple(1 if j == i0 else 0 for j in range(rs.rank))
        g = rs._simple_global[i0]
        assert rs.positive_roots[g] == e
        assert rs.positive_coroots[g] == e


@pytest.mark.parametrize("name", ALL_SMALL)
def test_coroot_normalization(name):
    rs = build_root_system(name)
    for alpha, cov in zip(rs.positive_roots, rs.positive_coroots):
        assert rs.pairing(alpha, cov) == 2


@pytest.mark.parametrize("name", sorted(ROOT_DATA_SHA256))
def test_root_data_is_pinned(name):
    rs = RootSystem(CartanType.parse(name))
    data = (rs.cartan, rs.positive_roots, rs.positive_coroots, rs.simple_perms)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == ROOT_DATA_SHA256[name]


def test_infinite_type_fails_the_root_closure():
    # affine A1: the simple reflections generate infinitely many real roots.
    # The closure runs in a child with a time limit, so that a closure that
    # never stops fails this test instead of hanging the suite
    path = [str(Path(root_system.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "from qflag import root_system as r\n"
        "r._cartan_matrix = lambda series, n: ((2, -2), (-2, 2))\n"
        "r.RootSystem(r.CartanType.parse('A2'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "RuntimeError: root closure for A2 produced 4 positive roots, expected 3")


def test_pairing_examples():
    rs = build_root_system("A2")
    # Cartan entry itself
    assert rs.pairing((0, 1), (1, 0)) == -1
    # bilinearity over Cartan entries: <a2, 2h1 + h2> = 2(-1) + 2 = 0
    assert rs.pairing((0, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        rs.pairing((1, 0, 0), (1, 0))


def test_deterministic_root_order():
    one = build_root_system("F4")
    two = build_root_system("F4")
    assert one.positive_roots == two.positive_roots
    assert one.positive_coroots == two.positive_coroots
    heights = [sum(r) for r in one.positive_roots]
    assert heights == sorted(heights)


def test_parabolic_subset_basics():
    par = ParabolicSubset.parse("3,1")
    assert par.indices == (1, 3)
    assert ParabolicSubset.parse("").indices == ()
    assert ParabolicSubset.full(3).indices == (1, 2, 3)
    assert ParabolicSubset.of([2]).free_nodes(3) == (1, 3)
    # a bool is not a node: {True} would name the cache file B2-True.json
    for bad in ([0], [True], [1, True]):
        with pytest.raises(ValueError, match="1-based positive integers"):
            ParabolicSubset.of(bad)
    with pytest.raises(ValueError):
        ParabolicSubset.parse("1,x")
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        rs.check_parabolic(ParabolicSubset.of([3]))


def test_root_systems_are_interned_per_type():
    assert build_root_system("B2") is build_root_system("B2")
    assert build_root_system("B2") is build_root_system(CartanType("B", 2))
    assert build_root_system("B2") is not build_root_system("C2")
