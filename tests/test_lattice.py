import random

import numpy as np
import pytest

from pathcong import (
    LatticeError,
    build_lattice,
    build_semigroup,
    commutative_relation,
    congruence_from_blocks,
    enumerate_congruences,
    enumerate_special_ideals,
    find_diamond,
    find_pentagon,
    generate_ideal,
    ideal_lattice,
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_strong_lower_semimodular,
    is_strong_upper_semimodular,
    is_upper_semimodular,
    lattice_properties,
    lattice_to_dot,
    lattice_to_json_dict,
    monomial_relation,
    random_acyclic_quiver,
    zero_ideal,
)
from pathcong.lattice import is_diamond_sublattice, is_pentagon_sublattice
from pathcong.verify import congruence_lattice


def lattice_from_order(pairs, n):
    """Build a lattice from strict order pairs, deriving join/meet tables."""
    leq = np.eye(n, dtype=bool)
    for a, b in pairs:
        leq[a, b] = True
    # transitive closure
    for k in range(n):
        for i in range(n):
            if leq[i, k]:
                leq[i] |= leq[k]
    return build_lattice(list(range(n)), leq)


@pytest.fixture
def pentagon_lattice():
    # 0 bottom, chain 1 < 2, side 3, top 4
    return lattice_from_order([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 5)


@pytest.fixture
def diamond_lattice():
    return lattice_from_order([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 5)


@pytest.fixture
def chain_lattice():
    return lattice_from_order([(i, i + 1) for i in range(4)], 5)


def test_single_element_lattice():
    lat = build_lattice(["x"], np.ones((1, 1), dtype=bool))
    assert lat.covers == ()
    assert lat.bottom == lat.top == 0
    assert lattice_properties(lat) == {k: True for k in lattice_properties(lat)}


def test_chain_is_everything(chain_lattice):
    props = lattice_properties(chain_lattice)
    assert all(props.values())
    assert find_pentagon(chain_lattice) is None
    assert find_diamond(chain_lattice) is None


def test_pentagon_lattice_properties(pentagon_lattice):
    ok, witness = is_modular(pentagon_lattice)
    assert not ok
    a, b, c = witness
    J, M, L = pentagon_lattice.join, pentagon_lattice.meet, pentagon_lattice.leq
    assert L[a, c]
    assert M[J[a, b], c] != J[a, M[b, c]]
    assert not is_distributive(pentagon_lattice)[0]
    found = find_pentagon(pentagon_lattice)
    assert found == (0, 1, 2, 3, 4)
    assert is_pentagon_sublattice(pentagon_lattice, found)
    assert find_diamond(pentagon_lattice) is None


def test_diamond_lattice_properties(diamond_lattice):
    assert is_modular(diamond_lattice)[0]
    ok, witness = is_distributive(diamond_lattice)
    assert not ok
    a, b, c = witness
    J, M = diamond_lattice.join, diamond_lattice.meet
    assert M[J[a, b], c] != J[M[a, c], M[b, c]]
    assert find_pentagon(diamond_lattice) is None
    found = find_diamond(diamond_lattice)
    assert found == (0, 1, 2, 3, 4)
    assert is_diamond_sublattice(diamond_lattice, found)


def test_single_arrow_lattice_matches_expected_covers(single_arrow):
    s = build_semigroup(single_arrow)
    congs = enumerate_congruences(s)
    lat = congruence_lattice(s, congs)
    idx = {c.blocks: k for k, c in enumerate(congs)}
    rho = [
        ((0,), (1,), (2,), (3,)),
        ((0, 3), (1,), (2,)),
        ((0, 1, 3), (2,)),
        ((0, 2, 3), (1,)),
        ((0, 1, 2, 3),),
    ]
    expected = {
        (idx[rho[0]], idx[rho[1]]),
        (idx[rho[1]], idx[rho[2]]),
        (idx[rho[1]], idx[rho[3]]),
        (idx[rho[2]], idx[rho[4]]),
        (idx[rho[3]], idx[rho[4]]),
    }
    assert set(lat.covers) == expected
    assert lattice_properties(lat)["distributive"]
    assert find_pentagon(lat) is None
    assert find_diamond(lat) is None


def test_kronecker_lattice_matches_expected_covers(kronecker):
    s = build_semigroup(kronecker)
    congs = enumerate_congruences(s)
    lat = congruence_lattice(s, congs)
    idx = {c.blocks: k for k, c in enumerate(congs)}
    alpha, beta = s.index_by_name("alpha"), s.index_by_name("beta")
    rho = {
        1: ((0,), (1,), (2,), (alpha,), (beta,)),
        2: ((0,), (1,), (2,), (alpha, beta)),
        3: ((0, alpha), (1,), (2,), (beta,)),
        4: ((0, beta), (1,), (2,), (alpha,)),
        5: ((0, alpha, beta), (1,), (2,)),
        6: ((0, 1, alpha, beta), (2,)),
        7: ((0, 2, alpha, beta), (1,)),
        8: ((0, 1, 2, alpha, beta),),
    }
    k = {name: idx[blocks] for name, blocks in rho.items()}
    expected = {
        (k[1], k[2]), (k[1], k[3]), (k[1], k[4]),
        (k[2], k[5]), (k[3], k[5]), (k[4], k[5]),
        (k[5], k[6]), (k[5], k[7]),
        (k[6], k[8]), (k[7], k[8]),
    }
    assert set(lat.covers) == expected
    props = lattice_properties(lat)
    assert props["modular"] and not props["distributive"]
    assert find_pentagon(lat) is None
    diamond = find_diamond(lat)
    assert diamond is not None
    assert set(diamond) == {k[1], k[2], k[3], k[4], k[5]}


def test_triple_arrow_ideal_lattice(triple_arrow):
    ideals = enumerate_special_ideals(triple_arrow)
    lat = ideal_lattice(triple_arrow, ideals)
    assert lat.n == 18
    assert len(lat.covers) == 35
    props = lattice_properties(lat)
    assert props["strong_upper_semimodular"] and props["upper_semimodular"]
    assert not props["lower_semimodular"]
    assert not props["strong_lower_semimodular"]
    assert not props["modular"]

    ok, witness = is_lower_semimodular(lat)
    assert not ok
    a, b = witness
    covers = set(lat.covers)
    j, m = lat.join[a, b], lat.meet[a, b]
    assert (a, j) in covers and (b, j) in covers
    assert (m, a) not in covers or (m, b) not in covers

    pentagon = find_pentagon(lat)
    assert pentagon is not None and is_pentagon_sublattice(lat, pentagon)

    # the documented pentagon: 0 < span{alpha} < span{alpha, beta-gamma},
    # with span{gamma, alpha-beta} on the side and span{alpha,beta,gamma} on top
    def locate(*gens):
        ideal = generate_ideal(triple_arrow, gens)
        return next(k for k, i in enumerate(ideals) if i.space == ideal.space)

    o = next(k for k, i in enumerate(ideals) if i.space == zero_ideal(triple_arrow).space)
    p = locate(monomial_relation(2))
    q = locate(monomial_relation(2), commutative_relation(3, 4))
    side = locate(monomial_relation(4), commutative_relation(2, 3))
    top = locate(monomial_relation(2), monomial_relation(3), monomial_relation(4))
    assert is_pentagon_sublattice(lat, (o, p, q, side, top))


def test_specific_lower_semimodularity_violation(triple_arrow):
    ideals = enumerate_special_ideals(triple_arrow)
    lat = ideal_lattice(triple_arrow, ideals)
    covers = set(lat.covers)
    i12 = generate_ideal(triple_arrow, [monomial_relation(2), commutative_relation(3, 4)])
    i14 = generate_ideal(triple_arrow, [monomial_relation(4), commutative_relation(2, 3)])
    a = next(k for k, i in enumerate(ideals) if i.space == i12.space)
    b = next(k for k, i in enumerate(ideals) if i.space == i14.space)
    j, m = lat.join[a, b], lat.meet[a, b]
    assert (a, j) in covers and (b, j) in covers
    assert (m, a) not in covers and (m, b) not in covers


def test_cover_soundness_oracle(kronecker, triple_arrow):
    for q in (kronecker, triple_arrow):
        s = build_semigroup(q)
        lat = congruence_lattice(s, enumerate_congruences(s))
        L = lat.leq
        n = lat.n
        expected = set()
        for a in range(n):
            for b in range(n):
                if a == b or not L[a, b]:
                    continue
                if not any(L[a, c] and L[c, b] for c in range(n) if c not in (a, b)):
                    expected.add((a, b))
        assert set(lat.covers) == expected


def test_hierarchy_of_properties():
    rng = random.Random(71)
    for _ in range(8):
        q = random_acyclic_quiver(rng, max_elements=12)
        s = build_semigroup(q)
        lat = congruence_lattice(s, enumerate_congruences(s))
        p = lattice_properties(lat)
        if p["distributive"]:
            assert p["modular"]
        if p["modular"]:
            assert p["strong_upper_semimodular"] and p["strong_lower_semimodular"]
        if p["strong_upper_semimodular"]:
            assert p["upper_semimodular"]
        if p["strong_lower_semimodular"]:
            assert p["lower_semimodular"]


def test_forbidden_sublattice_cross_checks():
    rng = random.Random(73)
    for _ in range(8):
        q = random_acyclic_quiver(rng, max_elements=12)
        s = build_semigroup(q)
        lat = congruence_lattice(s, enumerate_congruences(s))
        p = lattice_properties(lat)
        pentagon = find_pentagon(lat)
        diamond = find_diamond(lat)
        assert p["modular"] == (pentagon is None)
        assert p["distributive"] == (pentagon is None and diamond is None)
        if pentagon:
            assert is_pentagon_sublattice(lat, pentagon)
        if diamond:
            assert is_diamond_sublattice(lat, diamond)


def test_derived_tables_match_supplied(kronecker):
    s = build_semigroup(kronecker)
    congs = enumerate_congruences(s)
    lat_full = congruence_lattice(s, congs)
    lat_derived = build_lattice(congs, lat_full.leq)
    assert (lat_full.join == lat_derived.join).all()
    assert (lat_full.meet == lat_derived.meet).all()


def test_build_rejects_broken_order():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # missing 0 <= 2: not transitive
    with pytest.raises(LatticeError):
        build_lattice([0, 1, 2], leq)


def test_build_rejects_wrong_join_table(chain_lattice):
    bad = chain_lattice.join.copy()
    bad[0, 1] = bad[1, 0] = 3  # an upper bound, but not the least one
    with pytest.raises(LatticeError):
        build_lattice(list(range(5)), chain_lattice.leq, lambda a, b: int(bad[a, b]))


def test_build_rejects_operation_leaving_the_list(chain_lattice):
    with pytest.raises(LatticeError, match=r"meet\('0', '1'\) is not in the list"):
        build_lattice(list(range(5)), chain_lattice.leq, max, lambda a, b: 9)


def test_build_rejects_missing_bounds():
    leq = np.eye(2, dtype=bool)  # two incomparable elements: no join at all
    with pytest.raises(LatticeError):
        build_lattice([0, 1], leq)


def test_dot_output(single_arrow):
    s = build_semigroup(single_arrow)
    lat = congruence_lattice(s, enumerate_congruences(s))
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph lattice {")
    assert "rankdir=BT;" in dot
    assert dot.count("label=") == 5
    assert dot.count(" -> ") == 5
    assert dot == lattice_to_dot(congruence_lattice(s, enumerate_congruences(s)))


def test_json_output(kronecker):
    s = build_semigroup(kronecker)
    lat = congruence_lattice(s, enumerate_congruences(s))
    blob = lattice_to_json_dict(lat)
    assert set(blob) == {"elements", "covers", "properties"}
    assert len(blob["elements"]) == 8
    assert sorted(map(tuple, blob["covers"])) == sorted(lat.covers)
    assert blob["properties"]["modular"] is True
