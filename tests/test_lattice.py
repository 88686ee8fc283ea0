import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracles import (
    closure_lattice,
    congruence_table,
    find_diamond,
    find_pentagon,
    ideal_lattice,
    is_pentagon_sublattice,
    law_distributive,
    law_modular,
    reference_witnesses,
    semimodularity_masks,
)
from oracles import congruence_leq_matrix, doubled_chain_quiver, kronecker_quiver, star_quiver
from pathcong import (
    LatticeError,
    build_lattice,
    build_semigroup,
    commutative_relation,
    enumerate_congruences,
    enumerate_special_ideals,
    generate_ideal,
    lattice_properties,
    lattice_to_dot,
    lattice_to_json_dict,
    monomial_relation,
    parse_quiver,
    property_witnesses,
    random_acyclic_quiver,
    zero_ideal,
)
from pathcong import lattice
from pathcong.lattice import PROPERTY_NAMES
from pathcong.verify import congruence_lattice

# The N5, M3 and a chain as closure systems of bitmask sets, meet &, with
# the same indices as before: N5 is (bottom, lower, upper, side, top).


@pytest.fixture
def pentagon_lattice():
    return closure_lattice([0b000, 0b001, 0b011, 0b100, 0b111])


@pytest.fixture
def diamond_lattice():
    return closure_lattice([0b000, 0b001, 0b010, 0b100, 0b111])


@pytest.fixture
def chain_lattice():
    return closure_lattice([0b0000, 0b0001, 0b0011, 0b0111, 0b1111])


def test_single_element_lattice():
    lat = build_lattice(["x"], np.empty((1, 0), dtype=int))
    assert lat.covers == ()
    assert lattice_properties(lat) == dict.fromkeys(PROPERTY_NAMES, True)


def test_chain_is_everything(chain_lattice):
    assert all(lattice_properties(chain_lattice.lattice()).values())
    assert find_pentagon(chain_lattice) is None
    assert find_diamond(chain_lattice) is None


def test_pentagon_lattice_properties(pentagon_lattice):
    w = property_witnesses(pentagon_lattice.lattice())
    a, b, c = w["modular"]
    J, M, L = pentagon_lattice.join, pentagon_lattice.meet, pentagon_lattice.leq
    assert L[a, c]
    assert M[J[a, b], c] != J[a, M[b, c]]
    assert w["distributive"] is not None
    found = find_pentagon(pentagon_lattice)
    assert found == (0, 1, 2, 3, 4)
    assert find_diamond(pentagon_lattice) is None


def test_diamond_lattice_properties(diamond_lattice):
    w = property_witnesses(diamond_lattice.lattice())
    assert w["modular"] is None
    a, b, c = w["distributive"]
    J, M = diamond_lattice.join, diamond_lattice.meet
    assert M[J[a, b], c] != J[M[a, c], M[b, c]]
    assert find_pentagon(diamond_lattice) is None
    assert find_diamond(diamond_lattice) == (0, 1, 2, 3, 4)


def test_single_arrow_lattice_matches_expected_covers(single_arrow):
    s = build_semigroup(single_arrow)
    congs = enumerate_congruences(s)
    lat = congruence_lattice(s)
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
    table = congruence_table(congs)
    assert find_pentagon(table) is None
    assert find_diamond(table) is None


def test_kronecker_lattice_matches_expected_covers(kronecker):
    s = build_semigroup(kronecker)
    congs = enumerate_congruences(s)
    lat = congruence_lattice(s)
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
    table = congruence_table(congs)
    assert find_pentagon(table) is None
    diamond = find_diamond(table)
    assert diamond is not None
    assert set(diamond) == {k[1], k[2], k[3], k[4], k[5]}


def test_triple_arrow_ideal_lattice(triple_arrow):
    ideals = enumerate_special_ideals(triple_arrow)
    lat = ideal_lattice(triple_arrow, ideals)
    assert lat.n == 18
    assert len(lat.covers) == 35
    w = property_witnesses(lat.lattice(lat.join_irreducibles()))
    assert w["strong_upper_semimodular"] is None and w["upper_semimodular"] is None
    assert w["strong_lower_semimodular"] is not None
    assert w["modular"] is not None

    a, b = w["lower_semimodular"]
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
        congs = enumerate_congruences(s)
        lat = congruence_lattice(s)
        leq = congruence_leq_matrix(congs)
        n = lat.n
        expected = set()
        for a in range(n):
            for b in range(n):
                if a == b or not leq[a, b]:
                    continue
                if not any(leq[a, c] and leq[c, b] for c in range(n) if c not in (a, b)):
                    expected.add((a, b))
        assert set(lat.covers) == expected


def test_hierarchy_of_properties():
    rng = random.Random(71)
    for _ in range(8):
        q = random_acyclic_quiver(rng, max_elements=12)
        s = build_semigroup(q)
        lat = congruence_lattice(s)
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
        congs = enumerate_congruences(s)
        p = lattice_properties(congruence_lattice(s))
        table = congruence_table(congs)
        pentagon = find_pentagon(table)
        diamond = find_diamond(table)
        assert p["modular"] == (pentagon is None)
        assert p["distributive"] == (pentagon is None and diamond is None)


def test_distributive_witness_is_a_cover_preserving_diamond(diamond_lattice, kronecker):
    s = build_semigroup(kronecker)
    for lat in (diamond_lattice.lattice(), congruence_lattice(s)):
        a, b, c = property_witnesses(lat)["distributive"]
        covers = set(lat.covers)
        (bottom,) = {lo for lo, hi in covers if hi == a} & {lo for lo, hi in covers if hi == b}
        assert {(bottom, a), (bottom, b), (bottom, c)} <= covers
        (top,) = {hi for lo, hi in covers if lo == a} & {hi for lo, hi in covers if lo == b}
        assert {(a, top), (b, top), (c, top)} <= covers


def test_build_rejects_wrong_join_table(chain_lattice):
    ragged = [list(row) for row in chain_lattice.join.tolist()]
    ragged[2].pop()
    for bad in (
        chain_lattice.join[:4],
        chain_lattice.join[:, :, None],
        chain_lattice.join + 1,
        ragged,
    ):
        with pytest.raises(LatticeError, match="does not index 5 elements"):
            build_lattice(chain_lattice.elements, bad)


def test_rejects_table_whose_meet_leaves_the_list():
    # the square 0 < a, b < ab joined with a and b, but 0 v a reads as 0:
    # no element has the generators below both a and b, so no meet
    lat = build_lattice(["0", "a", "b", "ab"], [[0, 2], [1, 3], [3, 2], [3, 3]])
    with pytest.raises(LatticeError, match=r"meet of 'a' and 'b' is not in the list"):
        lattice_properties(lat)


def test_build_rejects_missing_bounds(chain_lattice):
    with pytest.raises(LatticeError, match="at least one element"):
        build_lattice([], np.empty((0, 0), dtype=int))
    missing = chain_lattice.join.copy()
    missing[0, 1] = -1  # a join that names no element
    with pytest.raises(LatticeError):
        build_lattice(chain_lattice.elements, missing)


def test_dot_output(single_arrow):
    s = build_semigroup(single_arrow)
    lat = congruence_lattice(s)
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph lattice {")
    assert "rankdir=BT;" in dot
    assert dot.count("label=") == 5
    assert dot.count(" -> ") == 5
    assert dot == lattice_to_dot(congruence_lattice(s))


def test_json_output(kronecker):
    s = build_semigroup(kronecker)
    lat = congruence_lattice(s)
    blob = lattice_to_json_dict(lat)
    assert set(blob) == {"elements", "covers", "properties"}
    assert len(blob["elements"]) == 8
    assert sorted(map(tuple, blob["covers"])) == sorted(lat.covers)
    assert blob["properties"]["modular"] is True


def test_build_copies_the_callers_order(chain_lattice):
    # the caller's join table, which stands in for the order
    succ = chain_lattice.join.copy()
    lat = build_lattice(chain_lattice.elements, succ)
    assert succ.flags.writeable
    assert (succ == chain_lattice.join).all()
    assert type(lat.succ) is tuple and all(type(row) is tuple for row in lat.succ)
    assert lat.succ == tuple(map(tuple, succ.tolist()))


# The references for ``property_witnesses`` and the covers are the
# exhaustive O(m^3) law scans, one cover mask per semimodularity
# property, and the transitive reduction of the order, all on the
# explicit tables of ``lattice_oracles``.


def assert_matches_law_scans(t, lat):
    w = property_witnesses(lat)
    assert tuple(w) == PROPERTY_NAMES
    assert w == reference_witnesses(lat)
    assert lat.covers == t.covers
    assert (w["distributive"] is None) == law_distributive(t)[0]
    assert (w["modular"] is None) == law_modular(t)[0]
    J, M, L = t.join, t.meet, t.leq
    if w["distributive"] is not None:
        a, b, c = w["distributive"]
        assert M[J[a, b], c] != J[M[a, c], M[b, c]]
    if w["modular"] is not None:
        a, b, c = w["modular"]
        assert L[a, c] and M[J[a, b], c] != J[a, M[b, c]]
    masks = semimodularity_masks(t)
    assert {k: w[k] is None for k in masks} == {k: v is None for k, v in masks.items()}
    covers = set(t.covers)
    for key, upper in (("upper_semimodular", True), ("lower_semimodular", False)):
        assert w["strong_" + key] == w[key]  # equal at finite length
        if w[key] is not None:  # both covered by (or both covering) one, but not dually
            a, b = w[key]
            lo, hi = M[a, b], J[a, b]
            one = {(lo, a), (lo, b)} if upper else {(a, hi), (b, hi)}
            other = {(a, hi), (b, hi)} if upper else {(lo, a), (lo, b)}
            assert one <= covers and not other <= covers
    assert lattice_properties(lat) == {k: v is None for k, v in w.items()}


def test_properties_match_law_scans_on_small_lattices(
    pentagon_lattice, diamond_lattice, chain_lattice
):
    for t in (pentagon_lattice, diamond_lattice, chain_lattice):
        assert_matches_law_scans(t, t.lattice())


QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"


def assert_congruence_lattice_matches_law_scans(q):
    s = build_semigroup(q)
    congs = enumerate_congruences(s)
    assert_matches_law_scans(congruence_table(congs), congruence_lattice(s))


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_properties_match_law_scans_on_shipped_quivers(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    assert_congruence_lattice_matches_law_scans(q)
    ideals = ideal_lattice(q)
    assert_matches_law_scans(ideals, ideals.lattice())


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_properties_match_law_scans_on_wide_quivers(q):
    assert_congruence_lattice_matches_law_scans(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_properties_match_law_scans_on_random_quivers(seed):
    q = random_acyclic_quiver(random.Random(seed), 4, 5, 12)
    assert_congruence_lattice_matches_law_scans(q)


@st.composite
def closure_systems(draw):
    """Subsets of at most 6 points closed under intersection, with the full set, by inclusion.

    Every finite lattice with at most six join-irreducibles is one of
    these, so they reach shapes that no path semigroup's congruence
    lattice takes.
    """
    full = (1 << draw(st.integers(0, 6))) - 1
    family = {full, *draw(st.lists(st.integers(0, full), max_size=12))}
    while fresh := {a & b for a in family for b in family} - family:
        family |= fresh
    return closure_lattice(sorted(family))


@given(closure_systems())
@settings(max_examples=200, deadline=None)
def test_properties_match_law_scans_on_closure_systems(t):
    assert_matches_law_scans(t, t.lattice())


@given(closure_systems())
@settings(max_examples=100, deadline=None)
def test_distributive_iff_join_irreducibles_count_the_length(t):
    # a modular lattice of finite length is distributive iff its length is
    # the number of its join-irreducibles; a cheap oracle, not the decision
    w = property_witnesses(t.lattice())
    height = [0] * t.n
    for lo, hi in sorted(t.covers, key=lambda c: t.leq[:, c[0]].sum()):
        height[hi] = max(height[hi], height[lo] + 1)
    if w["modular"] is None:
        assert (w["distributive"] is None) == (len(t.join_irreducibles()) == max(height))


# The one pass over each element's covers against ``reference_witnesses``,
# which tests every pair of lower covers with Lindig's test and scans each
# element for a diamond: every witness must be the same.


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_witnesses_match_reference_on_random_quivers(seed):
    q = random_acyclic_quiver(random.Random(seed), 4, 5, 16)
    lat = congruence_lattice(build_semigroup(q))
    assert property_witnesses(lat) == reference_witnesses(lat)


# (modular, distributive) of each family member, so all three kinds are met
FAMILIES = [
    *((f"kronecker{k}", kronecker_quiver(k), (k < 3, k < 2)) for k in range(2, 7)),
    *((f"star{k}", star_quiver(k), (True, True)) for k in range(2, 7)),
    ("doubled1", doubled_chain_quiver(1), (True, False)),
    ("doubled2", doubled_chain_quiver(2), (False, False)),
]


@pytest.mark.parametrize(
    "q, kind", [family[1:] for family in FAMILIES], ids=[family[0] for family in FAMILIES]
)
def test_witnesses_match_reference_on_quiver_families(q, kind):
    lat = congruence_lattice(build_semigroup(q))
    w = property_witnesses(lat)
    assert w == reference_witnesses(lat)
    assert (w["modular"] is None, w["distributive"] is None) == kind


def spy_diamond(monkeypatch):
    calls = []
    real = lattice._diamond
    monkeypatch.setattr(lattice, "_diamond", lambda *args: calls.append(args) or real(*args))
    return calls


def test_diamond_search_runs_only_for_its_witness(monkeypatch):
    calls = spy_diamond(monkeypatch)
    lattice_properties(congruence_lattice(build_semigroup(star_quiver(5))))
    assert calls == []  # distributive: no meet repeats
    lat = congruence_lattice(build_semigroup(kronecker_quiver(2)))
    assert property_witnesses(lat)["distributive"] is not None
    assert len(calls) == 1


def test_diamond_witness_above_the_bottom(monkeypatch):
    # 0 < p under an M3 on p, whose atoms are p+a, p+b, p+c: the only
    # diamond sits at p, where a congruence lattice always has its first
    t = closure_lattice([0b0000, 0b0001, 0b0011, 0b0101, 0b1001, 0b1111])
    lat = t.lattice()
    calls = spy_diamond(monkeypatch)
    w = property_witnesses(lat)
    assert w == reference_witnesses(lat)
    assert w["modular"] is None and w["distributive"] == (2, 3, 4)
    assert len(calls) == 1 and calls[0][3] == lat.upper_covers[1]


def test_repeated_meet_before_a_lower_failure_gives_no_diamond(monkeypatch):
    # an M3 on 0, 1, 2, 3, 4 under an N5 on 4, 5, 6, 7, 8 (4 < 5 < 6 < 8,
    # 4 < 7 < 8): the lower covers of 4 repeat their meet 0 before the
    # lower covers 6, 7 of 8 fail, so the distributive witness is the
    # modular one, not a diamond
    t = closure_lattice([0, 0b1, 0b10, 0b100, 0b111, 0b1111, 0b11111, 0b100111, 0b111111])
    lat = t.lattice()
    calls = spy_diamond(monkeypatch)
    w = property_witnesses(lat)
    assert w == reference_witnesses(lat)
    assert w["lower_semimodular"] == (6, 7)
    assert w["distributive"] == w["modular"] is not None
    assert calls == []


def test_lattice_properties_builds_the_cover_matrix_once(monkeypatch, kronecker):
    calls = []
    real = lattice._cover_mask
    monkeypatch.setattr(lattice, "_cover_mask", lambda *args: calls.append(1) or real(*args))
    lattice_properties(congruence_lattice(build_semigroup(kronecker)))
    assert len(calls) == 1


# The join table against the oracle's: column k of ``succ`` is the join
# with generator k, which is the join of the bottom with it.  Lattices
# built here take only the join-irreducibles as generators.


def assert_tables_match_oracle(t, lat):
    bottom = int(np.flatnonzero(t.leq.all(axis=1))[0])
    assert lat.succ == tuple(map(tuple, t.join[:, list(lat.succ[bottom])].tolist()))
    assert lat.covers == t.covers


def test_tables_match_oracle_on_small_lattices(pentagon_lattice, diamond_lattice, chain_lattice):
    for t in (pentagon_lattice, diamond_lattice, chain_lattice):
        ji = list(t.join_irreducibles())
        for generators in (ji, ji + list(range(t.n))):  # repeats change nothing
            assert_tables_match_oracle(t, t.lattice(generators))


def assert_congruence_tables_match_oracle(q):
    s = build_semigroup(q)
    congs = enumerate_congruences(s)
    assert_tables_match_oracle(congruence_table(congs), congruence_lattice(s))


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_tables_match_oracle_on_shipped_quivers(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    assert_congruence_tables_match_oracle(q)
    ideals = ideal_lattice(q)
    assert_tables_match_oracle(ideals, ideals.lattice(ideals.join_irreducibles()))


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_tables_match_oracle_on_wide_quivers(q):
    assert_congruence_tables_match_oracle(q)


@given(closure_systems())
@settings(max_examples=100, deadline=None)
def test_tables_match_oracle_on_closure_systems(t):
    lat = t.lattice(t.join_irreducibles())
    assert_tables_match_oracle(t, lat)
    assert property_witnesses(lat) == property_witnesses(t.lattice())
