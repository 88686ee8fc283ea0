import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcong import (
    LatticeError,
    Quiver,
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
    parse_quiver,
    property_witnesses,
    random_acyclic_quiver,
    zero_ideal,
)
from pathcong import lattice
from pathcong.lattice import (
    PROPERTY_NAMES,
    _first_true,
    is_diamond_sublattice,
    is_pentagon_sublattice,
)
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


def test_build_copies_the_callers_order():
    leq = np.array([[True, True], [False, True]])
    before = leq.copy()
    lat = build_lattice([0, 1], leq)
    assert leq.flags.writeable
    assert (leq == before).all()
    assert not lat.leq.flags.writeable


# The reference for ``property_witnesses``: the exhaustive O(m^3) law
# scans, and one cover mask per semimodularity property.


def law_distributive(lat):
    """Exhaustive check of (a v b) ^ c == (a ^ c) v (b ^ c); witness on failure."""
    J, M = lat.join, lat.meet
    for a in range(lat.n):
        lhs = M[J[a]]
        rhs = J[M[a][None, :], M]
        hit = _first_true(lhs != rhs)
        if hit:
            return False, (a, hit[0], hit[1])
    return True, None


def law_modular(lat):
    """Exhaustive check of a <= c implying (a v b) ^ c == a v (b ^ c)."""
    J, M, L = lat.join, lat.meet, lat.leq
    for a in range(lat.n):
        lhs = M[J[a]]
        rhs = J[a, M]
        hit = _first_true((lhs != rhs) & L[a][None, :])
        if hit:
            return False, (a, hit[0], hit[1])
    return True, None


def semimodularity_masks(lat):
    C = np.zeros((lat.n, lat.n), dtype=bool)
    for i, j in lat.covers:
        C[i, j] = True
    J, M = lat.join, lat.meet
    ar = np.arange(lat.n)
    ma = C[M, ar[:, None]]  # a covers a ^ b
    mb = C[M, ar[None, :]]  # b covers a ^ b
    ja = C[ar[:, None], J]  # a v b covers a
    jb = C[ar[None, :], J]  # a v b covers b
    return {
        "strong_upper_semimodular": _first_true(ma & ~jb),
        "strong_lower_semimodular": _first_true(ja & ~mb),
        "upper_semimodular": _first_true((ma & mb) & ~(ja & jb)),
        "lower_semimodular": _first_true((ja & jb) & ~(ma & mb)),
    }


def assert_matches_law_scans(lat):
    w = property_witnesses(lat)
    assert tuple(w) == PROPERTY_NAMES
    assert (w["distributive"] is None) == law_distributive(lat)[0]
    assert (w["modular"] is None) == law_modular(lat)[0]
    J, M, L = lat.join, lat.meet, lat.leq
    if w["distributive"] is not None:
        a, b, c = w["distributive"]
        assert M[J[a, b], c] != J[M[a, c], M[b, c]]
    if w["modular"] is not None:
        a, b, c = w["modular"]
        assert L[a, c] and M[J[a, b], c] != J[a, M[b, c]]
    assert {k: w[k] for k in PROPERTY_NAMES[2:]} == semimodularity_masks(lat)
    assert lattice_properties(lat) == {k: v is None for k, v in w.items()}


def test_properties_match_law_scans_on_small_lattices(
    pentagon_lattice, diamond_lattice, chain_lattice
):
    for lat in (pentagon_lattice, diamond_lattice, chain_lattice):
        assert_matches_law_scans(lat)


QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_properties_match_law_scans_on_shipped_quivers(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    s = build_semigroup(q)
    assert_matches_law_scans(congruence_lattice(s, enumerate_congruences(s)))
    assert_matches_law_scans(ideal_lattice(q))


def kronecker_quiver(arrows):
    return Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(1, arrows + 1)])


def star_quiver(leaves):
    tips = [f"l{i}" for i in range(1, leaves + 1)]
    return Quiver(["c", *tips], [(f"a{i}", "c", t) for i, t in enumerate(tips, start=1)])


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_properties_match_law_scans_on_wide_quivers(q):
    s = build_semigroup(q)
    assert_matches_law_scans(congruence_lattice(s, enumerate_congruences(s)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_properties_match_law_scans_on_random_quivers(seed):
    s = build_semigroup(random_acyclic_quiver(random.Random(seed), 4, 5, 12))
    assert_matches_law_scans(congruence_lattice(s, enumerate_congruences(s)))


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
    sets = sorted(family)
    return build_lattice(sets, np.array([[a & b == a for b in sets] for a in sets]))


@given(closure_systems())
@settings(max_examples=200, deadline=None)
def test_properties_match_law_scans_on_closure_systems(lat):
    assert_matches_law_scans(lat)


def test_lattice_properties_builds_the_cover_matrix_once(monkeypatch, kronecker):
    s = build_semigroup(kronecker)
    lat = congruence_lattice(s, enumerate_congruences(s))
    calls = []
    real = lattice._cover_matrix
    monkeypatch.setattr(lattice, "_cover_matrix", lambda lat: calls.append(1) or real(lat))
    lattice_properties(lat)
    assert len(calls) == 1


# The reference for ``_bound_table``: the earlier two-pass code, which
# derived each table by a first-common-bound scan per row and then checked
# it as a common bound and as extremal against every element.


def table_from_order(leq, upper):
    """Join (upper=True) or meet table: the first common bound in a linear extension."""
    n = leq.shape[0]
    above = leq if upper else leq.T
    order = np.argsort(-above.sum(axis=1), kind="stable")
    sorted_rows = above[:, order]
    table = np.empty((n, n), dtype=np.intp)
    for a in range(n):
        common = sorted_rows[a][None, :] & sorted_rows
        table[a] = order[np.argmax(common, axis=1)]
    return table


def verify_bound_table(L, T, labels, upper):
    """Raise LatticeError unless T[a, b] is the least upper (greatest lower) bound."""
    n = L.shape[0]
    ar = np.arange(n)
    kind = "join" if upper else "meet"
    rel = L if upper else L.T
    ok = rel[ar[:, None], T] & rel[ar[None, :], T]
    if not ok.all():
        a, b = map(int, np.argwhere(~ok)[0])
        raise LatticeError(f"{kind}({labels[a]!r}, {labels[b]!r}) is not a common bound")
    for c in range(n):
        inside = np.flatnonzero(rel[:, c])
        good = rel[T[np.ix_(inside, inside)].ravel(), c]
        if not good.all():
            flat = int(np.flatnonzero(~good)[0])
            a, b = int(inside[flat // len(inside)]), int(inside[flat % len(inside)])
            raise LatticeError(f"{kind}({labels[a]!r}, {labels[b]!r}) is not extremal")


def oracle_raises(fn, *args):
    try:
        fn(*args)
    except LatticeError:
        return True
    return False


def assert_tables_match_oracle(lat):
    for upper, table in ((True, lat.join), (False, lat.meet)):
        expected = table_from_order(lat.leq, upper)
        verify_bound_table(lat.leq, expected, lat.labels, upper)
        assert (table == expected).all()


def test_tables_match_oracle_on_small_lattices(pentagon_lattice, diamond_lattice, chain_lattice):
    for lat in (pentagon_lattice, diamond_lattice, chain_lattice):
        assert_tables_match_oracle(lat)


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_tables_match_oracle_on_shipped_quivers(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    s = build_semigroup(q)
    assert_tables_match_oracle(congruence_lattice(s, enumerate_congruences(s)))
    assert_tables_match_oracle(ideal_lattice(q))


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_tables_match_oracle_on_wide_quivers(q):
    s = build_semigroup(q)
    assert_tables_match_oracle(congruence_lattice(s, enumerate_congruences(s)))


@given(closure_systems())
@settings(max_examples=100, deadline=None)
def test_tables_match_oracle_on_closure_systems(lat):
    assert_tables_match_oracle(lat)


@st.composite
def partial_orders(draw):
    """A random partial order on at most 9 points, as a transitively closed boolean matrix.

    Edges run from lower to higher index, then the points are shuffled, so
    the order need not be a lattice and index order is not an extension.
    """
    n = draw(st.integers(1, 9))
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = draw(st.booleans())
    for k in range(n):
        leq[leq[:, k]] |= leq[k]
    perm = np.array(draw(st.permutations(range(n))))
    return leq[np.ix_(perm, perm)]


@given(partial_orders(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_derived_table_rejected_exactly_when_oracle_rejects(leq, upper):
    labels = [str(i) for i in range(len(leq))]
    expected = table_from_order(leq, upper)
    rejected = oracle_raises(verify_bound_table, leq, expected, labels, upper)
    try:
        table = lattice._bound_table(leq, labels, upper)
    except LatticeError:
        assert rejected
    else:
        assert not rejected and (table == expected).all()


@given(partial_orders(), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_supplied_table_with_one_wrong_cell_rejected_like_oracle(leq, upper, data):
    n = len(leq)
    labels = [f"x{i}" for i in range(n)]
    table = table_from_order(leq, upper)
    is_lattice = not oracle_raises(verify_bound_table, leq, table, labels, upper)
    a, b, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    table[a, b] = t
    rejected = oracle_raises(verify_bound_table, leq, table, labels, upper)
    try:
        lattice._bound_table(leq, labels, upper, table)
    except LatticeError as exc:
        assert rejected
        if is_lattice:  # only the changed cell is wrong, and the error names it
            assert f"('x{a}', 'x{b}') = 'x{t}' is wrong" in str(exc)
    else:
        assert not rejected


def test_one_row_blocks_give_the_same_tables_and_name_the_pair(monkeypatch):
    s = build_semigroup(kronecker_quiver(4))
    lat = congruence_lattice(s, enumerate_congruences(s))
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 1)  # every row is its own block
    assert_tables_match_oracle(build_lattice(lat.elements, lat.leq, labels=lat.labels))
    a, b = lat.n - 2, 1
    wrong = lat.join.copy()
    wrong[a, b] = lat.top if lat.join[a, b] != lat.top else lat.bottom
    with pytest.raises(LatticeError) as info:
        lattice._bound_table(lat.leq, lat.labels, True, wrong)
    assert str(info.value).startswith(f"join({lat.labels[a]!r}, {lat.labels[b]!r}) = ")
