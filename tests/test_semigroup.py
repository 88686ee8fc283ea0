import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcong import _kernels, ideals, semigroup
from pathcong import (
    CapExceeded,
    PathSemigroup,
    PathVector,
    Quiver,
    build_semigroup,
    congruence_from_blocks,
    congruence_from_json,
    congruence_to_ideal,
    connected_components,
    enumerate_congruences,
    enumerate_paths,
    ideal_to_congruence,
    identity_congruence,
    is_rees,
    join_congruences,
    max_parallel_paths,
    meet_congruences,
    parse_quiver,
    path_counts,
    principal_congruence,
    random_acyclic_quiver,
    row_reduce,
    universal_congruence,
)
from pathcong.verify import congruence_label, congruence_lattice

from oracles import (
    direct_join_closure,
    enumerate_congruences_bruteforce,
    kronecker_quiver,
    star_quiver,
    table_rows,
)

QUIVER_FILES_DIR = Path(__file__).resolve().parent.parent / "quivers"


@pytest.fixture
def s2(single_arrow):
    return build_semigroup(single_arrow)


@pytest.fixture
def s6(kronecker):
    return build_semigroup(kronecker)


@pytest.fixture
def s4(triple_arrow):
    return build_semigroup(triple_arrow)


def test_elements_and_indexing(s2):
    assert [s2.element_name(i) for i in range(s2.n)] == ["0", "1", "2", "alpha"]
    assert s2.index_by_name("alpha") == 3


def test_single_arrow_products(s2):
    e1, e2, alpha = (s2.index_by_name(n) for n in ("1", "2", "alpha"))
    t = table_rows(s2)
    assert t[e1][alpha] == alpha
    assert t[alpha][e2] == alpha
    assert t[alpha][alpha] == 0
    assert t[e1][e2] == 0


def test_trivial_paths_are_idempotent(s2, s6, s4):
    for s in (s2, s6, s4):
        for v in s.quiver.vertices:
            e = s.index_by_name(v)
            assert table_rows(s)[e][e] == e


def test_chain_products(chain3):
    s = build_semigroup(chain3)
    a, b, ab = (s.index_by_name(n) for n in ("a", "b", "a.b"))
    t = table_rows(s)
    assert t[a][b] == ab
    assert t[b][a] == 0


def test_zero_is_absorbing(s6):
    t = table_rows(s6)
    for i in range(s6.n):
        assert t[0][i] == 0
        assert t[i][0] == 0


def test_associativity_all_triples(chain3):
    rng = random.Random(23)
    quivers = [chain3] + [random_acyclic_quiver(rng) for _ in range(5)]
    for q in quivers:
        s = build_semigroup(q)
        t = table_rows(s)
        for x, y, z in itertools.product(range(s.n), repeat=3):
            assert t[t[x][y]][z] == t[x][t[y][z]]


def test_length_grading(chain3):
    rng = random.Random(29)
    for q in [chain3] + [random_acyclic_quiver(rng) for _ in range(5)]:
        s = build_semigroup(q)
        lengths = [None] + [p.length for p in s.paths]
        t = table_rows(s)
        for x in range(1, s.n):
            for y in range(1, s.n):
                p = t[x][y]
                if p != 0:
                    assert lengths[p] == lengths[x] + lengths[y]


def test_idempotents_are_zero_and_trivial_paths(chain3):
    rng = random.Random(31)
    for q in [chain3] + [random_acyclic_quiver(rng) for _ in range(5)]:
        s = build_semigroup(q)
        trivials = {s.index_by_name(v) for v in q.vertices}
        t = table_rows(s)
        assert {x for x in range(s.n) if t[x][x] == x} == {0} | trivials


def test_congruence_stores_canonical_labels():
    s = build_semigroup(parse_quiver((QUIVER_FILES_DIR / "kronecker.quiver").read_text()))
    relabelled = semigroup.Congruence(s, bytes([1, 0, 2, 3, 4]))
    assert relabelled == identity_congruence(s)
    assert relabelled.labels == bytes(range(s.n))
    assert hash(relabelled) == hash(identity_congruence(s))


def test_congruence_rejects_a_wrong_length_label_vector(s2):
    for labels in (bytes(s2.n - 1), bytes(s2.n + 1)):
        with pytest.raises(ValueError, match="labels for a semigroup of 4 elements"):
            semigroup.Congruence(s2, labels)


def test_principal_congruence_reflexive_pair(s2):
    for x in range(s2.n):
        assert principal_congruence(s2, x, x) == identity_congruence(s2)


def test_principal_congruence_single_arrow_rees(s2):
    alpha = s2.index_by_name("alpha")
    c = principal_congruence(s2, alpha, 0)
    assert c.blocks == ((0, alpha), (1,), (2,))


def test_principal_congruence_kronecker_pair(s6):
    alpha, beta = s6.index_by_name("alpha"), s6.index_by_name("beta")
    c = principal_congruence(s6, alpha, beta)
    assert c.blocks == ((0,), (1,), (2,), (alpha, beta))
    c.validate()


def test_join_meet_with_bounds(s2):
    top = universal_congruence(s2)
    bottom = identity_congruence(s2)
    for c in enumerate_congruences(s2):
        assert join_congruences(c, bottom) == c
        assert meet_congruences(c, top) == c
        assert join_congruences(c, top) == top
        assert meet_congruences(c, bottom) == bottom


def test_single_arrow_join_of_side_congruences(s2):
    rho3 = congruence_from_blocks(s2, [[0, 1, 3], [2]])
    rho4 = congruence_from_blocks(s2, [[0, 2, 3], [1]])
    assert join_congruences(rho3, rho4) == universal_congruence(s2)


def test_kronecker_join_meet(s6):
    alpha, beta = s6.index_by_name("alpha"), s6.index_by_name("beta")
    rho3 = congruence_from_blocks(s6, [[0, alpha], [1], [2], [beta]])
    rho4 = congruence_from_blocks(s6, [[0, beta], [1], [2], [alpha]])
    assert meet_congruences(rho3, rho4) == identity_congruence(s6)
    rho5 = congruence_from_blocks(s6, [[0, alpha, beta], [1], [2]])
    assert join_congruences(rho3, rho4) == rho5


def test_congruence_counts(s2, s6, s4):
    assert len(enumerate_congruences(s2)) == 5
    assert len(enumerate_congruences(s6)) == 8
    assert len(enumerate_congruences(s4)) == 18


def test_single_arrow_congruences_explicit(s2):
    got = {c.blocks for c in enumerate_congruences(s2)}
    assert got == {
        ((0,), (1,), (2,), (3,)),
        ((0, 3), (1,), (2,)),
        ((0, 1, 3), (2,)),
        ((0, 2, 3), (1,)),
        ((0, 1, 2, 3),),
    }


def test_bruteforce_single_arrow(s2):
    assert enumerate_congruences_bruteforce(s2) == enumerate_congruences(s2)


def test_bruteforce_one_vertex():
    s = build_semigroup(Quiver(["v"]))
    congs = enumerate_congruences_bruteforce(s)
    assert len(congs) == 2
    assert congs == enumerate_congruences(s)


def test_bruteforce_chain_matches(chain3):
    s = build_semigroup(chain3)
    assert enumerate_congruences_bruteforce(s) == enumerate_congruences(s)


def test_enumeration_cap(s2):
    with pytest.raises(CapExceeded):
        enumerate_congruences(s2, max_elements=3)
    with pytest.raises(CapExceeded):
        enumerate_congruences_bruteforce(s2, max_elements=3)


def test_is_rees(s2, s6):
    assert is_rees(identity_congruence(s2))
    alpha, beta = s6.index_by_name("alpha"), s6.index_by_name("beta")
    rho2 = congruence_from_blocks(s6, [[0], [1], [2], [alpha, beta]])
    assert not is_rees(rho2)
    assert all(is_rees(c) for c in enumerate_congruences(s2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_is_rees_matches_singleton_blocks_on_random_quivers(seed):
    # is_rees counts labels; the definition reads the blocks
    s = build_semigroup(random_acyclic_quiver(random.Random(seed), 4, 5, 12))
    for c in enumerate_congruences(s):
        assert is_rees(c) == all(len(block) == 1 for block in c.blocks[1:])


def test_zero_block_is_an_ideal(s2, s6, s4):
    for s in (s2, s6, s4):
        t = table_rows(s)
        for c in enumerate_congruences(s):
            zero = set(c.blocks[0])
            for x in zero:
                for a in range(s.n):
                    assert t[a][x] in zero
                    assert t[x][a] in zero


def test_nonzero_blocks_share_endpoints(s2, s6, s4):
    # pairs outside the zero block have equal sources and targets; in
    # particular two distinct trivial paths only ever meet in the zero block
    for s in (s2, s6, s4):
        for c in enumerate_congruences(s):
            for block in c.blocks[1:]:
                paths = [s.paths[i - 1] for i in block]
                assert len({(p.source, p.target) for p in paths}) == 1
                assert sum(p.is_trivial for p in paths) <= 1


@pytest.mark.parametrize(
    "q",
    [
        Quiver(["1", "2"], [("alpha", "1", "2"), ("beta", "1", "2")]),
        Quiver(["c", "l1", "l2", "l3"], [(f"a{i}", "c", f"l{i}") for i in (1, 2, 3)]),
        Quiver(["1", "2"], [(name, "1", "2") for name in ("alpha", "beta", "gamma")]),
        connected_components(
            Quiver(
                ["1", "2", "3", "4", "5", "6"],
                [("alpha", "1", "2"), ("beta", "1", "2"), ("c", "3", "4"), ("d", "5", "6")],
            )
        )[1],  # [0] is the Kronecker quiver above
    ],
    ids=["s6", "star", "triple_arrow", "component"],
)
def test_congruences_closed_under_join_and_meet(q):
    s = build_semigroup(q)
    congs = enumerate_congruences(s)
    known = {c.labels: i for i, c in enumerate(congs)}
    # each congruence is the join of the generators below it, so the partition
    # meet is the one whose generator set is the two generator sets' intersection
    S = s.congruence_closure[1]
    G = [sum(1 << k for k, d in enumerate(row) if d == c) for c, row in enumerate(S)]
    by_generators = {g: i for i, g in enumerate(G)}
    for i, a in enumerate(congs):
        for j, b in enumerate(congs):
            assert join_congruences(a, b).labels in known
            assert known[meet_congruences(a, b).labels] == by_generators[G[i] & G[j]]


def test_congruence_json_roundtrip(s6):
    for c in enumerate_congruences(s6):
        assert congruence_from_json(s6, c.to_json_dict()) == c


def test_congruence_json_shape(s2):
    alpha = s2.index_by_name("alpha")
    c = principal_congruence(s2, alpha, 0)
    assert c.to_json_dict() == {"blocks": [["0", "alpha"], ["1"], ["2"]]}


def test_congruence_repr_is_its_label(s6):
    for c in enumerate_congruences(s6):
        assert repr(c) == f"Congruence({congruence_label(c)})"


def test_from_blocks_rejects_non_congruence(s2):
    # {e1, alpha} alone is not compatible: e1*e1=e1 but alpha*e1=0
    with pytest.raises(ValueError):
        congruence_from_blocks(s2, [[1, 3], [0], [2]])
    with pytest.raises(ValueError):
        congruence_from_blocks(s2, [[0, 1], [1, 2], [3]])


@pytest.mark.parametrize("blocks", [[["x"]], [[0.5]], 3], ids=["string", "float", "bare-int"])
def test_from_blocks_rejects_elements_that_are_not_ints(s2, blocks):
    with pytest.raises(ValueError, match="integer element indices"):
        congruence_from_blocks(s2, blocks)


def test_congruence_from_json_names_an_unknown_element(s6):
    with pytest.raises(ValueError, match="unknown element 'gamma'"):
        congruence_from_json(s6, {"blocks": [["0", "gamma"], ["1"], ["2"], ["alpha"], ["beta"]]})


@pytest.mark.parametrize(
    "obj",
    [{}, {"blocks": 3}, [["0", "alpha"]], None, {"blocks": [3]}, {"blocks": [[["0"]]]}],
    ids=["no-blocks", "blocks-not-a-list", "top-level-list", "null", "block-not-a-list", "name-not-a-string"],
)
def test_congruence_from_json_rejects_malformed_input(s6, obj):
    with pytest.raises(ValueError, match="expected"):
        congruence_from_json(s6, obj)


def test_mismatched_semigroups_rejected(s2, s6):
    with pytest.raises(ValueError):
        join_congruences(identity_congruence(s2), identity_congruence(s6))
    with pytest.raises(ValueError):
        congruence_to_ideal(s2, identity_congruence(s6))


def test_semigroups_of_one_quiver_compare_equal(kronecker, single_arrow):
    s, t = PathSemigroup(kronecker), PathSemigroup(Quiver(kronecker.vertices, kronecker.arrows))
    assert s is not t and s == t and hash(s) == hash(t)
    assert s != PathSemigroup(single_arrow) and s != kronecker
    ours, theirs = enumerate_congruences(s), enumerate_congruences(t)
    assert ours == theirs
    assert join_congruences(ours[1], theirs[2]) == join_congruences(ours[1], ours[2])
    for c in ours:
        assert ideal_to_congruence(t, congruence_to_ideal(t, c)) == c


def test_join_that_is_not_a_congruence_raises(s2, monkeypatch):
    # blocks {0} {1, 2} {alpha} are not compatible: 1.alpha = alpha but 2.alpha = 0
    monkeypatch.setattr(_kernels, "join_labels", lambda a, b: bytes([0, 1, 1, 2]))
    with pytest.raises(RuntimeError):
        join_congruences(identity_congruence(s2), identity_congruence(s2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_join_closure_matches_bruteforce_on_random_quivers(seed):
    s = build_semigroup(random_acyclic_quiver(random.Random(seed), 4, 5, 9))
    assert enumerate_congruences(s) == enumerate_congruences_bruteforce(s)


def eager_semigroup(q):
    """The builder the lazy semigroup replaced: paths, name index and table up front."""
    paths = tuple(enumerate_paths(q))
    index: dict = {}
    for i, p in enumerate(paths, start=1):
        index[p.source if p.is_trivial else p.arrows] = i
    n = len(paths) + 1
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(paths, start=1):
        row = table[i]
        for j, r in enumerate(paths, start=1):
            if p.target != r.source:
                continue
            arrows = p.arrows + r.arrows
            row[j] = index[arrows if arrows else p.source]
    names = {"0": 0}
    for i, p in enumerate(paths, start=1):
        names[p.name] = i
    return paths, names, tuple(tuple(row) for row in table)


def assert_matches_eager(q):
    paths, names, table = eager_semigroup(q)
    s = build_semigroup(q)
    assert s.n == len(paths) + 1
    assert s.paths == paths
    assert s.table_bytes == bytes(v for row in table for v in row)
    assert {name: s.index_by_name(name) for name in names} == names
    assert [s.element_name(i) for i in range(s.n)] == list(names)


QUIVER_FILES = sorted(QUIVER_FILES_DIR.glob("*.quiver"))


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda p: p.stem)
def test_lazy_semigroup_matches_eager_builder(path):
    assert_matches_eager(parse_quiver(path.read_text()))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lazy_semigroup_matches_eager_builder_on_random_quivers(seed):
    assert_matches_eager(random_acyclic_quiver(random.Random(seed), 5, 7, 60))


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda p: p.stem)
def test_max_parallel_paths_is_the_largest_path_count(path):
    q = parse_quiver(path.read_text())
    s = PathSemigroup(q)
    assert s.max_parallel_paths == max(path_counts(q).values()) == max_parallel_paths(q)
    assert s._paths is None  # read from the counts; no path is listed
    assert PathSemigroup(Quiver([], [])).max_parallel_paths == 0


def test_table_bytes_refuses_past_the_kernel_limit_from_the_count():
    # a chain of 22 vertices has 253 paths: 254 elements fit, 23 vertices (277) do not
    def chain(k):
        vs = [f"v{i}" for i in range(k)]
        return Quiver(vs, [(f"a{i}", vs[i], vs[i + 1]) for i in range(k - 1)])

    assert len(build_semigroup(chain(22)).table_bytes) == 254**2
    big = build_semigroup(chain(23))
    with pytest.raises(CapExceeded, match="277 elements exceeds the kernel table limit of 255"):
        big.table_bytes


# Enumeration joins only the join-irreducible principal congruences, and
# tries only the pairs (0, y) and the parallel pairs.  The reference tries
# every pair, keeps each distinct principal that is not the join of the
# distinct principals strictly below it, and forms every join.


def all_principal_closure(s):
    """Every congruence as label bytes, finest first, and its join table with
    the join-irreducible principals, from every pair (x, y)."""
    n = s.n
    principals = {}
    for x, y in itertools.combinations(range(n), 2):
        principals.setdefault(_kernels.principal_labels(s.table_bytes, n, x, y), (x, y))

    def irreducible(lab):
        acc = bytes(range(n))
        for other in principals:
            if other != lab and _kernels.join_labels(other, lab) == lab:
                acc = _kernels.join_labels(acc, other)
        return acc != lab

    atoms = [(x, y, lab) for lab, (x, y) in principals.items() if irreducible(lab)]
    found, succ = direct_join_closure(semigroup.congruence_route(s)._replace(atoms=atoms))
    return tuple(found), tuple(map(tuple, succ))


def assert_generators_are_join_irreducible(q):
    s = PathSemigroup(q)  # not cached, so its closure runs here
    congs, generators = enumerate_congruences(s), semigroup.congruence_route(s).atoms
    expected, _ = all_principal_closure(s)
    assert len(congs) == len(expected)
    assert {c.labels for c in congs} == set(expected)
    lat = congruence_lattice(s)
    lower_covers = [0] * lat.n
    for _, hi in lat.covers:
        lower_covers[hi] += 1
    irreducible = {lat.elements[i].labels for i in range(lat.n) if lower_covers[i] == 1}
    kept = [lab for _, _, lab in generators]
    assert len(set(kept)) == len(kept) == len(ideals.all_relations(q))
    assert set(kept) == irreducible
    for x, y, lab in generators:
        assert _kernels.principal_labels(s.table_bytes, s.n, x, y) == lab


# Shapes the Kronecker and star families lack: parallel paths of length 2
# (12 elements, 124 congruences), parallel paths of unequal length (9, 43),
# and several components with an isolated vertex (9, 80).
MORE_SHAPES = {
    "doubled-chain2": Quiver(
        ["1", "2", "3"], [("a0", "1", "2"), ("b0", "1", "2"), ("a1", "2", "3"), ("b1", "2", "3")]
    ),
    "chain-and-two-shortcuts": Quiver(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3"), ("d", "1", "3")]
    ),
    "kronecker2-arrow-point": Quiver(
        ["1", "2", "3", "4", "5"], [("a1", "1", "2"), ("a2", "1", "2"), ("b", "3", "4")]
    ),
}


@pytest.mark.parametrize("q", [kronecker_quiver(4), star_quiver(4)], ids=["kronecker4", "star4"])
def test_join_closure_table_records_each_join(q):
    # row i, column k is the index of element i joined with atom k, also
    # where the atom lies below and no join is formed
    s = build_semigroup(q)
    pairs = [(0, 3), (3, 4), (1, 2)]
    atoms = [(x, y, _kernels.principal_labels(s.table_bytes, s.n, x, y)) for x, y in pairs]
    found, succ = semigroup.join_closure(semigroup.congruence_route(s)._replace(atoms=atoms))
    assert len(set(found)) == len(found) == len(succ)
    for cur, row in zip(found, succ):
        assert [found[j] for j in row] == [_kernels.join_labels(cur, lab) for _, _, lab in atoms]


# join_closure reads a join from its table where an earlier row decides
# it; the oracle forms every join.  Both run on each route: the
# join-irreducible principals with join_labels, and one single-relation
# ideal per relation with ideal_join.

ROUTES = {
    "congruences": lambda q: semigroup.congruence_route(build_semigroup(q)),
    "ideals": ideals.ideal_route,
}


def assert_closure_matches_direct(q, name):
    route = ROUTES[name](q)
    found, succ = semigroup.join_closure(route)
    if name == "ideals":
        keys = {ideal.space.key() for _, _, ideal in route.atoms}
        assert len(keys) == len(route.atoms) == len(ideals.all_relations(q))
    # both routes test "below" on the elements (x, y) of one relation per column
    assert tuple((x, y) for x, y, _ in route.atoms) == build_semigroup(q).congruence_closure[2]
    expected, expected_succ = direct_join_closure(route)
    assert list(found) == expected
    assert succ == tuple(map(tuple, expected_succ))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "q",
    [
        *(parse_quiver(p.read_text()) for p in QUIVER_FILES),
        kronecker_quiver(5),
        star_quiver(5),
        *MORE_SHAPES.values(),
    ],
    ids=[*(p.stem for p in QUIVER_FILES), "kronecker5", "star5", *MORE_SHAPES],
)
def test_join_closure_matches_direct_closure(q, route):
    assert_closure_matches_direct(q, route)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_join_closure_matches_direct_closure_on_random_quivers(seed):
    q = random_acyclic_quiver(random.Random(seed), 4, 5, 12)
    for route in ROUTES:
        assert_closure_matches_direct(q, route)


# A row forms at most one join per pair of blocks its atoms' x and y lie
# in; the rest of the row is read from its table or from that pair.


def closure_with_formed_joins(q, name):
    """One route of q, its closure, and each join the closure formed as
    (the element, index of the atom)."""
    route = ROUTES[name](q)
    column = {payload: k for k, (_, _, payload) in enumerate(route.atoms)}
    formed = []

    def counted(cur, payload):
        formed.append((cur, column[payload]))
        return route.join(cur, payload)

    return route, semigroup.join_closure(route._replace(join=counted)), formed


WIDE = Quiver(["u", "v", "w"], [(a, "u", "v") for a in "abc"] + [(a, "v", "w") for a in "de"])


# (elements, joins formed): Kronecker(5) and star(5) form one join per
# element after the seed; on the wide quiver 166 joins find an element
# that another row found first
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "q, elements, joins",
    [(kronecker_quiver(5), 206, 205), (star_quiver(5), 275, 274), (WIDE, 1445, 1610)],
    ids=["kronecker5", "star5", "wide"],
)
def test_join_closure_forms_the_fewest_joins(q, elements, joins, route):
    _, (found, _), formed = closure_with_formed_joins(q, route)
    assert (len(found), len(formed)) == (elements, joins)
    assert len(set(formed)) == joins  # no (element, atom) join twice


@pytest.mark.parametrize("name", ROUTES)
def test_join_closure_reads_a_join_across_the_same_blocks(name):
    # on Kronecker(3) the row theta(0, a1), or (a1), has 0 and a1 in one
    # block, so the atoms (0, a2) and (a1, a2) join it across the same two
    # blocks: the first join is formed, the second read from it.  The
    # seed's row finds theta(a1, a2) after theta(0, a1), so the table
    # cannot decide that entry
    q = kronecker_quiver(3)
    a1, a2 = map(build_semigroup(q).index_by_name, ("a1", "a2"))
    route, (found, table), formed = closure_with_formed_joins(q, name)
    pairs = [(x, y) for x, y, _ in route.atoms]
    k_a1, k0, k1 = map(pairs.index, [(0, a1), (0, a2), (a1, a2)])
    row = table[0][k_a1]  # the seed comes first in both orders
    assert (found[row], k0) in formed
    assert (found[row], k1) not in formed
    assert table[row][k1] == table[row][k0] != row


def test_join_closure_keeps_spaces_that_share_a_label_vector():
    # on Kronecker(4) every subspace of span{a1, a2, a3, a4} is an ideal;
    # span{a1 - a2 - a3 + a4} and span{a1 - a2 + a3 - a4} leave every
    # residue distinct, as the zero ideal does, so all three share the
    # identity's labels.  The closure dedupes by the space, so it keeps the
    # three apart: verdict 1 then sees two ideals for one congruence
    q = kronecker_quiver(4)
    s = build_semigroup(q)
    a1, a2, a3, a4 = (s.index_by_name(f"a{i}") - 1 for i in range(1, 5))  # path indices

    def ideal(*vectors):
        return ideals.SpecialIdeal(q, 0, row_reduce(vectors, len(s.paths)))

    zero = ideal()
    p1 = ideal(PathVector({a1: 1, a2: -1, a3: -1, a4: 1}))
    p2 = ideal(PathVector({a1: 1, a2: -1, a3: 1, a4: -1}))
    assert p1.residue_labels == p2.residue_labels == zero.residue_labels == bytes(range(s.n))
    atoms = ((a1 + 1, a2 + 1, p1), (a3 + 1, a4 + 1, p2))
    route = semigroup.Route(zero, atoms, lambda i: i.residue_labels, ideals.ideal_join)
    found, table = semigroup.join_closure(route)
    both = ideal(PathVector({a1: 1, a2: -1}), PathVector({a3: 1, a4: -1}))
    assert found == (zero, p1, p2, both)  # label ties keep the order found
    assert table == ((1, 2), (1, 3), (3, 2), (3, 3))


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda p: p.stem)
def test_generators_are_join_irreducible_on_quiver_files(path):
    assert_generators_are_join_irreducible(parse_quiver(path.read_text()))


@pytest.mark.parametrize(
    "q",
    [kronecker_quiver(5), star_quiver(5), *MORE_SHAPES.values()],
    ids=["kronecker5", "star5", *MORE_SHAPES],
)
def test_generators_are_join_irreducible_on_wide_quivers(q):
    assert_generators_are_join_irreducible(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generators_are_join_irreducible_on_random_quivers(seed):
    assert_generators_are_join_irreducible(random_acyclic_quiver(random.Random(seed), 4, 5, 12))


@pytest.mark.parametrize("k", range(1, 7))
def test_star_keeps_2k_plus_1_generators(k):
    # every congruence is Rees; the join-irreducibles collapse the principal
    # ideals of the centre c, of each tip l_i and of each arrow a_i
    assert len(semigroup.congruence_route(build_semigroup(star_quiver(k))).atoms) == 2 * k + 1


def assert_closure_matches_all_pairs(q):
    s = PathSemigroup(q)
    calls = []
    real = _kernels.principal_labels

    def spy(*args):
        calls.append(args[2:])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "principal_labels", spy)
        route = semigroup.congruence_route(s)
        labels, table = semigroup.join_closure(route)
    parallel = sum(c * (c - 1) // 2 for c in path_counts(q).values())
    assert len(calls) == (s.n - 1) + parallel
    # one generator pair per table column, in order
    assert [(x, y) for x, y, _ in route.atoms] == calls
    expected, expected_table = all_principal_closure(s)
    assert labels == expected
    assert table == expected_table


@pytest.mark.parametrize(
    "q",
    [
        *(kronecker_quiver(k) for k in range(1, 6)),
        *(star_quiver(k) for k in range(1, 6)),
        *MORE_SHAPES.values(),
    ],
    ids=[*(f"kronecker{k}" for k in range(1, 6)), *(f"star{k}" for k in range(1, 6)), *MORE_SHAPES],
)
def test_closure_from_zero_and_parallel_pairs_matches_all_pairs(q):
    assert_closure_matches_all_pairs(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closure_from_zero_and_parallel_pairs_matches_all_pairs_on_random_quivers(seed):
    assert_closure_matches_all_pairs(random_acyclic_quiver(random.Random(seed), 4, 5, 12))
