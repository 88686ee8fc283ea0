import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcong import (
    PathVector,
    Quiver,
    Relation,
    all_relations,
    build_semigroup,
    check_theorems,
    commutative_relation,
    congruence_from_blocks,
    congruence_to_ideal,
    enumerate_congruences,
    enumerate_special_ideals,
    generate_ideal,
    ideal_join,
    ideal_to_congruence,
    identity_congruence,
    monomial_relation,
    parse_quiver,
    random_acyclic_quiver,
    random_suite,
    row_reduce,
    universal_congruence,
    zero_ideal,
)
from pathcong.ideals import SpecialIdeal, _bit, _relations, contains_relation, ideal_route
from pathcong.linalg import subspace_sum
from pathcong.semigroup import CapExceeded, Congruence, join_closure

from oracles import (
    congruence_to_ideal_eager,
    direct_join_closure,
    doubled_chain_quiver,
    ideal_meet,
    ideal_subset,
    kronecker_quiver,
    refines,
    relation_mask,
    star_quiver,
    subspace_intersection,
    table_rows,
)


QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"


def span(dim, *coeff_dicts):
    return row_reduce([PathVector(d) for d in coeff_dicts], dim)


def test_all_relations_counts(single_arrow, kronecker, triple_arrow):
    assert len(all_relations(single_arrow)) == 3
    assert len(all_relations(kronecker)) == 5
    assert len(all_relations(triple_arrow)) == 8


def test_all_relations_kronecker_content(kronecker):
    rels = set(all_relations(kronecker))
    # paths: e1, e2, alpha, beta -> indices 0..3
    monos = {monomial_relation(i) for i in range(4)}
    assert rels == monos | {commutative_relation(2, 3)}


def test_generate_ideal_from_trivial_path(single_arrow):
    # <e1> picks up alpha through the product e1 * alpha
    ideal = generate_ideal(single_arrow, [monomial_relation(0)])
    assert ideal.space == span(3, {0: 1}, {2: 1})


def test_generate_ideal_empty(kronecker):
    assert zero_ideal(kronecker).dim == 0


def test_generate_ideal_two_differences(triple_arrow):
    ideal = generate_ideal(triple_arrow, [commutative_relation(2, 3), commutative_relation(3, 4)])
    assert ideal.dim == 2
    assert ideal.space == span(5, {2: 1, 3: -1}, {3: 1, 4: -1})


def test_generating_sets_with_equal_span_give_equal_ideals(triple_arrow):
    variants = [
        [commutative_relation(2, 3), commutative_relation(2, 4)],
        [commutative_relation(2, 3), commutative_relation(3, 4)],
        [commutative_relation(2, 4), commutative_relation(3, 4)],
    ]
    ideals = [generate_ideal(triple_arrow, gens) for gens in variants]
    assert ideals[0] == ideals[1] == ideals[2]
    assert len({i.space.key() for i in ideals}) == 1


@pytest.mark.parametrize(
    "bad",
    [
        lambda npaths: monomial_relation(-1),
        lambda npaths: monomial_relation(npaths),
        lambda npaths: Relation(3, 3),
        lambda npaths: Relation(4, 2),
        lambda npaths: commutative_relation(3, 4),  # a: 1->2 and b: 2->3 are not parallel
        lambda npaths: commutative_relation(3, 3),
        lambda npaths: (0, 3),
        lambda npaths: Relation(0, 2.5),
        lambda npaths: Relation("a", 2),
    ],
    ids=["before the first path", "after the last path", "equal pair", "reversed pair",
         "not parallel", "one path twice", "plain tuple", "float index", "string index"],
)
def test_generate_rejects_invalid_relations(chain3, bad):
    with pytest.raises(ValueError):
        generate_ideal(chain3, [bad(len(build_semigroup(chain3).paths))])


def test_relations_are_element_pairs_built_from_path_indices(triple_arrow):
    # paths 0, 1 are the trivial paths and 2, 3, 4 alpha, beta, gamma;
    # element e is path e - 1, and element 0 the zero
    paths = build_semigroup(triple_arrow).paths
    mono, comm = monomial_relation(2), commutative_relation(4, 2)
    assert mono == (0, 3) and comm == (3, 5)
    assert (mono.display(paths), comm.display(paths)) == ("alpha", "alpha - gamma")
    assert mono.vectorize() == PathVector({2: 1})
    assert comm.vectorize() == PathVector({2: 1, 4: -1})
    ideal = generate_ideal(triple_arrow, [comm, monomial_relation(1), commutative_relation(2, 3)])
    assert ideal.mask == 1 << 1 | 1 << 18 | 1 << 19  # npaths*x + y - 1 for (x, y)
    assert sorted(ideal.generators) == _relations(ideal.mask, len(paths))  # bit order
    assert ideal.to_json_dict()["generators"] == ["2", "alpha - beta", "alpha - gamma"]


def test_ideal_spaces_are_multiplicatively_closed(chain3, triple_arrow):
    # generate_ideal forms its products by concatenation; multiplying by the
    # semigroup's table instead cross-checks the one against the other
    rng = random.Random(61)
    for q in (chain3, triple_arrow, random_acyclic_quiver(rng), random_acyclic_quiver(rng)):
        s = build_semigroup(q)
        t = table_rows(s)
        for ideal in enumerate_special_ideals(q):
            for w in ideal.space.basis:
                for u in range(s.n):
                    for v in range(s.n):
                        moved = {}
                        for idx, c in w.coeffs.items():
                            out = t[t[u][idx + 1]][v]
                            if out != 0:
                                moved[out - 1] = moved.get(out - 1, 0) + c
                        assert ideal.space.contains(PathVector(moved))


def test_meet_can_be_smaller_than_intersection(triple_arrow):
    i12 = generate_ideal(triple_arrow, [monomial_relation(2), commutative_relation(3, 4)])
    i14 = generate_ideal(triple_arrow, [monomial_relation(4), commutative_relation(2, 3)])
    inter = subspace_intersection(i12.space, i14.space)
    assert inter == span(5, {2: 1, 3: -1, 4: 1})
    meet = ideal_meet(i12, i14)
    assert meet.dim == 0
    join = ideal_join(i12, i14)
    assert join.space == span(5, {2: 1}, {3: 1}, {4: 1})


def test_join_with_zero_ideal(kronecker):
    for ideal in enumerate_special_ideals(kronecker):
        assert ideal_join(ideal, zero_ideal(kronecker)) == ideal


def test_enumerate_counts(single_arrow, kronecker, triple_arrow):
    assert len(enumerate_special_ideals(single_arrow)) == 5
    assert len(enumerate_special_ideals(kronecker)) == 8
    assert len(enumerate_special_ideals(triple_arrow)) == 18


def test_enumerate_single_arrow_spans(single_arrow):
    got = {i.space for i in enumerate_special_ideals(single_arrow)}
    assert got == {
        span(3),
        span(3, {2: 1}),
        span(3, {0: 1}, {2: 1}),
        span(3, {1: 1}, {2: 1}),
        span(3, {0: 1}, {1: 1}, {2: 1}),
    }


def test_enumerate_cap(triple_arrow):
    with pytest.raises(CapExceeded):
        enumerate_special_ideals(triple_arrow, max_elements=3)


def test_congruence_to_ideal_identity(single_arrow):
    s = build_semigroup(single_arrow)
    assert congruence_to_ideal(s, identity_congruence(s)).dim == 0


def test_congruence_to_ideal_rees_block(single_arrow):
    s = build_semigroup(single_arrow)
    rho3 = congruence_from_blocks(s, [[0, 1, 3], [2]])
    assert congruence_to_ideal(s, rho3).space == span(3, {0: 1}, {2: 1})


def test_congruence_to_ideal_kronecker_pair(kronecker):
    s = build_semigroup(kronecker)
    rho2 = congruence_from_blocks(s, [[0], [1], [2], [3, 4]])
    ideal = congruence_to_ideal(s, rho2)
    assert ideal.space == span(4, {2: 1, 3: -1})


@pytest.mark.parametrize(
    "name, labels",
    [
        ("kronecker", bytes([0, 0, 1, 2, 3])),  # {0, e1} {e2} {alpha} {beta}
        ("single_arrow", bytes([0, 1, 1, 2])),  # {0} {e1, e2} {alpha}
    ],
    ids=["kronecker", "single_arrow"],
)
def test_congruence_to_ideal_rejects_a_partition_that_is_not_a_congruence(name, labels):
    s = build_semigroup(parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text()))
    with pytest.raises(ValueError, match="partition is not a congruence"):
        congruence_to_ideal(s, Congruence(s, labels))


def test_relabelled_identity_maps_to_the_zero_ideal():
    # labels 1, 0 for the zero element and e1 name the identity partition;
    # left uncanonicalized, block 0 would be {e1} and the image span{e1}
    s = build_semigroup(parse_quiver((QUIVER_DIR / "kronecker.quiver").read_text()))
    relabelled = Congruence(s, bytes([1, 0, 2, 3, 4]))
    assert relabelled.blocks[0] == (0,)
    assert congruence_to_ideal(s, relabelled).dim == 0


def test_residue_labels_refuse_semigroups_beyond_one_byte_per_label():
    # 253 parallel arrows: 256 elements, one more than a byte label holds
    q = Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(253)])
    with pytest.raises(CapExceeded, match="exceeds the kernel table limit of 255"):
        zero_ideal(q).residue_labels


def test_ideal_past_the_kernel_limit_still_hashes():
    # 503 elements: no residue labels, so the hash falls back to the space's
    q = doubled_chain_quiver(7)
    assert build_semigroup(q).n == 503
    ideal = generate_ideal(q, [monomial_relation(0)])
    with pytest.raises(CapExceeded):
        ideal.residue_labels
    again = generate_ideal(q, [monomial_relation(0)])
    assert hash(again) == hash(ideal)
    assert {ideal, again} == {ideal}


def test_ideal_hash_is_the_residue_labels_hash(kronecker):
    for ideal in enumerate_special_ideals(kronecker):
        assert hash(ideal) == hash(ideal.residue_labels)


def test_ideal_to_congruence_bounds(single_arrow):
    s = build_semigroup(single_arrow)
    assert ideal_to_congruence(s, zero_ideal(single_arrow)) == identity_congruence(s)
    kq = generate_ideal(single_arrow, [monomial_relation(0), monomial_relation(1)])
    assert kq.dim == 3
    assert ideal_to_congruence(s, kq) == universal_congruence(s)


def test_ideal_to_congruence_difference_span(triple_arrow):
    s = build_semigroup(triple_arrow)
    i15 = generate_ideal(triple_arrow, [commutative_relation(2, 3), commutative_relation(3, 4)])
    c = ideal_to_congruence(s, i15)
    assert c.blocks == ((0,), (1,), (2,), (3, 4, 5))


def test_round_trips(single_arrow, kronecker, triple_arrow, chain3):
    for q in (single_arrow, kronecker, triple_arrow, chain3):
        s = build_semigroup(q)
        for c in enumerate_congruences(s):
            assert ideal_to_congruence(s, congruence_to_ideal(s, c)) == c
        for ideal in enumerate_special_ideals(q):
            back = congruence_to_ideal(s, ideal_to_congruence(s, ideal))
            assert back.space == ideal.space


def test_bijection_preserves_order(kronecker, triple_arrow):
    for q in (kronecker, triple_arrow):
        s = build_semigroup(q)
        congs = enumerate_congruences(s)
        images = [congruence_to_ideal(s, c) for c in congs]
        for i, c1 in enumerate(congs):
            for j, c2 in enumerate(congs):
                assert refines(c1, c2) == ideal_subset(images[i], images[j])


def test_counts_match_between_routes(chain3):
    rng = random.Random(67)
    for q in [chain3] + [random_acyclic_quiver(rng) for _ in range(5)]:
        s = build_semigroup(q)
        assert len(enumerate_congruences(s)) == len(enumerate_special_ideals(q))


def test_meet_is_greatest_lower_bound(kronecker, triple_arrow):
    for q in (kronecker, triple_arrow):
        ideals = enumerate_special_ideals(q)
        for a in ideals:
            for b in ideals:
                meet = ideal_meet(a, b)
                assert ideal_subset(meet, a) and ideal_subset(meet, b)
                for other in ideals:
                    if ideal_subset(other, a) and ideal_subset(other, b):
                        assert ideal_subset(other, meet)


def test_cover_steps_add_one_dimension(triple_arrow):
    ideals = enumerate_special_ideals(triple_arrow)
    rels = all_relations(triple_arrow)
    npaths = 5
    for a in ideals:
        uppers = [b for b in ideals if ideal_subset(a, b) and a.space != b.space]
        covers = [
            b for b in uppers
            if not any(
                ideal_subset(c, b) and ideal_subset(a, c) and c.space not in (a.space, b.space)
                for c in uppers
            )
        ]
        for b in covers:
            assert b.dim == a.dim + 1
            fresh = [
                r for r in rels
                if b.space.contains(r.vectorize()) and not a.space.contains(r.vectorize())
            ]
            assert fresh
            for r in fresh:
                regen = ideal_join(a, generate_ideal(triple_arrow, [r]))
                assert regen.space == b.space


def test_quiver_mismatch_rejected(single_arrow, kronecker):
    with pytest.raises(ValueError):
        ideal_join(zero_ideal(single_arrow), zero_ideal(kronecker))
    s = build_semigroup(single_arrow)
    with pytest.raises(ValueError):
        ideal_to_congruence(s, zero_ideal(kronecker))


def test_ideal_json_shape(kronecker):
    ideal = generate_ideal(kronecker, [commutative_relation(2, 3)])
    blob = ideal.to_json_dict()
    assert blob == {
        "generators": ["alpha - beta"],
        "basis": [{"alpha": "1", "beta": "-1"}],
    }


def all_pairs_generators(c):
    """The earlier generators of ``congruence_to_ideal``: every pair inside a nonzero block."""
    gens = [monomial_relation(e - 1) for e in c.blocks[0] if e != 0]
    for block in c.blocks[1:]:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                gens.append(commutative_relation(block[i] - 1, block[j] - 1))
    return gens


def assert_spanning_generators_match_all_pairs(q):
    """The image of each congruence, written from its labels, against the
    ideal of all its pairs and against the image built eagerly."""
    s = build_semigroup(q)
    for c in enumerate_congruences(s):
        image, eager = congruence_to_ideal(s, c), congruence_to_ideal_eager(s, c)
        assert image.space == generate_ideal(q, all_pairs_generators(c)).space
        assert image.space == eager.space
        assert image.generators == eager.generators


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_spanning_generators_match_all_pairs_on_shipped_quivers(name):
    assert_spanning_generators_match_all_pairs(
        parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    )


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_spanning_generators_match_all_pairs_on_wide_quivers(q):
    assert_spanning_generators_match_all_pairs(q)


def test_spanning_generators_match_all_pairs_on_random_quivers():
    rng = random.Random(83)
    for _ in range(40):
        assert_spanning_generators_match_all_pairs(random_acyclic_quiver(rng, 4, 5, 12))


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_recorded_generators_generate_the_written_space(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    s = build_semigroup(q)
    for c in enumerate_congruences(s):
        image = congruence_to_ideal(s, c)
        assert generate_ideal(q, image.generators).space == image.space


def assert_relation_rows_match_contains(q):
    rels = all_relations(q)
    ideals = enumerate_special_ideals(q)
    rows = [[contains_relation(ideal, r) for r in rels] for ideal in ideals]
    for ideal, row in zip(ideals, rows):
        assert row == [ideal.space.contains(r.vectorize()) for r in rels]
    assert rows[0] == [False] * len(rels)
    assert rows[-1] == [True] * len(rels)


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_relation_rows_match_contains_on_shipped_quivers(name):
    assert_relation_rows_match_contains(parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text()))


def test_relation_rows_match_contains_on_the_random_suite():
    # the rows are read off residues; the oracle tests one vector each
    for q in random_suite(20, 0):
        assert_relation_rows_match_contains(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_relation_rows_match_contains_on_random_quivers(seed):
    assert_relation_rows_match_contains(random_acyclic_quiver(random.Random(seed), 4, 5, 12))


def test_quiver_caches_are_bounded():
    maxsize = build_semigroup.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_all_relations_follow_the_congruence_generators_where_classes_interleave():
    # p, r, t run from a to b and q, s from a to c, so the two parallel
    # classes interleave in path order; the relations still come in
    # lexicographic order, one per generator pair of the congruence side,
    # which is the order of their bits in a generator mask
    q = Quiver(["a", "b", "c"], [(x, "a", "b" if x in "prt" else "c") for x in "pqrst"])
    rels, npaths = all_relations(q), len(build_semigroup(q).paths)
    assert _relations(relation_mask(rels, npaths), npaths) == list(rels)
    pairs = build_semigroup(q).congruence_closure[2]
    assert list(rels) == list(pairs)
    assert check_theorems(q).ok


def eager_join(a, b):
    """``ideal_join`` forming the union of its operands' generator sets."""
    mask = relation_mask(a.generators | b.generators, a.space.dim_ambient)
    return SpecialIdeal(a.quiver, mask, subspace_sum(a.space, b.space))


def assert_generators_match_eager_closure(q):
    # the closure joins the zero ideal with one atom (r) per relation; the
    # oracle forms every join eagerly, and an ideal is first found by the
    # same join on both sides
    expected, _ = direct_join_closure(ideal_route(q)._replace(join=eager_join))
    found = join_closure(ideal_route(q))[0]
    assert [ideal.space for ideal in found] == [ideal.space for ideal in expected]
    for ideal, eager in zip(found, expected):
        assert ideal.generators == eager.generators


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_join_generators_match_eager_union_on_shipped_quivers(name):
    assert_generators_match_eager_closure(parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text()))


def test_join_generators_match_eager_union_on_the_random_suite():
    for q in random_suite(30, 0):
        assert_generators_match_eager_closure(q)


def assert_closures_list_one_order(q):
    # the ideal closure's order, (dimension, residue labels), is the
    # congruence closure's finest-first order: ideal k is congruence k's image
    s = build_semigroup(q)
    found = join_closure(ideal_route(q))[0]
    assert [ideal.residue_labels for ideal in found] == list(s.congruence_closure[0])


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_ideal_closure_lists_the_congruence_order_on_shipped_quivers(name):
    assert_closures_list_one_order(parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text()))


def test_ideal_closure_lists_the_congruence_order_on_the_random_suite():
    for q in random_suite(30, 0):
        assert_closures_list_one_order(q)


def test_a_relations_bit_decodes_to_the_relation():
    # every relation of the random suite, and of a doubled chain whose 503
    # elements are past the kernels' table limit, where a pair's bit is
    # past 250,000
    for q in [*random_suite(30, 0), doubled_chain_quiver(7)]:
        npaths = len(build_semigroup(q).paths)
        for r in all_relations(q):
            assert _relations(1 << _bit(r, npaths), npaths) == [r]


def test_long_join_chain_reads_its_generators_without_recursion(kronecker):
    # 3,000 joins deep, far past the interpreter's recursion limit
    rels = all_relations(kronecker)
    atoms = [generate_ideal(kronecker, [r]) for r in rels]
    ideal = zero_ideal(kronecker)
    for k in range(3000):
        ideal = ideal_join(ideal, atoms[k % len(atoms)])
    assert ideal.generators == frozenset(rels)
