"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equality checks are exact (rational arithmetic, canonical partitions,
canonical RREF bases); the only tolerances are the stated wall-clock
budgets.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lattice_oracles import (
    congruence_table,
    find_diamond,
    find_pentagon,
    ideal_lattice,
    transitive_reduction,
)
from oracles import (
    congruence_leq_matrix,
    enumerate_congruences_bruteforce,
    ideal_meet,
    subspace_intersection,
    table_rows,
)
from pathcong import (
    PathVector,
    Quiver,
    all_relations,
    build_semigroup,
    congruence_to_ideal,
    enumerate_congruences,
    enumerate_special_ideals,
    generate_ideal,
    ideal_to_congruence,
    is_rees,
    lattice_properties,
    max_parallel_paths,
    monomial_relation,
    commutative_relation,
    predict_properties,
    property_witnesses,
    random_suite,
    row_reduce,
    subspace_sum,
)
from pathcong.verify import congruence_lattice, ideal_leq_matrix


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


def paper_quivers():
    single = Quiver(["1", "2"], [("alpha", "1", "2")])
    kronecker = Quiver(["1", "2"], [("alpha", "1", "2"), ("beta", "1", "2")])
    triple = Quiver(
        ["1", "2"],
        [("alpha", "1", "2"), ("beta", "1", "2"), ("gamma", "1", "2")],
    )
    return single, kronecker, triple


def span(dim, *coeff_dicts):
    return row_reduce([PathVector(d) for d in coeff_dicts], dim)


class QuiverData:
    """Everything both enumeration routes say about one quiver."""

    def __init__(self, q):
        self.q = q
        self.s = build_semigroup(q)
        self.congs = enumerate_congruences(self.s)
        self.ideals = enumerate_special_ideals(q)
        self.counts_equal = len(self.congs) == len(self.ideals)
        index = {ideal.space.key(): k for k, ideal in enumerate(self.ideals)}
        self.perm = np.empty(len(self.congs), dtype=np.intp)
        self.roundtrip1 = True
        for k, c in enumerate(self.congs):
            image = congruence_to_ideal(self.s, c)
            self.perm[k] = index[image.space.key()]
            if ideal_to_congruence(self.s, image) != c:
                self.roundtrip1 = False
        self.roundtrip2 = all(
            congruence_to_ideal(self.s, ideal_to_congruence(self.s, ideal)).space == ideal.space
            for ideal in self.ideals
        )
        self.leq_c = congruence_leq_matrix(self.congs)
        self.leq_i = np.array(ideal_leq_matrix(self.ideals), dtype=bool)
        self.order_preserved = bool(
            (self.leq_i[np.ix_(self.perm, self.perm)] == self.leq_c).all()
        )
        self.lat_c = congruence_lattice(self.s)
        self.ideal_covers = transitive_reduction(self.leq_i)


@pytest.fixture(scope="module")
def suite():
    """The three worked examples plus 50 seeded random quivers, fully analyzed."""
    quivers = list(paper_quivers()) + random_suite(50, seed=0)
    start = time.perf_counter()
    data = [QuiverData(q) for q in quivers]
    elapsed = time.perf_counter() - start
    return data, elapsed


def test_criterion_1_single_arrow_everything():
    with criterion(1, "single-arrow quiver: 5 congruences/ideals, exact spans, covers, distributive"):
        start = time.perf_counter()
        q = paper_quivers()[0]
        s = build_semigroup(q)
        congs = enumerate_congruences(s)
        ideals = enumerate_special_ideals(q)
        assert len(congs) == 5
        assert len(ideals) == 5
        assert {i.space for i in ideals} == {
            span(3),
            span(3, {2: 1}),
            span(3, {0: 1}, {2: 1}),
            span(3, {1: 1}, {2: 1}),
            span(3, {0: 1}, {1: 1}, {2: 1}),
        }
        lat = congruence_lattice(s)
        idx = {c.blocks: k for k, c in enumerate(congs)}
        rho = [
            ((0,), (1,), (2,), (3,)),
            ((0, 3), (1,), (2,)),
            ((0, 1, 3), (2,)),
            ((0, 2, 3), (1,)),
            ((0, 1, 2, 3),),
        ]
        assert set(lat.covers) == {
            (idx[rho[0]], idx[rho[1]]),
            (idx[rho[1]], idx[rho[2]]),
            (idx[rho[1]], idx[rho[3]]),
            (idx[rho[2]], idx[rho[4]]),
            (idx[rho[3]], idx[rho[4]]),
        }
        assert lattice_properties(lat)["distributive"]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_triple_arrow_ideals():
    with criterion(2, "triple-arrow quiver: 18 ideals, meet/join vs intersection, semimodularity, 35 covers"):
        start = time.perf_counter()
        q = paper_quivers()[2]
        ideals = enumerate_special_ideals(q)
        assert len(ideals) == 18
        i12 = generate_ideal(q, [monomial_relation(2), commutative_relation(3, 4)])
        i14 = generate_ideal(q, [monomial_relation(4), commutative_relation(2, 3)])
        from pathcong import ideal_join

        assert ideal_meet(i12, i14).dim == 0
        inter = subspace_intersection(i12.space, i14.space)
        assert inter == span(5, {2: 1, 3: -1, 4: 1})
        assert inter.dim == 1
        assert ideal_join(i12, i14).space == span(5, {2: 1}, {3: 1}, {4: 1})

        lat = ideal_lattice(q, ideals)
        assert len(lat.covers) == 35
        w = property_witnesses(lat.lattice(lat.join_irreducibles()))
        assert w["strong_upper_semimodular"] is None
        assert w["lower_semimodular"] is not None
        a, b = w["lower_semimodular"]
        covers = set(lat.covers)
        j, m = lat.join[a, b], lat.meet[a, b]
        assert (a, j) in covers and (b, j) in covers
        assert not ((m, a) in covers and (m, b) in covers)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_kronecker_lattice():
    with criterion(3, "Kronecker quiver: 8 congruences, expected Hasse diagram, modular, diamond not pentagon"):
        start = time.perf_counter()
        q = paper_quivers()[1]
        s = build_semigroup(q)
        congs = enumerate_congruences(s)
        assert len(congs) == 8
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
        assert set(lat.covers) == {
            (k[1], k[2]), (k[1], k[3]), (k[1], k[4]),
            (k[2], k[5]), (k[3], k[5]), (k[4], k[5]),
            (k[5], k[6]), (k[5], k[7]),
            (k[6], k[8]), (k[7], k[8]),
        }
        props = lattice_properties(lat)
        assert props["modular"] and not props["distributive"]
        table = congruence_table(congs)
        assert find_diamond(table) is not None
        assert find_pentagon(table) is None
        assert time.perf_counter() - start < 1.0


def test_criterion_4_bijection_suite(suite):
    with criterion(4, "bijection suite: round trips, order preservation, equal counts, under 2 minutes"):
        data, elapsed = suite
        assert len(data) == 53
        for entry in data:
            assert entry.counts_equal
            assert entry.roundtrip1
            assert entry.roundtrip2
            assert entry.order_preserved
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_5_oracle_equivalence(suite):
    with criterion(5, "brute-force partition enumeration equals join-closure on every |S| <= 9 quiver"):
        data, _ = suite
        checked = 0
        for entry in data:
            if entry.s.n > 9:
                continue
            brute = enumerate_congruences_bruteforce(entry.s)
            assert [c.labels for c in brute] == [c.labels for c in entry.congs]
            checked += 1
        assert checked > 0


def test_criterion_6_theorem_predicates(suite):
    with criterion(6, "predicted properties equal computed ones; law verdicts match N5/M3 searches"):
        data, _ = suite
        for entry in data:
            predicted = predict_properties(entry.q)
            computed = lattice_properties(entry.lat_c)
            computed["all_rees"] = all(is_rees(c) for c in entry.congs)
            assert computed == predicted, entry.q
            table = congruence_table(entry.congs)
            pentagon = find_pentagon(table)
            diamond = find_diamond(table)
            assert computed["modular"] == (pentagon is None)
            assert computed["distributive"] == (pentagon is None and diamond is None)


def test_criterion_7_covering_property(suite):
    with criterion(7, "every ideal-lattice cover adds one dimension and is regenerated by any new relation"):
        data, _ = suite
        for entry in data:
            rels = all_relations(entry.q)
            npaths = len(entry.s.paths)
            for lo, hi in entry.ideal_covers:
                a, b = entry.ideals[lo], entry.ideals[hi]
                assert b.dim == a.dim + 1
                fresh = [
                    r for r in rels
                    if b.space.contains(r.vectorize()) and not a.space.contains(r.vectorize())
                ]
                assert fresh
                for r in fresh:
                    regen = subspace_sum(a.space, row_reduce([r.vectorize()], npaths))
                    assert regen == b.space


def test_criterion_8_semigroup_axioms(suite):
    with criterion(8, "associativity, length grading, and idempotent characterization on all suite quivers"):
        data, _ = suite
        for entry in data:
            s = entry.s
            t = table_rows(s)
            for x, y, z in itertools.product(range(s.n), repeat=3):
                assert t[t[x][y]][z] == t[x][t[y][z]]
            lengths = [None] + [p.length for p in s.paths]
            for x in range(1, s.n):
                for y in range(1, s.n):
                    p = t[x][y]
                    if p:
                        assert lengths[p] == lengths[x] + lengths[y]
            trivials = {s.index_by_name(v) for v in s.quiver.vertices}
            assert {x for x in range(s.n) if t[x][x] == x} == {0} | trivials


def test_criterion_9_exact_linear_algebra():
    with criterion(9, "Grassmann identity and RREF canonicity over 1000 random integer subspace pairs"):
        rng = random.Random(2024)

        def random_vectors(dim):
            return [
                PathVector(
                    {i: rng.randint(-5, 5) for i in rng.sample(range(dim), rng.randint(1, dim))}
                )
                for _ in range(rng.randint(0, 6))
            ]

        for _ in range(1000):
            dim = rng.randint(1, 12)
            vecs_a = random_vectors(dim)
            vecs_b = random_vectors(dim)
            a = row_reduce(vecs_a, dim)
            b = row_reduce(vecs_b, dim)
            total = subspace_sum(a, b)
            inter = subspace_intersection(a, b)
            assert a.dim + b.dim == total.dim + inter.dim
            for v in inter.basis:
                assert a.contains(v) and b.contains(v)
            shuffled = vecs_a[:]
            rng.shuffle(shuffled)
            assert row_reduce(shuffled, dim) == a
            assert row_reduce(a.basis, dim) == a
            assert all(a.contains(v) for v in vecs_a)
