import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import congruences_bruteforce, is_congruence_labels_keyed
from pathcong import Quiver, _kernels, build_semigroup, parse_quiver, random_acyclic_quiver

# one kernel module; the "pure" id keeps the suite's test names
KERNELS = [pytest.param(_kernels, id="pure")]
QUIVER_FILES = sorted((Path(__file__).resolve().parent.parent / "quivers").glob("*.quiver"))


def naive_join(p, q):
    """Transitive closure of two partitions' union, by repeated block merging."""
    blocks = [{i} for i in range(len(p))]
    for labels in (p, q):
        groups = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        for members in groups.values():
            merged = set()
            for i in members:
                for b in blocks:
                    if i in b:
                        merged |= b
            blocks = [b for b in blocks if not (b & merged)] + [merged]
    labels = [0] * len(p)
    for b in blocks:
        lead = min(b)
        for i in b:
            labels[i] = lead
    return labels


def all_partitions(n):
    """Every set partition of range(n), as label tuples (recursive oracle)."""
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        top = max(smaller, default=-1)
        for lab in range(top + 2):
            yield smaller + (lab,)


def naive_is_congruence(p, mult, n):
    """The definition: related elements have related products on both sides."""
    for x in range(n):
        for y in range(n):
            if p[x] != p[y]:
                continue
            for a in range(n):
                if p[mult[a * n + x]] != p[mult[a * n + y]]:
                    return False
                if p[mult[x * n + a]] != p[mult[y * n + a]]:
                    return False
    return True


def semigroup_table(q):
    s = build_semigroup(q)
    return s.table_bytes, s.n, s


@pytest.fixture
def chain_table():
    return semigroup_table(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


@pytest.mark.parametrize("kern", KERNELS)
def test_canonical_labels(kern):
    assert kern.canonical_labels([5, 5, 2, 5, 2]) == bytes([0, 0, 1, 0, 1])
    assert kern.canonical_labels([0, 1, 2]) == bytes([0, 1, 2])
    assert kern.canonical_labels([]) == b""


@pytest.mark.parametrize("kern", KERNELS)
def test_join_matches_naive(kern):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 9)
        p = kern.canonical_labels([rng.randrange(3) for _ in range(n)])
        q = kern.canonical_labels([rng.randrange(3) for _ in range(n)])
        assert kern.join_labels(p, q) == kern.canonical_labels(naive_join(p, q))


@pytest.mark.parametrize("kern", KERNELS)
def test_meet_matches_naive(kern):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 9)
        p = bytes(rng.randrange(3) for _ in range(n))
        q = bytes(rng.randrange(3) for _ in range(n))
        got = kern.meet_labels(kern.canonical_labels(p), kern.canonical_labels(q))
        want = kern.canonical_labels(list(zip(p, q)))
        assert got == want


def naive_principal(mult, n, x, y):
    """theta(x, y) by the definition: merge every pair (a*x*b, a*y*b), a and b possibly absent."""
    pairs = set()
    for a in range(n + 1):
        ax = x if a == n else mult[a * n + x]
        ay = y if a == n else mult[a * n + y]
        for b in range(n + 1):
            u = ax if b == n else mult[ax * n + b]
            v = ay if b == n else mult[ay * n + b]
            pairs.add((u, v))
    labels = list(range(n))
    for u, v in pairs:
        lu, lv = labels[u], labels[v]
        if lu != lv:
            labels = [lu if lab == lv else lab for lab in labels]
    return _kernels.canonical_labels(labels)


@pytest.mark.parametrize("kern", KERNELS)
def test_principal_matches_naive_closure(kern, chain_table):
    mult, n, _ = chain_table
    for x, y in itertools.combinations(range(n), 2):
        assert kern.principal_labels(mult, n, x, y) == naive_principal(mult, n, x, y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_principal_matches_naive_closure_on_random_quivers(seed):
    mult, n, _ = semigroup_table(random_acyclic_quiver(random.Random(seed), 4, 5, 12))
    pairs = list(itertools.combinations(range(n), 2))
    for x, y in pairs:
        assert _kernels.principal_labels(mult, n, x, y) == naive_principal(mult, n, x, y)
    # with two vertices or more, some nonzero left factor a has a*x == a*y
    assert n < 3 or any(mult[a * n + x] == mult[a * n + y] for x, y in pairs for a in range(1, n))


@pytest.mark.parametrize("kern", KERNELS)
def test_is_congruence_matches_definition(kern, chain_table):
    mult, n, _ = chain_table
    rng = random.Random(5)
    assert kern.is_congruence_labels(bytes(range(n)), mult, n)
    assert kern.is_congruence_labels(bytes(n), mult, n)
    for _ in range(300):
        p = kern.canonical_labels([rng.randrange(4) for _ in range(n)])
        assert kern.is_congruence_labels(p, mult, n) == naive_is_congruence(p, mult, n)


@pytest.mark.parametrize("kern", KERNELS)
def test_bruteforce_single_arrow(kern):
    mult, n, _ = semigroup_table(Quiver(["1", "2"], [("alpha", "1", "2")]))
    got = congruences_bruteforce(mult, n)
    assert len(got) == 5


@pytest.mark.parametrize("kern", KERNELS)
def test_bruteforce_matches_partition_filter(kern, chain_table):
    mult, n, _ = chain_table
    got = set(congruences_bruteforce(mult, n))
    want = {
        kern.canonical_labels(p)
        for p in all_partitions(n)
        if kern.is_congruence_labels(bytes(p), mult, n)
    }
    assert got == want


def check_kernels_on_table(mult, n, rng):
    """join_labels and is_congruence_labels against their oracles on one table.

    The partitions are the principal congruences, their pairwise joins
    and random partitions, so both verdicts of the congruence test occur.
    """
    principal = sorted(
        {_kernels.principal_labels(mult, n, x, y) for x, y in itertools.combinations(range(n), 2)}
    )
    partitions = list(principal)
    for p, q in itertools.combinations(principal, 2):
        joined = _kernels.join_labels(p, q)
        assert joined == _kernels.canonical_labels(naive_join(p, q))
        partitions.append(joined)
    for _ in range(20):
        p = _kernels.canonical_labels([rng.randrange(n) for _ in range(n)])
        q = rng.choice(principal)
        assert _kernels.join_labels(p, q) == _kernels.canonical_labels(naive_join(p, q))
        partitions.append(p)
    for p in partitions:
        assert _kernels.is_congruence_labels(p, mult, n) == naive_is_congruence(p, mult, n)


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda p: p.stem)
def test_join_and_congruence_on_quiver_files(path):
    mult, n, _ = semigroup_table(parse_quiver(path.read_text()))
    check_kernels_on_table(mult, n, random.Random(path.stem))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_join_and_congruence_on_random_quivers(seed):
    rng = random.Random(seed)
    mult, n, _ = semigroup_table(random_acyclic_quiver(rng, 4, 5, 12))
    check_kernels_on_table(mult, n, rng)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_is_congruence_matches_the_keyed_oracle_on_random_labels(data):
    # labels merging blocks of a congruence are a congruence sometimes;
    # labels drawn freely almost never are
    q = random_acyclic_quiver(random.Random(data.draw(st.integers(0, 2**32 - 1))), 4, 5, 12)
    s = build_semigroup(q)
    mult, n = s.table_bytes, s.n
    base = data.draw(st.sampled_from(s.congruence_closure[0]))
    merge = data.draw(st.lists(st.integers(0, 3), min_size=max(base) + 1, max_size=max(base) + 1))
    free = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    for p in (base, bytes(merge[lab] for lab in base), _kernels.canonical_labels(free)):
        assert _kernels.is_congruence_labels(p, mult, n) == is_congruence_labels_keyed(p, mult, n)


def near_identity(n, merges, rng):
    """A partition of range(n) that merges a few random pairs: labels reach about n - 1."""
    labels = list(range(n))
    for _ in range(merges):
        x, y = rng.sample(range(n), 2)
        labels = [labels[x] if lab == labels[y] else lab for lab in labels]
    return _kernels.canonical_labels(labels)


def test_join_with_labels_near_the_byte_limit():
    rng = random.Random(7)
    top = _kernels.canonical_labels(range(255))
    assert max(top) == 254
    for _ in range(40):
        p = near_identity(255, rng.randrange(4), rng)
        q = near_identity(255, rng.randrange(4), rng)
        assert _kernels.join_labels(p, q) == _kernels.canonical_labels(naive_join(p, q))
    assert _kernels.join_labels(top, top) == top


def test_is_congruence_with_labels_near_the_byte_limit():
    # 252 parallel arrows: 255 elements, the most the byte table holds
    mult, n, _ = semigroup_table(Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(252)]))
    assert n == 255
    rng = random.Random(8)
    partitions = [bytes(range(n))]
    partitions += [_kernels.principal_labels(mult, n, x, 254) for x in (0, 3, 200, 253)]
    partitions += [near_identity(n, rng.randrange(1, 4), rng) for _ in range(8)]
    assert min(max(p) for p in partitions) >= 250
    # a table that is no semigroup, with products spread over all of range(255)
    arbitrary = bytes(rng.randrange(n) for _ in range(n * n))
    for p in partitions:
        assert _kernels.is_congruence_labels(p, mult, n) == naive_is_congruence(p, mult, n)
        assert _kernels.is_congruence_labels(p, arbitrary, n) == naive_is_congruence(p, arbitrary, n)
    assert all(_kernels.is_congruence_labels(p, mult, n) for p in partitions[:5])
    assert _kernels.is_congruence_labels(bytes(n), mult, n)
