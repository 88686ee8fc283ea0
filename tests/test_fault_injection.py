"""Faults in what verdict 1 reads must end as its violations.

The congruence route reads ``PathSemigroup.table_bytes``; the ideal route
forms its products by joining arrow tuples and shares only the path list.
So a wrong table must end as a violation of verdict 1, the congruence/ideal
lattice isomorphism, never as a pass or a traceback.  Each fault is
injected through ``semigroup._product_table`` on small quivers with
parallel paths of length 2.  So must a changed row of an enumerated
ideal, which verdict 1 reads through its residue labels and dimension,
and a changed label byte of an enumerated congruence.  So must a join
that either closure skips: each join it forms, one at a time, returns its
first argument, and that route finds fewer elements than the other.
"""

import re
from pathlib import Path

import pytest

from oracles import kronecker_quiver, patch_ideal_closure, star_quiver
from pathcong import (
    PathVector,
    Quiver,
    SpecialIdeal,
    build_semigroup,
    check_theorems,
    enumerate_congruences,
    enumerate_special_ideals,
    parse_quiver,
    row_reduce,
)
from pathcong import _kernels, ideals, quiver, semigroup
from pathcong.ideals import ideal_route
from pathcong.semigroup import join_closure
from pathcong.verify import VERDICTS

ISOMORPHISM = VERDICTS[0][0]

QUIVERS = {
    "fork": Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")]),
    "join": Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "3")]),
    "square": Quiver(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    ),
    "doubled-2x2": Quiver(
        ["1", "2", "3"], [("a0", "1", "2"), ("b0", "1", "2"), ("a1", "2", "3"), ("b1", "2", "3")]
    ),
}


def swap_parallel(paths, table):
    """Swap the first two parallel paths of length 2 wherever two arrows multiply to one."""
    n = len(paths) + 1
    ends = [None, *((p.source, p.target) for p in paths)]
    twos = [i for i, p in enumerate(paths, start=1) if p.length == 2]
    x, y = next((x, y) for x in twos for y in twos if x < y and ends[x] == ends[y])
    arrows = [i for i, p in enumerate(paths, start=1) if p.length == 1]
    for i in arrows:
        for j in arrows:
            k = i * n + j
            table[k] = {x: y, y: x}.get(table[k], table[k])


def zero_long_products(paths, table):
    """Send every product of length 2 or more to zero."""
    lengths = [0, *(p.length for p in paths)]
    for k, e in enumerate(table):
        if lengths[e] >= 2:
            table[k] = 0


FAULTS = {"swap": swap_parallel, "zero": zero_long_products}


@pytest.fixture
def product_table_calls(monkeypatch):
    """Counts the calls of ``semigroup._product_table``, which stays correct."""
    calls = []
    build = semigroup._product_table

    def counted(paths):
        calls.append(paths)
        return build(paths)

    monkeypatch.setattr(semigroup, "_product_table", counted)
    return calls


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", QUIVERS)
def test_table_fault_is_a_verdict_1_violation(monkeypatch, name, fault):
    build = semigroup._product_table
    changed = []

    def faulty(paths):
        table = bytearray(build(paths))
        FAULTS[fault](paths, table)
        changed.append(table != build(paths))
        return bytes(table)

    monkeypatch.setattr(semigroup, "_product_table", faulty)
    report = check_theorems(QUIVERS[name])
    assert changed == [True]
    failed = {verdict for verdict, ok, _ in report.verdicts if not ok}
    assert ISOMORPHISM in failed


@pytest.mark.parametrize("name", QUIVERS)
def test_unfaulted_tables_pass(name):
    assert check_theorems(QUIVERS[name]).ok


def test_ideal_route_builds_no_table(product_table_calls):
    q = QUIVERS["doubled-2x2"]
    assert enumerate_special_ideals(q)
    assert product_table_calls == []
    enumerate_congruences(build_semigroup(q))
    assert len(product_table_calls) == 1


def test_path_list_is_checked_against_path_counts(monkeypatch, product_table_calls):
    enumerate_paths = quiver.enumerate_paths
    monkeypatch.setattr(semigroup, "enumerate_paths", lambda q: enumerate_paths(q)[:-1])
    # the fork's last path is b.c, one of the two paths 1 -> 3
    with pytest.raises(RuntimeError, match="1 -> 3: 1 paths listed, path counts say 2"):
        check_theorems(QUIVERS["fork"])
    assert product_table_calls == []


# every violation text of verdict 1 that names the fault in one of the lists
NAMED = re.compile(
    r"partition \d+ is not a congruence: .*"
    r"|image of congruence (\d+) is not ideal \1"
    r"|bijection does not preserve order"
)


def assert_named_verdict_1_violation(q):
    report = check_theorems(q)
    name, ok, detail = report.verdicts[0]
    assert (name, ok) == (ISOMORPHISM, False)
    assert NAMED.fullmatch(detail), detail
    assert f"[{detail}]" in report.format()


def with_ideal(monkeypatch, i, ideal):
    """check_theorems reads ``ideal`` as enumerated ideal i; the join table is unchanged."""
    patch_ideal_closure(monkeypatch, lambda found, S: ([*found[:i], ideal, *found[i + 1 :]], S))


def shifted_row(ideal):
    """The ideal's space with e_c added to its first row, c its greatest non-pivot
    column: a reduced basis still, of the same dimension, that spans another space."""
    basis = ideal.space.basis
    pivots = {min(v.coeffs) for v in basis}
    c = max(set(range(ideal.space.dim_ambient)) - pivots)
    first = dict(basis[0].coeffs)
    first[c] = first.get(c, 0) + 1
    return row_reduce([PathVector(first), *basis[1:]], ideal.space.dim_ambient)


@pytest.mark.parametrize("name", QUIVERS)
def test_changed_ideal_row_is_a_verdict_1_violation(monkeypatch, name):
    q = QUIVERS[name]
    found = join_closure(ideal_route(q))[0]
    changed = 0
    for i, ideal in enumerate(found):
        if not 0 < ideal.dim < ideal.space.dim_ambient:
            continue  # no row to change, or no column to change it in
        space = shifted_row(ideal)
        assert space.dim == ideal.dim and space != ideal.space
        with monkeypatch.context() as mp:
            with_ideal(mp, i, SpecialIdeal(q, ideal.mask, space))
            assert_named_verdict_1_violation(q)
        changed += 1
    assert changed == len(found) - 2


@pytest.mark.parametrize("name", QUIVERS)
def test_changed_congruence_label_is_a_verdict_1_violation(monkeypatch, name):
    q = QUIVERS[name]
    s = build_semigroup(q)
    labels, S, pairs = s.congruence_closure
    for k, lab in enumerate(labels):
        # one byte per congruence, at a position that varies with k, moved
        # to the next label (one past the last gives a block of its own)
        e = k % s.n
        edited = bytearray(lab)
        edited[e] = lab[e] + 1
        faulty = (*labels[:k], bytes(edited), *labels[k + 1 :])
        with monkeypatch.context() as mp:
            mp.setattr(semigroup.PathSemigroup, "congruence_closure", (faulty, S, pairs))
            assert_named_verdict_1_violation(q)


def test_extra_row_that_keeps_the_labels_fails_verdict_1(monkeypatch):
    # a1 - a2 - a3 + a4 leaves every residue distinct, so the zero ideal
    # plus that row has the identity's residue labels; only its dimension,
    # 1 where the identity's image has 0, tells it from the zero ideal
    q = kronecker_quiver(4)
    s = build_semigroup(q)
    a1, a2, a3, a4 = (s.index_by_name(f"a{i}") - 1 for i in range(1, 5))
    zero = enumerate_special_ideals(q)[0]
    space = row_reduce([PathVector({a1: 1, a2: -1, a3: -1, a4: 1})], len(s.paths))
    fault = SpecialIdeal(q, 0, space)
    assert fault.residue_labels == zero.residue_labels == bytes(range(s.n))
    assert (zero.dim, fault.dim) == (0, 1)
    with_ideal(monkeypatch, 0, fault)
    assert check_theorems(q).verdicts[0] == (
        ISOMORPHISM, False, "image of congruence 0 is not ideal 0"
    )


def test_space_with_another_ideals_labels_fails_verdict_1(monkeypatch):
    # ideal 1 gives way to a space of its dimension that carries the zero
    # ideal's residue labels: the count and every dimension still agree,
    # and two ideals now share labels, so only position 1 tells them apart
    q = kronecker_quiver(4)
    s = build_semigroup(q)
    a1, a2, a3, a4 = (s.index_by_name(f"a{i}") - 1 for i in range(1, 5))
    found = join_closure(ideal_route(q))[0]
    space = row_reduce([PathVector({a1: 1, a2: -1, a3: -1, a4: 1})], len(s.paths))
    fault = SpecialIdeal(q, 0, space)
    assert fault.residue_labels == found[0].residue_labels
    assert fault.dim == found[1].dim == 1 and fault != found[1]
    with_ideal(monkeypatch, 1, fault)
    assert check_theorems(q).verdicts[0] == (
        ISOMORPHISM, False, "image of congruence 1 is not ideal 1"
    )


# Each route's join as its closure calls it, looked up when the closure runs.
JOINS = {"congruences": (_kernels, "join_labels"), "ideals": (ideals, "ideal_join")}
SKIP_QUIVERS = {
    "star3": star_quiver(3),
    "kronecker3": kronecker_quiver(3),
    **{
        p.stem: parse_quiver(p.read_text())
        for p in sorted((Path(__file__).resolve().parent.parent / "quivers").glob("*.quiver"))
    },
}


@pytest.mark.parametrize("route", JOINS)
@pytest.mark.parametrize("name", SKIP_QUIVERS)
def test_skipped_join_is_a_verdict_1_violation(monkeypatch, name, route):
    # the join returns the row's element unchanged, as if the atom lay below
    # it, so the closure misses what that join alone reached: verdict 1
    # counts fewer elements on the faulted route than on the other
    q = SKIP_QUIVERS[name]
    owner, attr = JOINS[route]
    real = getattr(owner, attr)
    formed = []
    with monkeypatch.context() as mp:
        mp.setattr(owner, attr, lambda a, b: formed.append(1) or real(a, b))
        assert check_theorems(q).ok
    assert len(formed) == len(enumerate_congruences(build_semigroup(q))) - 1
    for skip in range(len(formed)):
        calls = []

        def skipping(a, b):
            calls.append(1)
            return a if len(calls) == skip + 1 else real(a, b)

        semigroup.build_semigroup.cache_clear()  # the congruence closure runs again
        with monkeypatch.context() as mp:
            mp.setattr(owner, attr, skipping)
            report = check_theorems(q)
        assert len(calls) > skip
        verdict, ok, detail = report.verdicts[0]
        assert (verdict, ok) == (ISOMORPHISM, False)
        counts = re.fullmatch(r"(\d+) congruences vs (\d+) ideals", detail)
        found, other = map(int, counts.groups()[:: 1 if route == "congruences" else -1])
        assert found < other
