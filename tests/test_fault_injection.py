"""Faults in the semigroup's multiplication table reach one route only.

The congruence route reads ``PathSemigroup.table_bytes``; the ideal route
forms its products by joining arrow tuples and shares only the path list.
So a wrong table must end as a violation of verdict 1, the congruence/ideal
lattice isomorphism, never as a pass or a traceback.  Each fault is
injected through ``semigroup._product_table`` on small quivers with
parallel paths of length 2.
"""

import pytest

from pathcong import (
    Quiver,
    build_semigroup,
    check_theorems,
    enumerate_congruences,
    enumerate_special_ideals,
)
from pathcong import quiver, semigroup
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
