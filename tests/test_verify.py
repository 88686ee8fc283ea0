import importlib.util
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcong import (
    CapExceeded,
    CyclicQuiverError,
    Quiver,
    build_semigroup,
    check_theorems,
    congruence_to_ideal,
    connected_components,
    enumerate_congruences,
    enumerate_special_ideals,
    parse_quiver,
    max_parallel_paths,
    predict_properties,
    quiver_to_text,
    random_acyclic_quiver,
    underlying_graph_is_tree,
)
from lattice_oracles import congruence_table, ideal_lattice, transitive_reduction
from oracles import (
    _containment,
    congruence_leq_matrix,
    ideal_subset,
    kronecker_quiver,
    patch_ideal_closure,
    refines,
    star_quiver,
)
from pathcong import _kernels, cli, ideals, linalg, semigroup, verify
from pathcong import quiver as quiver_module
from pathcong.ideals import SpecialIdeal, ideal_route
from pathcong.cli import main
from pathcong.semigroup import join_closure
from pathcong.verify import PROPERTY_NAMES, congruence_label, congruence_lattice, ideal_leq_matrix


QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def three_components():
    return Quiver(
        ["1", "2", "3", "4", "5", "6"],
        [("alpha", "1", "2"), ("beta", "1", "2"), ("c", "3", "4"), ("d", "5", "6")],
    )


def test_predict_single_arrow(single_arrow):
    p = predict_properties(single_arrow)
    assert all(p.values())


def test_predict_kronecker(kronecker):
    p = predict_properties(kronecker)
    assert p["modular"] and p["lower_semimodular"] and p["strong_lower_semimodular"]
    assert not p["distributive"] and not p["all_rees"]
    assert p["strong_upper_semimodular"] and p["upper_semimodular"]


def test_predict_triple_arrow(triple_arrow):
    p = predict_properties(triple_arrow)
    assert p["strong_upper_semimodular"] and p["upper_semimodular"]
    assert not p["modular"]
    assert not p["lower_semimodular"] and not p["strong_lower_semimodular"]
    assert not p["distributive"]


@st.composite
def oriented_trees(draw):
    """A tree on up to 12 vertices, each new vertex hung off an earlier one
    by an arrow of either direction."""
    n = draw(st.integers(1, 12))
    arrows = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        ends = (u, v) if draw(st.booleans()) else (v, u)
        arrows.append((f"a{v}", *(f"v{e}" for e in ends)))
    return Quiver([f"v{v}" for v in range(n)], arrows)


@given(oriented_trees())
@settings(max_examples=60, deadline=None)
def test_tree_predicts_distributive_by_path_count(q):
    assert underlying_graph_is_tree(q)
    assert max_parallel_paths(q) <= 1
    assert predict_properties(q)["distributive"]


def test_predict_rejects_cycles():
    with pytest.raises(CyclicQuiverError):
        predict_properties(Quiver(["v"], [("a", "v", "v")]))


def assert_leq_matrix_matches_refines(q):
    congs = enumerate_congruences(build_semigroup(q))
    leq = congruence_leq_matrix(congs)
    for i, a in enumerate(congs):
        for j, b in enumerate(congs):
            assert leq[i, j] == refines(a, b)


def test_congruence_leq_matrix_matches_refines(kronecker):
    shipped = [parse_quiver(path.read_text()) for path in sorted(QUIVER_DIR.glob("*.quiver"))]
    assert len(shipped) == 4
    for q in (kronecker, star_quiver(5), *shipped):
        assert_leq_matrix_matches_refines(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_congruence_leq_matrix_matches_refines_on_random_quivers(seed):
    assert_leq_matrix_matches_refines(random_acyclic_quiver(random.Random(seed), 4, 5, 12))


def test_ideal_leq_matrix_matches_subset(triple_arrow):
    rng = random.Random(0)
    for q in (triple_arrow, *(random_acyclic_quiver(rng, 4, 5, 12) for _ in range(8))):
        ideals = enumerate_special_ideals(q)
        leq = ideal_leq_matrix(ideals)
        for i, a in enumerate(ideals):
            for j, b in enumerate(ideals):
                assert leq[i][j] == ideal_subset(a, b)


@pytest.mark.parametrize("leq_matrix", [congruence_leq_matrix, ideal_leq_matrix])
def test_leq_matrix_of_no_elements_is_empty(leq_matrix):
    assert [list(row) for row in leq_matrix([])] == []


@given(st.integers(1, 40), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_containment_matches_the_integer_product(m, r, seed):
    inc = np.random.default_rng(seed).random((m, r)) < 0.5
    have = inc.astype(np.int64)
    assert (_containment(inc) == ((have @ (1 - have).T) == 0)).all()


def test_check_theorems_paper_quivers(single_arrow, kronecker, triple_arrow):
    for q, n_elem, n_covers in ((single_arrow, 5, 5), (kronecker, 8, 10), (triple_arrow, 18, 35)):
        report = check_theorems(q)
        assert report.ok, report.format()
        assert report.quiver_summary["congruences"] == n_elem
        assert report.quiver_summary["ideals"] == n_elem
        assert len(report.verdicts) == 5


def test_check_theorems_seed_42_quiver():
    q = random_acyclic_quiver(random.Random(42))
    report = check_theorems(q)
    assert report.ok, report.format()


def test_check_theorems_disconnected():
    q = Quiver(
        ["1", "2", "3", "4"],
        [("alpha", "1", "2"), ("beta", "1", "2"), ("c", "3", "4")],
    )
    report = check_theorems(q)
    assert report.ok, report.format()
    # the Kronecker component blocks distributivity but not modularity
    assert report.computed["modular"]
    assert not report.computed["distributive"]
    comp_verdict = [v for v in report.verdicts if "component" in v[0]][0]
    assert comp_verdict[1] and "2 components" in comp_verdict[2]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` and every pathcong binding of it to record each call; returns the record.

    ``owner`` is a module or a class.  A ``from`` import binds the function
    in the importing module too.
    """
    calls = []
    real = getattr(owner, name)
    bindings = [mod for modname, mod in sys.modules.items() if modname.startswith("pathcong")]
    for mod in (owner, *bindings):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_check_builds_one_lattice_per_enumeration(monkeypatch, kronecker):
    lattices = count_calls(monkeypatch, verify, "build_lattice")
    closures = count_calls(monkeypatch, semigroup, "congruence_route")
    assert check_theorems(kronecker).ok
    assert len(lattices) == len(closures) == 1
    lattices.clear()
    closures.clear()
    assert check_theorems(three_components()).ok
    # the first component equals kronecker, whose semigroup is cached with its closure
    assert len(lattices) == 1 + 3
    assert len(closures) == 1 + 2


def test_check_builds_its_generators_with_the_public_constructors(monkeypatch, triple_arrow):
    # one principal congruence and one generated ideal per relation, and the
    # zero ideal: both routes reach their generators through the library's
    # constructors, so they are the ones the tests and the benchmark see
    principals = count_calls(monkeypatch, semigroup, "principal_congruence")
    generations = count_calls(monkeypatch, ideals, "generate_ideal")
    assert check_theorems(triple_arrow).ok
    relations = len(ideals.all_relations(triple_arrow))
    assert len(principals) == relations
    assert len(generations) == relations + 1


def test_congruence_lattice_shares_the_closure_rows(kronecker):
    # build_lattice keeps a row that is a tuple of ints already, so the
    # lattice holds no second copy of the cached join table
    s = build_semigroup(kronecker)
    lat = congruence_lattice(s)
    table = s.congruence_closure[1]
    assert len(lat.succ) == len(table)
    assert all(row is table[i] for i, row in enumerate(lat.succ))


def test_check_of_an_equal_quiver_runs_no_closure(monkeypatch, kronecker):
    closures = count_calls(monkeypatch, semigroup, "congruence_route")
    ideal_closures = count_calls(monkeypatch, ideals, "ideal_route")
    lattices = count_calls(monkeypatch, verify, "build_lattice")
    assert check_theorems(kronecker).ok
    assert len(closures) == len(ideal_closures) == len(lattices) == 1
    # the report is kept on the cached semigroup: a repeat runs neither route
    assert check_theorems(Quiver(list(kronecker.vertices), list(kronecker.arrows))).ok
    assert len(closures) == len(ideal_closures) == len(lattices) == 1


def test_repeated_check_returns_a_fresh_copy(kronecker):
    first = check_theorems(kronecker)
    text = first.format()
    again = check_theorems(Quiver(list(kronecker.vertices), list(kronecker.arrows)))
    assert again.format() == text and again is not first
    first.verdicts.append(("planted", False, "in the first report"))
    first.computed["modular"] = None
    first.quiver_summary["congruences"] = 0
    first.predicted["modular"] = False
    third = check_theorems(kronecker)
    assert third.format() == text and third.ok
    assert third.verdicts is not again.verdicts and third.computed is not again.computed


def test_repeat_above_the_cap_is_refused_through_enumeration(monkeypatch, kronecker):
    n = build_semigroup(kronecker).n
    assert check_theorems(kronecker, n).ok
    enumerations = count_calls(monkeypatch, semigroup, "enumerate_congruences")
    with pytest.raises(CapExceeded, match=f"semigroup has {n} elements; enumeration cap is {n - 1}"):
        check_theorems(kronecker, n - 1)
    assert len(enumerations) == 1
    assert check_theorems(kronecker, n).ok  # the report stays for a check within the cap
    assert len(enumerations) == 1


def test_cyclic_quiver_keeps_its_error_on_a_repeat():
    loop = Quiver(["v"], [("a", "v", "v")])
    for _ in range(2):
        with pytest.raises(CyclicQuiverError, match="^theorem checks require an acyclic quiver$"):
            check_theorems(loop)


def test_a_cached_report_stays_until_the_cache_is_cleared(monkeypatch):
    q = kronecker_quiver(3)
    assert check_theorems(q).ok
    real = verify.predict_properties
    monkeypatch.setattr(verify, "predict_properties", lambda q: {**real(q), "modular": True})
    assert check_theorems(q).ok  # the report of the unfaulted check
    build_semigroup.cache_clear()
    faulted = check_theorems(q)
    assert not faulted.verdicts[1][1]
    # a violating report is kept like any other
    monkeypatch.setattr(verify, "predict_properties", real)
    assert check_theorems(q).format() == faulted.format()
    build_semigroup.cache_clear()
    assert check_theorems(q).ok


def test_a_check_that_raises_keeps_no_report(monkeypatch, kronecker):
    def fault(lat):
        raise RuntimeError("planted")

    monkeypatch.setattr(verify, "lattice_properties", fault)
    with pytest.raises(RuntimeError, match="planted"):
        check_theorems(kronecker)
    assert build_semigroup(kronecker).report is None
    monkeypatch.undo()
    assert check_theorems(kronecker).ok
    assert build_semigroup(kronecker).report is not None


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reports_from_the_cache_equal_cold_reports(monkeypatch, seed):
    workloads = load_workloads(monkeypatch)
    quivers = [op.quiver for op in workloads.operations("random-suite", seed)]
    cold = []
    for q in quivers:
        build_semigroup.cache_clear()
        cold.append(check_theorems(q, workloads.CHECK_CAP).format())
    build_semigroup.cache_clear()
    evidence = count_calls(monkeypatch, verify, "build_evidence")
    for _ in range(2):
        assert [check_theorems(q, workloads.CHECK_CAP).format() for q in quivers] == cold
    assert len(evidence) == len(set(quivers)) < len(quivers)


def test_check_counts_paths_once_per_semigroup(monkeypatch):
    # the semigroup keeps the counts its element count came from; the path
    # list is checked against them, the evidence reads its max parallel
    # paths from them, and so do the predictions, and a cyclic quiver is
    # refused by counting them; the other is the path enumeration's own test
    orders = count_calls(monkeypatch, quiver_module, "_topological_order")
    q = Quiver(["v"], [])
    assert check_theorems(q).ok
    assert len(orders) == 2
    orders.clear()
    assert check_theorems(q).ok
    assert not orders


def test_check_reads_no_subspace_key(monkeypatch):
    # the ideal closure dedupes by residue labels (hash) and RREF row maps
    # (equality), so no canonical key is built
    keys = count_calls(monkeypatch, linalg.Subspace, "key")
    for q in (kronecker_quiver(5), star_quiver(5)):
        assert check_theorems(q).ok
    assert not keys


def test_shared_component_is_closed_once(monkeypatch):
    # two components of one quiver never compare equal (their vertices
    # differ), but quivers that share a component share its closure
    closures = count_calls(monkeypatch, semigroup, "congruence_route")
    assert check_theorems(three_components()).ok
    assert len(closures) == 1 + 3
    closures.clear()
    q = Quiver(["1", "2", "7"], [("alpha", "1", "2"), ("beta", "1", "2")])
    assert connected_components(q)[0] == connected_components(three_components())[0]
    assert check_theorems(q).ok
    assert len(closures) == 1 + 1  # the whole quiver and the isolated vertex 7


def test_join_closures_read_most_joins_from_their_tables(monkeypatch):
    # forming every tabulated join costs 2,673 joins on each route here;
    # a join the table already decides is read, not formed
    q = Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(1, 6)])
    ideal_joins = count_calls(monkeypatch, ideals, "ideal_join")
    label_joins = []
    real_route = semigroup.congruence_route

    def congruence_route(s):
        route = real_route(s)
        return route._replace(join=lambda a, b: label_joins.append(1) or route.join(a, b))

    monkeypatch.setattr(semigroup, "congruence_route", congruence_route)
    report = check_theorems(q)
    assert report.ok and report.quiver_summary["congruences"] == 206
    assert 0 < len(ideal_joins) < 500
    assert 0 < len(label_joins) < 500


def test_check_reads_each_ideals_residues_once(monkeypatch, triple_arrow):
    # the closure's below-test and the round trip share one residue pass
    residues = count_calls(monkeypatch, linalg.Subspace, "unit_residue_keys")
    for q in (triple_arrow, three_components()):
        residues.clear()
        report = check_theorems(q)
        assert report.ok
        assert len(residues) == report.quiver_summary["ideals"]


def test_cli_lattice_runs_one_closure(monkeypatch, capsys):
    closures = count_calls(monkeypatch, semigroup, "congruence_route")
    assert main(["lattice", str(QUIVER_DIR / "kronecker.quiver")]) == 0
    assert capsys.readouterr().out.startswith("elements: 8\n")
    assert len(closures) == 1


def test_cover_verdict_names_first_failing_cover(monkeypatch, triple_arrow):
    # the covers of the ideal lattice built from the ideal operations alone,
    # over the ideals in the closure's order, which the verdict reads
    found = join_closure(ideal_route(triple_arrow))[0]
    covers = ideal_lattice(triple_arrow, found).covers
    target = covers[-1][1]
    first = min(c for c in covers if c[1] == target)
    assert first != covers[-1] and target == len(found) - 1
    # one dimension more keeps the top ideal last, and every cover into it
    # now jumps two; it is added once the evidence is built, since
    # verdict 1 compares each ideal's dimension with its congruence's
    upper = found[target]
    real = SpecialIdeal.dim.fget
    build = verify.build_evidence

    def bumped_after_the_bijection(q, max_elements):
        ev = build(q, max_elements)
        bumped = property(lambda self: real(self) + (self == upper))
        monkeypatch.setattr(SpecialIdeal, "dim", bumped)
        return ev

    monkeypatch.setattr(verify, "build_evidence", bumped_after_the_bijection)
    report = check_theorems(triple_arrow)
    assert report.verdicts[0][1]
    low = found[first[0]].dim
    assert report.verdicts[4] == (
        "every ideal cover is one new relation's step",
        False,
        f"cover {first[0]} -> {first[1]} jumps {low} -> {low + 2}",
    )


def test_cover_verdict_builds_no_subspace(monkeypatch, triple_arrow):
    # every row reduction is an ideal's generation and every subspace sum
    # an ideal join: the cover verdict only compares ideals already built,
    # and only the ideal route generates ideals, one per relation atom and
    # the zero ideal; the bijection check writes its images from the blocks
    reductions = count_calls(monkeypatch, linalg, "row_reduce")
    generations = count_calls(monkeypatch, ideals, "generate_ideal")
    sums = count_calls(monkeypatch, linalg, "subspace_sum")
    joins = count_calls(monkeypatch, ideals, "ideal_join")
    for q in (triple_arrow, three_components()):
        generations.clear()
        reductions.clear()
        assert check_theorems(q).ok
        assert generations and joins
        assert len(generations) == len(ideals.all_relations(q)) + 1
        assert len(reductions) == len(generations)
        assert len(sums) == len(joins)


def test_image_that_is_not_an_ideal_fails_the_bijection(monkeypatch, kronecker):
    # ideal i, the image of congruence k, is swapped for a space that is no
    # ideal, so ideal k does not carry congruence k's residue labels
    k = 3
    s = build_semigroup(kronecker)
    image = congruence_to_ideal(s, enumerate_congruences(s)[k])
    i = join_closure(ideal_route(kronecker))[0].index(image)
    assert i == k  # both closures list their elements in one order
    # the span of e1 alone lacks e1 * alpha = alpha, so it is no ideal
    e1 = linalg.row_reduce([linalg.PathVector({0: 1})], len(s.paths))
    fault = SpecialIdeal(kronecker, 0, e1)
    patch_ideal_closure(monkeypatch, lambda found, S: ([*found[:i], fault, *found[i + 1 :]], S))
    assert check_theorems(kronecker).verdicts[0] == (
        "congruence/ideal lattice isomorphism",
        False,
        f"image of congruence {k} is not ideal {k}",
    )


def test_check_path_tests_no_subspace_containment(monkeypatch, triple_arrow):
    # the closure reads each relation off the ideals' residue labels, and
    # verdicts 1 and 5 compare join tables and dimensions, so no subspace
    # is tested against a vector or another subspace, and no m x m order
    # is built
    spies = [
        count_calls(monkeypatch, linalg.Subspace, "contains"),
        count_calls(monkeypatch, linalg.Subspace, "contains_subspace"),
        count_calls(monkeypatch, verify, "ideal_leq_matrix"),
    ]
    for q in (triple_arrow, three_components()):
        assert check_theorems(q).ok
    assert [len(calls) for calls in spies] == [0, 0, 0]


def test_cover_verdict_skipped_when_order_differs(monkeypatch, kronecker):
    def edit(found, S):
        S[0][0] = 0  # the zero ideal no longer grows by the first relation
        return found, S

    patch_ideal_closure(monkeypatch, edit)
    report = check_theorems(kronecker)
    assert report.verdicts[0] == (
        "congruence/ideal lattice isomorphism", False, "bijection does not preserve order"
    )
    assert report.verdicts[4] == (
        "every ideal cover is one new relation's step",
        False,
        "skipped: isomorphism check failed",
    )


def patch_closure(monkeypatch, q, edit):
    """Every semigroup of q reads its cached closure as ``edit`` returns it
    from copies of the labels, the join table (as lists) and the generator pairs."""
    real = semigroup.PathSemigroup.congruence_closure.fget

    def closure(s):
        labels, S, pairs = real(s)
        if s.quiver != q:
            return labels, S, pairs
        return edit(labels, [list(row) for row in S], list(pairs))

    monkeypatch.setattr(semigroup.PathSemigroup, "congruence_closure", property(closure))


def corrupt_join_table(monkeypatch, q, entry, value):
    """Every semigroup of q reads its cached join table with one entry changed."""

    def edit(labels, S, pairs):
        row, column = entry
        S[row][column] = value
        return labels, S, pairs

    patch_closure(monkeypatch, q, edit)


@pytest.mark.parametrize(
    "pair, detail",
    [
        ((1, 2), "generator (1, 2) is not relation alpha - gamma"),  # two vertices, not parallel
        ((4, 3), "generator (4, 3) is not relation alpha - gamma"),
        ((3, 4), "generator (3, 4) is not relation alpha - gamma"),  # a second theta(3, 4)
    ],
    ids=["not-parallel", "reversed", "repeated"],
)
def test_generator_without_its_own_relation_fails_the_isomorphism(
    monkeypatch, triple_arrow, pair, detail
):
    s = build_semigroup(triple_arrow)
    k = s.congruence_closure[2].index((3, 5))  # alpha ~ gamma

    def edit(labels, S, pairs):
        pairs[k] = pair
        return labels, S, pairs

    patch_closure(monkeypatch, triple_arrow, edit)
    report = check_theorems(triple_arrow)
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")


def test_swapped_ideal_atoms_fail_the_generator_check(monkeypatch, triple_arrow):
    # columns 1 and 2 of the ideal route hold (alpha) and (e2), so column 1
    # pairs the congruence route's theta(0, e2) with the relation alpha
    real = verify.ideal_route

    def swapped(q):
        route = real(q)
        a = route.atoms
        return route._replace(atoms=(a[0], a[2], a[1], *a[3:]))

    monkeypatch.setattr(verify, "ideal_route", swapped)
    report = check_theorems(triple_arrow)
    detail = "generator (0, 2) is not relation alpha"
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")


@pytest.mark.parametrize(
    "edit, detail",
    [
        # congruence 2 a copy of congruence 1: its labels are ideal 1's, not ideal 2's
        (
            lambda labels, S, pairs: ((*labels[:2], labels[1], *labels[3:]), S, pairs),
            "image of congruence 2 is not ideal 2",
        ),
        (lambda labels, S, pairs: (labels, S, pairs[:-1]), "7 generators vs 8 relations"),
    ],
    ids=["repeated-congruence", "dropped-generator"],
)
def test_closure_edit_fails_the_isomorphism(monkeypatch, triple_arrow, edit, detail):
    patch_closure(monkeypatch, triple_arrow, edit)
    report = check_theorems(triple_arrow)
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")


def test_missing_ideal_fails_the_isomorphism(monkeypatch, triple_arrow):
    # a join that would reach the whole path algebra returns its first
    # operand, so the ideal closure never finds the top
    real = verify.ideal_route

    def without_the_top(q):
        route, top = real(q), len(build_semigroup(q).paths)
        return route._replace(join=lambda a, b: a if (j := route.join(a, b)).dim == top else j)

    monkeypatch.setattr(verify, "ideal_route", without_the_top)
    report = check_theorems(triple_arrow)
    detail = "18 congruences vs 17 ideals"
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.quiver_summary["ideals"] == 17


def test_dropped_cover_fails_the_isomorphism(monkeypatch, triple_arrow):
    s = build_semigroup(triple_arrow)
    assert s.congruence_closure[1][0][7] == 6
    assert len(congruence_lattice(s).covers) == 35
    corrupt_join_table(monkeypatch, triple_arrow, (0, 7), 3)
    assert len(congruence_lattice(s).covers) == 34
    assert check_theorems(triple_arrow).verdicts[0] == (
        "congruence/ideal lattice isomorphism", False, "bijection does not preserve order"
    )


@pytest.mark.parametrize("component", [False, True], ids=["whole", "component"])
def test_undecided_properties_fail_the_property_verdict(
    monkeypatch, capsys, tmp_path, triple_arrow, component
):
    # nothing lies strictly between two congruences the table leaves uncovered
    if component:
        q = three_components()
        corrupt_join_table(monkeypatch, connected_components(q)[0], (1, 2), 4)
    else:
        q = triple_arrow
        corrupt_join_table(monkeypatch, q, (14, 5), 8)
    report = check_theorems(q)
    name, ok, detail = report.verdicts[1]
    assert name == "predicted properties match computed" and not ok
    assert detail.startswith("nothing lies strictly between '")
    assert report.verdicts[3][1:] == (False, "skipped: lattice properties undecided")
    # only the properties that could not be decided print as "?"
    assert ("  modular                      ?  (predicted " in report.format()) != component
    path = tmp_path / "q.quiver"
    path.write_text(quiver_to_text(q))
    assert main(["check", str(path)]) == 3
    assert "[nothing lies strictly between '" in capsys.readouterr().out


def test_random_check_reports_an_undecided_lattice_and_carries_on(monkeypatch, capsys, triple_arrow):
    corrupt_join_table(monkeypatch, triple_arrow, (14, 5), 8)
    monkeypatch.setattr(cli, "random_suite", lambda *args: [triple_arrow, star_quiver(2)])
    assert main(["random-check", "--trials", "2"]) == 3
    out = capsys.readouterr().out
    assert "trial 1: 2 vertices, 3 arrows, 6 elements, 18 congruences: VIOLATION\n" in out
    assert "quiver was:\n" + quiver_to_text(triple_arrow) in out
    assert out.endswith("trial 2: 3 vertices, 2 arrows, 6 elements, 13 congruences: ok\n")


def test_closure_entry_that_is_no_congruence_fails_the_isomorphism(
    monkeypatch, capsys, tmp_path, triple_arrow
):
    # {e1, e2} is no congruence: e1 * alpha = alpha but e2 * alpha = 0
    def edit(labels, S, pairs):
        return (labels[0], bytes([0, 1, 1, 2, 3, 4]), *labels[2:]), S, pairs

    patch_closure(monkeypatch, triple_arrow, edit)
    detail = "partition 1 is not a congruence: {0} {1,2} {alpha} {beta} {gamma}"
    report = check_theorems(triple_arrow)
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")
    path = tmp_path / "q.quiver"
    path.write_text(quiver_to_text(triple_arrow))
    assert main(["check", str(path)]) == 3
    assert f"VIOLATION  congruence/ideal lattice isomorphism [{detail}]" in capsys.readouterr().out


def test_no_congruence_matched_by_its_ideal_fails_the_table_test(monkeypatch, triple_arrow):
    # the same partition, {e1, e2} with the rest single, at index 1 of both
    # closures: ideal 1 is span{e1 - e2}, whose residue labels and dimension
    # are the partition's, so only the table test tells that it is no congruence
    bad = bytes([0, 1, 1, 2, 3, 4])
    ideal = SpecialIdeal(triple_arrow, 0, linalg.Subspace(5, {0: {0: 1, 1: -1}}))
    assert ideal.residue_labels == bad and ideal.dim == 6 - 1 - max(bad)

    def edit(labels, S, pairs):
        return (labels[0], bad, *labels[2:]), S, pairs

    patch_closure(monkeypatch, triple_arrow, edit)
    patch_ideal_closure(monkeypatch, lambda found, S: ([found[0], ideal, *found[2:]], S))
    detail = "partition 1 is not a congruence: {0} {1,2} {alpha} {beta} {gamma}"
    report = check_theorems(triple_arrow)
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, detail)
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")


def test_join_table_indexing_nothing_fails_the_isomorphism(monkeypatch, capsys, tmp_path, triple_arrow):
    corrupt_join_table(monkeypatch, triple_arrow, (3, 2), 18)
    message = "join table of shape (18, 8) does not index 18 elements"
    report = check_theorems(triple_arrow)
    assert report.verdicts[0] == ("congruence/ideal lattice isomorphism", False, message)
    assert report.verdicts[1][1:] == (False, "skipped: no congruence lattice")
    assert report.verdicts[2][1]  # the Rees verdict reads the congruences alone
    assert report.verdicts[3][1:] == (False, "skipped: lattice properties undecided")
    assert report.verdicts[4][1:] == (False, "skipped: isomorphism check failed")
    assert report.quiver_summary["congruences"] == 18
    assert report.computed["all_rees"] is False
    assert all(report.computed[key] is None for key in PROPERTY_NAMES)
    path = tmp_path / "q.quiver"
    path.write_text(quiver_to_text(triple_arrow))
    assert main(["check", str(path)]) == 3
    assert f"VIOLATION  congruence/ideal lattice isomorphism [{message}]" in capsys.readouterr().out
    assert main(["lattice", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    monkeypatch.setattr(cli, "random_suite", lambda *args: [triple_arrow, star_quiver(2)])
    assert main(["random-check", "--trials", "2"]) == 3
    out = capsys.readouterr().out
    assert "trial 1: 2 vertices, 3 arrows, 6 elements, 18 congruences: VIOLATION\n" in out
    assert "quiver was:\n" + quiver_to_text(triple_arrow) in out
    assert out.endswith("trial 2: 3 vertices, 2 arrows, 6 elements, 13 congruences: ok\n")


def test_check_theorems_on_the_quiver_with_no_vertices():
    q = Quiver([])
    report = check_theorems(q)
    assert report.ok, report.format()
    assert report.quiver_summary["congruences"] == report.quiver_summary["ideals"] == 1
    assert [ideal.residue_labels for ideal in enumerate_special_ideals(q)] == [b"\x00"]


def test_check_theorems_rejects_cycles():
    with pytest.raises(CyclicQuiverError):
        check_theorems(Quiver(["v"], [("a", "v", "v")]))


def test_report_format(kronecker):
    report = check_theorems(kronecker)
    text = report.format()
    assert "modular" in text
    assert "✓" in text and "✗" in text
    assert "consistent" in text
    assert "VIOLATION" not in text
    assert "congruences: 8" in text


def test_congruence_label(single_arrow):
    s = build_semigroup(single_arrow)
    from pathcong import principal_congruence

    c = principal_congruence(s, s.index_by_name("alpha"), 0)
    assert congruence_label(c) == "{0,alpha} {1} {2}"


def assert_matches_pairwise(q):
    """Lindig covers are the transitive reduction of the refinement order, and
    each join-table entry is one partition-join kernel call, looked up in the list."""
    s = build_semigroup(q)
    congs = enumerate_congruences(s)
    lat = congruence_lattice(s)
    assert lat.covers == transitive_reduction(congruence_leq_matrix(congs))
    index = {c.labels: k for k, c in enumerate(congs)}
    generators = [congs[g].labels for g in lat.succ[0]]  # congs[0] is the identity
    for c, row in zip(congs, lat.succ):
        assert [index[_kernels.join_labels(c.labels, g)] for g in generators] == list(row)


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_congruence_lattice_matches_pairwise_on_shipped_quivers(name):
    assert_matches_pairwise(parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text()))


@pytest.mark.parametrize("q", [kronecker_quiver(5), star_quiver(5)], ids=["kronecker5", "star5"])
def test_congruence_lattice_matches_pairwise_on_wide_quivers(q):
    assert_matches_pairwise(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_congruence_lattice_matches_pairwise_on_random_quivers(seed):
    assert_matches_pairwise(random_acyclic_quiver(random.Random(seed), 4, 5, 12))


def test_property_mismatch_names_its_witness(monkeypatch):
    q = kronecker_quiver(3)
    real = verify.predict_properties
    monkeypatch.setattr(verify, "predict_properties", lambda q: {**real(q), "modular": True})
    name, ok, detail = check_theorems(q).verdicts[1]
    assert name == "predicted properties match computed" and not ok
    assert detail.startswith("modular (witness ")
    labels = re.findall(r"'([^']*)'", detail)
    assert len(labels) == 3
    table = congruence_table(enumerate_congruences(build_semigroup(q)))
    a, b, c = (table.labels.index(label) for label in labels)
    J, M, L = table.join, table.meet, table.leq
    assert L[a, c] and M[J[a, b], c] != J[a, M[b, c]]


@pytest.mark.parametrize("q", [kronecker_quiver(3), three_components()], ids=["kronecker3", "3-components"])
def test_bijection_maps_each_congruence_once_each_way(monkeypatch, q):
    # each congruence finds its image among the enumerated ideals, which
    # builds none, and shares its labels, so no ideal is taken back
    images = count_calls(monkeypatch, ideals, "congruence_to_ideal")
    round_trips = count_calls(monkeypatch, ideals, "ideal_to_congruence")
    report = check_theorems(q)
    assert report.ok, report.format()
    assert (len(images), len(round_trips)) == (0, 0)


def test_verdict_1_builds_no_image(monkeypatch, triple_arrow):
    # verdict 1 finds each congruence's image among the enumerated ideals
    # by residue labels and dimension: it makes no subspace once the ideal
    # closure has returned, and tests each congruence's labels against the
    # table once, in its round trip
    table_tests = count_calls(monkeypatch, _kernels, "is_congruence_labels")
    subspaces, after_closure = [], []
    init = linalg.Subspace.__init__
    monkeypatch.setattr(
        linalg.Subspace, "__init__", lambda self, *args: subspaces.append(1) or init(self, *args)
    )
    real = verify.join_closure  # verify calls it on the ideal route only

    def counted_closure(route):
        # every join is formed once the closure returns
        closure = real(route)
        after_closure.append(len(subspaces))
        return closure

    monkeypatch.setattr(verify, "join_closure", counted_closure)
    for q in (triple_arrow, three_components(), kronecker_quiver(3)):
        subspaces.clear()
        after_closure.clear()
        table_tests.clear()
        report = check_theorems(q)
        assert report.ok
        assert set(after_closure) == {len(subspaces)} and subspaces
        assert len(table_tests) == report.quiver_summary["congruences"]


def test_congruence_lattice_memory_stays_small():
    # the peak includes the join table and the closure of a fresh
    # semigroup; one m x m table of 8-byte entries would be 6.2 MB at m = 880
    for q, m, mib in ((star_quiver(5), 275, 4), (kronecker_quiver(6), 880, 8)):
        s = build_semigroup(q)
        tracemalloc.start()
        try:
            lat = congruence_lattice(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lat.n == m
        assert peak < mib * 2**20


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@pytest.mark.parametrize("k", range(1, 7))
def test_kronecker_family_count_on_both_routes(k):
    # {0, arrows} is a null ideal, so every partition of it is a congruence;
    # a class touching a vertex idempotent forces one of 3 collapses
    q = kronecker_quiver(k)
    expected = bell(k + 1) + 3
    assert len(enumerate_congruences(build_semigroup(q))) == expected
    assert len(enumerate_special_ideals(q)) == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_star_family_count_on_both_routes(k):
    # distributive, so every congruence is Rees: 2^k ideals contain the
    # centre and 3^k do not
    q = star_quiver(k)
    expected = 3**k + 2**k
    assert len(enumerate_congruences(build_semigroup(q))) == expected
    assert len(enumerate_special_ideals(q)) == expected


# The congruence route alone reaches further: enumeration joins only the
# join-irreducible principals, while the ideal route stays at k <= 6.


@pytest.mark.parametrize("k", [7])
def test_kronecker_family_count_on_the_congruence_route(k):
    assert len(enumerate_congruences(build_semigroup(kronecker_quiver(k)))) == bell(k + 1) + 3


@pytest.mark.parametrize("k", [7, 8])
def test_star_family_count_on_the_congruence_route(k):
    assert len(enumerate_congruences(build_semigroup(star_quiver(k)))) == 3**k + 2**k
