"""Each verdict function on a hand-built ``Evidence`` record: pass, fail and skip.

A record holds placeholders except in the fields the verdict under test
reads, so each verdict is seen to read nothing else.
"""

from types import SimpleNamespace

import pytest

from oracles import kronecker_quiver
from pathcong import build_semigroup, check_theorems, enumerate_congruences, semigroup
from pathcong.verify import (
    PREDICTED_KEYS,
    VERDICTS,
    Evidence,
    build_evidence,
    components_verdict,
    congruence_label,
    cover_verdict,
    isomorphism_verdict,
    predict_properties,
    properties_verdict,
    rees_verdict,
)
from test_verify import corrupt_join_table, count_calls, three_components


def record(**fields):
    """An ``Evidence`` record with the given fields and placeholders elsewhere."""
    blank = dict(
        semigroup=None,
        mpp=0,
        predicted={},
        congs=(),
        ideals=[],
        lattice=None,
        failed={},
    )
    return Evidence(**{**blank, **fields})


@pytest.mark.parametrize(
    "q", [kronecker_quiver(3), three_components()], ids=["kronecker3", "3-components"]
)
def test_one_verdict_runs_on_a_built_record(q):
    # the CLI golden fixtures pin the names and details check_theorems prints
    ev = build_evidence(q)
    report = check_theorems(q)
    assert report.verdicts == [(name, *verdict(ev)) for name, verdict in VERDICTS]
    assert all(verdict(ev)[0] for _, verdict in VERDICTS)


def test_isomorphism_verdict():
    assert isomorphism_verdict(record()) == (True, "")
    failed = {"bijection": "round trip fails at congruence 5"}
    assert isomorphism_verdict(record(failed=failed)) == (False, "round trip fails at congruence 5")
    # without a lattice the match fails with the lattice's reason
    message = "join table of shape (18, 8) does not index 18 elements"
    failed = {"lattice": message, "bijection": message}
    assert isomorphism_verdict(record(failed=failed)) == (False, message)


def test_properties_verdict():
    predicted = predict_properties(kronecker_quiver(3))
    assert properties_verdict(record(predicted=predicted, computed=dict(predicted))) == (True, "")
    congs = enumerate_congruences(build_semigroup(kronecker_quiver(3)))
    computed = {**predicted, "modular": True, "distributive": True}
    witnesses = {"modular": (1, 2, 3), "distributive": None}
    ev = record(predicted=predicted, computed=computed, congs=congs, witnesses=witnesses)
    labels = ", ".join(repr(congruence_label(congs[i])) for i in (1, 2, 3))
    assert properties_verdict(ev) == (False, f"distributive, modular (witness {labels})")
    ev = record(failed={"properties": "skipped: no congruence lattice"})
    assert properties_verdict(ev) == (False, "skipped: no congruence lattice")


def test_properties_verdict_lists_mismatches_in_report_order():
    predicted = dict.fromkeys(PREDICTED_KEYS, True)
    computed = {**predicted, "all_rees": False, "upper_semimodular": None}
    ev = record(predicted=predicted, computed=computed)
    assert properties_verdict(ev) == (False, "upper_semimodular, all_rees")


def test_rees_verdict():
    ev = build_evidence(kronecker_quiver(2))
    assert rees_verdict(ev) == (True, "max parallel paths 2")
    ev.computed["all_rees"] = True
    assert rees_verdict(ev) == (False, "max parallel paths 2")
    # it reads the congruences alone, so no failed stage skips it
    ev = record(mpp=1, computed={"all_rees": True}, failed={"lattice": "x", "properties": "x"})
    assert rees_verdict(ev) == (True, "max parallel paths 1")


def test_components_verdict():
    props = [{"modular": True, "distributive": False}, {"modular": True, "distributive": True}]
    whole = {"modular": True, "distributive": False}
    assert components_verdict(record(computed=whole, comp_props=props)) == (True, "2 components")
    assert components_verdict(record(computed=whole)) == (True, "single component")
    # modular components beside a non-modular whole
    ev = record(computed={**whole, "modular": False}, comp_props=props)
    assert components_verdict(ev) == (False, "2 components")
    ev = record(computed=whole, comp_props=props, failed={"properties": "x"})
    assert components_verdict(ev) == (False, "skipped: lattice properties undecided")


def test_cover_verdict():
    # congruence k is ideal k, so the congruence covers are read as ideal
    # covers with no map between the two lists
    lattice = SimpleNamespace(upper_covers=((1, 2), (3,), (3,), ()))

    def ideals(*dims):
        return [SimpleNamespace(dim=d) for d in dims]

    ev = record(lattice=lattice, ideals=ideals(0, 1, 1, 2))
    assert cover_verdict(ev) == (True, "")
    # (1, 3) and (2, 3) both jump; (1, 3) comes first
    ev = record(lattice=lattice, ideals=ideals(0, 1, 1, 3))
    assert cover_verdict(ev) == (False, "cover 1 -> 3 jumps 1 -> 3")
    ev = record(lattice=lattice, ideals=ideals(0, 1, 2, 3), failed={"bijection": "x"})
    assert cover_verdict(ev) == (False, "skipped: isomorphism check failed")


def test_cover_verdict_reports_least_failing_cover_in_ideal_order():
    # the covers are read row by row, each row's upper covers ascending, so
    # the first that jumps is the least pair: (0, 2) jumps by three and
    # (1, 3) by three, while (0, 1) and (2, 3) are single steps
    lattice = SimpleNamespace(upper_covers=((1, 2), (3,), (3,), ()))
    ideals = [SimpleNamespace(dim=d) for d in (0, 1, 3, 4)]
    ev = record(lattice=lattice, ideals=ideals)
    assert cover_verdict(ev) == (False, "cover 0 -> 2 jumps 0 -> 3")
    ideals = [SimpleNamespace(dim=d) for d in (0, 2, 3, 4)]
    ev = record(lattice=lattice, ideals=ideals)
    assert cover_verdict(ev) == (False, "cover 0 -> 1 jumps 0 -> 2")


def test_table_indexing_no_lattice_enumerates_once(monkeypatch, triple_arrow):
    corrupt_join_table(monkeypatch, triple_arrow, (3, 2), 18)
    enumerations = count_calls(monkeypatch, semigroup, "enumerate_congruences")
    ev = build_evidence(triple_arrow)
    assert len(enumerations) == 1
    assert ev.lattice is None and len(ev.congs) == 18
    message = "join table of shape (18, 8) does not index 18 elements"
    assert ev.failed == {
        "lattice": message,
        "bijection": message,
        "properties": "skipped: no congruence lattice",
    }
