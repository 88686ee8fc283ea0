"""Oversize input is refused before any path list or table exists.

The path semigroup knows its element count from path counts alone, so
every size cap can fire first.  Spies stand in for ``enumerate_paths`` and
the table builder: a call is recorded and raises, so a regression fails
at once instead of listing trillions of paths.
"""

import random
import sys

import pytest

from oracles import doubled_chain_quiver as doubled_chain
from oracles import star_quiver
from pathcong import (
    CapExceeded,
    PathSemigroup,
    build_semigroup,
    check_theorems,
    congruence_from_blocks,
    congruence_from_json,
    enumerate_special_ideals,
    identity_congruence,
    quiver_to_text,
    random_acyclic_quiver,
    random_suite,
    universal_congruence,
)
from pathcong import quiver, random_quivers, semigroup
from pathcong.semigroup import DEFAULT_MAX_ELEMENTS
from pathcong.cli import main
from pathcong.verify import congruence_lattice

BUILDERS = {
    "enumerate_paths": quiver.enumerate_paths,
    "_product_table": semigroup._product_table,
}


def chain_elements(pairs):
    # 2**(pairs - i + 1) - 1 paths start at v_i; summed over i, plus zero
    return 2 ** (pairs + 2) - pairs - 2


@pytest.fixture
def forbid(monkeypatch):
    """``forbid(*names)`` replaces every pathcong binding of those builders.

    Returns the list of forbidden calls made, which a test expects empty.
    The autouse fixture in ``conftest.py`` has cleared the quiver caches,
    so a semigroup built by an earlier test cannot hide a call.
    """
    calls = []

    def install(*names):
        for name in names:
            original = BUILDERS[name]

            def refuse(*args, _name=name, **kwargs):
                calls.append(_name)
                raise AssertionError(f"{_name} was called")

            for modname, module in list(sys.modules.items()):
                if modname.startswith("pathcong") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
        return calls

    return install


def cap_message(pairs):
    return f"semigroup has {chain_elements(pairs)} elements; enumeration cap is 20"


def test_chain_element_formula():
    for pairs in (1, 2, 3, 6):
        s = build_semigroup(doubled_chain(pairs))
        assert s.n == len(s.paths) + 1 == chain_elements(pairs)


@pytest.mark.parametrize("pairs", [12, 40])
def test_check_theorems_refuses_without_building(pairs, forbid):
    calls = forbid("enumerate_paths", "_product_table")
    with pytest.raises(CapExceeded) as info:
        check_theorems(doubled_chain(pairs))
    assert str(info.value) == cap_message(pairs)
    assert calls == []


def test_congruence_lattice_refuses_without_building(forbid):
    # 248 elements: within the kernel limit, so only the element cap stops it
    calls = forbid("_product_table")
    with pytest.raises(CapExceeded) as info:
        congruence_lattice(build_semigroup(doubled_chain(6)))
    assert str(info.value) == cap_message(6)
    assert calls == []


@pytest.mark.parametrize("pairs", [12, 40])
def test_special_ideals_refuse_without_building(pairs, forbid):
    calls = forbid("enumerate_paths", "_product_table")
    with pytest.raises(CapExceeded) as info:
        enumerate_special_ideals(doubled_chain(pairs))
    assert str(info.value) == cap_message(pairs)
    assert calls == []


def write_chain(tmp_path, pairs):
    path = tmp_path / f"chain{pairs}.quiver"
    path.write_text(quiver_to_text(doubled_chain(pairs)))
    return str(path)


@pytest.mark.parametrize("command", ["check", "congruences", "ideals", "lattice"])
@pytest.mark.parametrize("pairs", [12, 40])
def test_cli_refuses_without_building(command, pairs, tmp_path, forbid, capsys):
    calls = forbid("enumerate_paths", "_product_table")
    assert main([command, write_chain(tmp_path, pairs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cap_message(pairs)}\n"
    assert calls == []


def test_kernel_limit_fires_before_the_table(tmp_path, forbid, capsys):
    # enumerate_special_ideals calls no kernel but refuses at the same limit:
    # past it a user cap would admit semigroups whose relations take minutes
    calls = forbid("enumerate_paths", "_product_table")
    for command, pairs, cap in [("check", 10, 5000), ("ideals", 7, 600), ("ideals", 10, 5000)]:
        assert main([command, "--max-elements", str(cap), write_chain(tmp_path, pairs)]) == 1
        assert capsys.readouterr().err == (
            f"error: semigroup with {chain_elements(pairs)} elements"
            " exceeds the kernel table limit of 255\n"
        )
    assert calls == []


def test_congruences_past_the_kernel_limit_refuse_without_building(forbid):
    # star(300) has 602 elements, too many for a label byte; blocks that
    # cover too little are refused at the limit too, before any is read
    q = star_quiver(300)
    names = [["0"], *([p.name] for p in PathSemigroup(q).paths)]  # listed before the spies
    calls = forbid("_product_table", "enumerate_paths")
    s = build_semigroup(q)
    singletons = [[i] for i in range(s.n)]
    for build in (
        identity_congruence,
        universal_congruence,
        lambda s: congruence_from_blocks(s, singletons),
        lambda s: congruence_from_blocks(s, [[0]]),
        lambda s: congruence_from_json(s, {"blocks": names}),
        lambda s: congruence_from_json(s, {"blocks": [["c"]]}),
        lambda s: congruence_from_json(s, {"blocks": [["no such element"]]}),
    ):
        with pytest.raises(CapExceeded, match="602 elements exceeds the kernel table limit"):
            build(s)
    assert calls == []


def test_paths_lists_every_path_without_the_table(tmp_path, forbid, capsys):
    expected = [p.name for p in quiver.enumerate_paths(doubled_chain(10))]
    calls = forbid("_product_table")
    assert main(["paths", "--max-elements", "5000", write_chain(tmp_path, 10)]) == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == chain_elements(10) - 1
    assert calls == []


@pytest.mark.parametrize("pairs", [10, 30])
def test_paths_refuses_without_listing(pairs, tmp_path, forbid, capsys):
    # 30 pairs: 4,294,967,264 elements, counted without listing a path
    calls = forbid("enumerate_paths", "_product_table")
    assert main(["paths", write_chain(tmp_path, pairs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cap_message(pairs)}\n"
    assert calls == []


def test_predict_on_a_huge_chain(tmp_path, forbid, capsys):
    calls = forbid("enumerate_paths", "_product_table")
    assert main(["predict", write_chain(tmp_path, 40)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["elements: 4398046511062", f"max parallel paths: {2**40}"]
    assert "modular: no" in lines and "strong_upper_semimodular: yes" in lines
    assert calls == []


def test_random_draws_over_many_vertices_count_few_paths(monkeypatch):
    # up to 5,000 vertices: nearly every draw holds more vertices and arrows
    # than the cap allows and is rejected before its paths are counted
    counted = []
    real = random_quivers.PathSemigroup
    monkeypatch.setattr(random_quivers, "PathSemigroup", lambda q: counted.append(q) or real(q))
    assert len(random_suite(2, 0, 5000)) == 2
    assert counted
    assert all(1 + len(q.vertices) + len(q.arrows) <= DEFAULT_MAX_ELEMENTS for q in counted)


def test_wide_random_draws_list_no_paths(forbid):
    # 40 arrows over 6 vertices: most draws are rejected, none is enumerated
    calls = forbid("enumerate_paths", "_product_table")
    q = random_acyclic_quiver(random.Random(3), 6, 40, 20)
    assert build_semigroup(q).n <= 20
    assert calls == []
