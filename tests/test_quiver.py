import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcong import (
    CyclicQuiverError,
    Quiver,
    QuiverError,
    QuiverParseError,
    connected_components,
    enumerate_paths,
    is_acyclic,
    max_parallel_paths,
    parse_quiver,
    path_counts,
    quiver_to_text,
    random_acyclic_quiver,
    random_suite,
    underlying_graph_is_tree,
)

SINGLE_ARROW_TEXT = "vertices: 1 2\narrow alpha: 1 -> 2\n"


def test_parse_single_arrow():
    q = parse_quiver(SINGLE_ARROW_TEXT)
    assert q.vertices == ("1", "2")
    assert len(q.arrows) == 1
    assert q.arrows[0].name == "alpha"
    assert q.arrows[0].source == "1"
    assert q.arrows[0].target == "2"


def test_parse_minimal_quiver():
    q = parse_quiver("vertices: a\n")
    assert q.vertices == ("a",)
    assert q.arrows == ()


def test_parse_undeclared_vertex_reports_line():
    with pytest.raises(QuiverParseError) as err:
        parse_quiver("vertices: 1 2\narrow alpha: 1 -> 3\n")
    assert "3" in str(err.value)
    assert err.value.line == 2


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\nvertices: 1 2\n\n# another\narrow alpha: 1 -> 2\n"
    q = parse_quiver(text)
    assert len(q.arrows) == 1


def test_parse_rejects_duplicate_vertices_line():
    with pytest.raises(QuiverParseError):
        parse_quiver("vertices: 1\nvertices: 2\n")


def test_parse_rejects_missing_vertices_line():
    with pytest.raises(QuiverParseError):
        parse_quiver("arrow a: 1 -> 2\n")


def test_parse_rejects_garbage_line():
    with pytest.raises(QuiverParseError) as err:
        parse_quiver("vertices: 1\nnot a declaration\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_arrow_name():
    with pytest.raises(QuiverParseError):
        parse_quiver("vertices: 1 2\narrow a: 1 -> 2\narrow a: 1 -> 2\n")


# Element 0 prints as ``0`` and a composite path as its arrow names joined
# by dots, so a vertex ``0`` or a name holding a dot would print like
# another element.
COLLIDING_TEXTS = {
    "zero vertex": ("vertices: 0 1\narrow a: 0 -> 1\n", 1, "invalid vertex identifier '0'"),
    "dotted arrow": (
        "vertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow a.b: 1 -> 3\n",
        4,
        "invalid arrow name 'a.b'",
    ),
}


@pytest.mark.parametrize("text, line, message", COLLIDING_TEXTS.values(), ids=COLLIDING_TEXTS)
def test_parse_refuses_names_that_collide_with_element_names(text, line, message):
    with pytest.raises(QuiverParseError, match=message) as err:
        parse_quiver(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "vertices, arrows",
    [
        (["0", "1"], [("a", "0", "1")]),
        (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("a.b", "1", "3")]),
        (["1", "x.y"], []),
    ],
    ids=["zero vertex", "dotted arrow", "dotted vertex"],
)
def test_quiver_refuses_names_that_collide_with_element_names(vertices, arrows):
    with pytest.raises(QuiverError, match="invalid identifier"):
        Quiver(vertices, arrows)


def test_parse_roundtrip(kronecker):
    assert parse_quiver(quiver_to_text(kronecker)) == kronecker


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_parse_undoes_quiver_to_text_on_random_quivers(seed):
    q = random_acyclic_quiver(random.Random(seed), 6, 10, 400)
    assert parse_quiver(quiver_to_text(q)) == q


def test_constructor_validation():
    with pytest.raises(QuiverError):
        Quiver(["1", "1"])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [("1", "1", "2")])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "9")])


def test_is_acyclic(single_arrow):
    assert is_acyclic(single_arrow)
    loop = Quiver(["v"], [("a", "v", "v")])
    assert not is_acyclic(loop)
    triangle = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    assert not is_acyclic(triangle)


def test_enumerate_paths_single_arrow(single_arrow):
    assert [p.name for p in enumerate_paths(single_arrow)] == ["1", "2", "alpha"]


def test_enumerate_paths_triple_arrow(triple_arrow):
    names = [p.name for p in enumerate_paths(triple_arrow)]
    assert names == ["1", "2", "alpha", "beta", "gamma"]


def test_enumerate_paths_chain(chain3):
    # length is the primary sort key, so the two-arrow path comes last
    assert [p.name for p in enumerate_paths(chain3)] == ["1", "2", "3", "a", "b", "a.b"]


def test_enumerate_paths_rejects_cycles():
    loop = Quiver(["v"], [("a", "v", "v")])
    with pytest.raises(CyclicQuiverError):
        enumerate_paths(loop)


def test_enumerate_paths_matches_dfs_oracle(chain3, triple_arrow):
    rng = random.Random(7)
    quivers = [chain3, triple_arrow] + [random_acyclic_quiver(rng) for _ in range(10)]
    for q in quivers:
        got = sorted(p.arrows if not p.is_trivial else (p.source,) for p in enumerate_paths(q))
        want = sorted(t if t else (v,) for t, v in _tagged_dfs(q))
        assert got == want


def _tagged_dfs(q):
    out = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.source].append(a)
    found = []

    def extend(names, at, base):
        found.append((tuple(names), base))
        for a in out[at]:
            extend(names + [a.name], a.target, base)

    for v in q.vertices:
        extend([], v, v)
    return found


def test_paths_closed_under_subpaths(chain3):
    rng = random.Random(11)
    for q in [chain3] + [random_acyclic_quiver(rng) for _ in range(10)]:
        arrows = {p.arrows for p in enumerate_paths(q)}
        for seq in arrows:
            for i in range(len(seq)):
                for j in range(i + 1, len(seq) + 1):
                    assert seq[i:j] in arrows


def test_path_count_matches_matrix_power_oracle():
    rng = random.Random(13)
    for _ in range(15):
        q = random_acyclic_quiver(rng)
        n = len(q.vertices)
        adj = [[0] * n for _ in range(n)]
        for a in q.arrows:
            adj[q.vertex_index(a.source)][q.vertex_index(a.target)] += 1
        total = [[int(i == j) for j in range(n)] for i in range(n)]
        power = [row[:] for row in total]
        for _ in range(n):
            power = [
                [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
        assert sum(map(sum, total)) == len(enumerate_paths(q))
        assert max(map(max, total), default=0) == max_parallel_paths(q)


QUIVER_FILES = sorted((Path(__file__).resolve().parent.parent / "quivers").glob("*.quiver"))


def endpoint_counter(q):
    return Counter((p.source, p.target) for p in enumerate_paths(q))


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda p: p.stem)
def test_path_counts_match_enumeration_on_shipped_quivers(path):
    q = parse_quiver(path.read_text())
    assert path_counts(q) == endpoint_counter(q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_path_counts_match_enumeration_on_random_quivers(seed):
    q = random_acyclic_quiver(random.Random(seed), 6, 10, 400)
    counts = path_counts(q)
    assert counts == endpoint_counter(q)
    assert all(type(c) is int for c in counts.values())


def test_path_counts_are_exact_on_a_long_doubled_chain():
    vertices = [f"v{i}" for i in range(61)]
    arrows = [(f"{x}{i}", vertices[i], vertices[i + 1]) for i in range(60) for x in "ab"]
    counts = path_counts(Quiver(vertices, arrows))
    assert counts["v0", "v60"] == 2**60
    assert counts["v7", "v7"] == 1 and ("v7", "v6") not in counts


def test_path_counts_reject_cycles_like_enumeration():
    loop = Quiver(["v", "w"], [("a", "v", "w"), ("b", "w", "v")])
    with pytest.raises(CyclicQuiverError) as counted:
        path_counts(loop)
    with pytest.raises(CyclicQuiverError) as listed:
        enumerate_paths(loop)
    assert str(counted.value) == str(listed.value)


def test_max_parallel_paths(single_arrow, kronecker, triple_arrow):
    assert max_parallel_paths(single_arrow) == 1
    assert max_parallel_paths(kronecker) == 2
    assert max_parallel_paths(triple_arrow) == 3


def test_underlying_graph_is_tree(chain3, kronecker):
    assert underlying_graph_is_tree(chain3)
    assert not underlying_graph_is_tree(kronecker)
    assert not underlying_graph_is_tree(Quiver(["1", "2"]))
    assert underlying_graph_is_tree(Quiver(["1"]))


def test_tree_implies_unique_parallel_path(chain3):
    star = Quiver(["c", "1", "2", "3"], [("a", "c", "1"), ("b", "c", "2"), ("d", "3", "c")])
    for q in (chain3, star):
        assert underlying_graph_is_tree(q)
        assert max_parallel_paths(q) == 1


def test_connected_components_connected_input(single_arrow):
    comps = connected_components(single_arrow)
    assert comps == [single_arrow]


def test_connected_components_with_isolated_vertex():
    q = Quiver(["1", "2", "x"], [("alpha", "1", "2")])
    comps = connected_components(q)
    assert len(comps) == 2
    assert comps[0].vertices == ("1", "2")
    assert comps[1].vertices == ("x",)


def test_connected_components_parallel_counts():
    q = Quiver(
        ["1", "2", "3", "4"],
        [("alpha", "1", "2"), ("beta", "1", "2"), ("c", "3", "4")],
    )
    comps = connected_components(q)
    assert [max_parallel_paths(c) for c in comps] == [2, 1]


def test_connected_components_partition_and_reassemble():
    rng = random.Random(17)
    for _ in range(10):
        q = random_acyclic_quiver(rng)
        comps = connected_components(q)
        vertices = [v for c in comps for v in c.vertices]
        arrows = [a for c in comps for a in c.arrows]
        assert sorted(vertices) == sorted(q.vertices)
        assert sorted(a.name for a in arrows) == sorted(a.name for a in q.arrows)
        for a in arrows:
            assert a in q.arrows


@pytest.mark.parametrize(
    "kwargs",
    [{"max_elements": 1}, {"max_elements": 0}, {"max_vertices": 0}, {"max_arrows": -1}],
)
def test_random_quiver_rejects_unsatisfiable_caps(kwargs):
    # max_elements=1 once redrew forever: no path semigroup has under 2 elements
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_acyclic_quiver(rng, **kwargs)
    assert rng.getstate() == state


def test_random_suite_draw_stream_is_pinned():
    # the benchmark's golden counts are recorded against this exact suite
    text = "".join(quiver_to_text(q) for q in random_suite(60, 0, max_arrows=4, max_elements=12))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8c4cf39b6d84e42838af53d86407e80cc378238aa3a1f4c1da167ec172d0e40c"
    )


def test_early_rejection_keeps_the_draw_stream():
    # over up to 40 vertices most draws hold more vertices and arrows than
    # 20 elements allow and are rejected before their paths are counted;
    # the suite is the one drawn when every draw's paths were counted
    suite = random_suite(20, 0, max_vertices=40, max_arrows=5, max_elements=20)
    text = "".join(quiver_to_text(q) for q in suite)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "946bb8a04ff307c0110daac4371f10e73ec46badbc1e189a4ab0befc465c3742"
    )
