"""Quivers (finite directed multigraphs): parsing, validation, path structure."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


class QuiverError(ValueError):
    """A structurally invalid quiver, or an operation applied outside its domain."""


class QuiverParseError(QuiverError):
    """Malformed quiver file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class CyclicQuiverError(QuiverError):
    """The operation is defined only for acyclic quivers."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; with no arrows, the trivial path at ``source``."""

    arrows: tuple[str, ...]
    source: str
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def name(self) -> str:
        return ".".join(self.arrows) if self.arrows else self.source

    def __repr__(self):
        return f"Path({self.name})"


class Quiver:
    """Ordered vertex and arrow lists with source/target maps.

    Every name is a valid identifier (``_valid_identifier``).  Vertex
    identifiers are pairwise distinct; arrow names are pairwise distinct,
    disjoint from the vertex identifiers, and may only connect declared
    vertices.  Instances are immutable and hashable.
    """

    __slots__ = ("vertices", "arrows", "_vertex_index", "_hash")

    def __init__(self, vertices, arrows=()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(
            a if isinstance(a, Arrow) else Arrow(*a) for a in arrows
        )
        for name in (*self.vertices, *(a.name for a in self.arrows)):
            if not _valid_identifier(name):
                raise QuiverError(f"invalid identifier {name!r}")
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise QuiverError(f"duplicate vertex identifier {v!r}")
            seen.add(v)
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise QuiverError(f"duplicate arrow name {a.name!r}")
            if a.name in self._vertex_index:
                raise QuiverError(f"arrow name {a.name!r} collides with a vertex identifier")
            names.add(a.name)
            for endpoint in (a.source, a.target):
                if endpoint not in self._vertex_index:
                    raise QuiverError(f"arrow {a.name!r} uses undeclared vertex {endpoint!r}")
        # hashed once, since the package's caches are keyed by quiver
        self._hash = hash((self.vertices, self.arrows))

    def vertex_index(self, v: str) -> int:
        return self._vertex_index[v]

    def trivial_path(self, v: str) -> Path:
        if v not in self._vertex_index:
            raise QuiverError(f"no vertex {v!r}")
        return Path((), v, v)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def _valid_identifier(token: str) -> bool:
    """Nonempty, no ':', '.', '->' or whitespace, and not ``0``, so no element
    names collide and every name reads back from its line of the file format."""
    marks = (":", ".", "->")
    return token != "0" and not any(m in token for m in marks) and token.split() == [token]


def parse_quiver(text: str) -> Quiver:
    """Parse the line-oriented quiver format.

    Blank lines and lines starting with ``#`` are ignored.  Exactly one
    line ``vertices: v1 v2 ...`` declares the vertices; every other line
    is ``arrow name: src -> tgt``.  Declaration order is preserved.
    """
    vertices: list[str] | None = None
    arrow_decls: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split()[0]
        if line.startswith("vertices:"):
            if vertices is not None:
                raise QuiverParseError("second 'vertices:' line", lineno)
            vertices = line[len("vertices:"):].split()
            seen = set()
            for v in vertices:
                if not _valid_identifier(v):
                    raise QuiverParseError(f"invalid vertex identifier {v!r}", lineno)
                if v in seen:
                    raise QuiverParseError(f"duplicate vertex identifier {v!r}", lineno)
                seen.add(v)
        elif keyword == "arrow":
            head, sep, rest = line[len("arrow"):].partition(":")
            if not sep:
                raise QuiverParseError("arrow line is missing ':'", lineno)
            name = head.strip()
            if not _valid_identifier(name):
                raise QuiverParseError(f"invalid arrow name {name!r}", lineno)
            ends = rest.split("->")
            if len(ends) != 2:
                raise QuiverParseError("arrow line needs exactly one '->'", lineno)
            src, tgt = ends[0].split(), ends[1].split()
            if len(src) != 1 or len(tgt) != 1:
                raise QuiverParseError("arrow endpoints must be single identifiers", lineno)
            arrow_decls.append((name, src[0], tgt[0], lineno))
        else:
            raise QuiverParseError(f"unrecognized declaration {keyword!r}", lineno)
    if vertices is None:
        raise QuiverParseError("missing 'vertices:' line")
    vertex_set = set(vertices)
    names = set()
    for name, src, tgt, lineno in arrow_decls:
        if name in names or name in vertex_set:
            raise QuiverParseError(f"duplicate name {name!r}", lineno)
        names.add(name)
        for endpoint in (src, tgt):
            if endpoint not in vertex_set:
                raise QuiverParseError(f"undeclared vertex {endpoint!r}", lineno)
    return Quiver(vertices, [(n, s, t) for n, s, t, _ in arrow_decls])


def quiver_to_text(q: Quiver) -> str:
    """Serialize a quiver back into the file format (inverse of parse_quiver)."""
    lines = ["vertices: " + " ".join(q.vertices)]
    lines.extend(f"arrow {a.name}: {a.source} -> {a.target}" for a in q.arrows)
    return "\n".join(lines) + "\n"


def _topological_order(q: Quiver) -> list[str] | None:
    """The vertices with every arrow running forward, or None if q has a cycle."""
    indeg = {v: 0 for v in q.vertices}
    out = defaultdict(list)
    for a in q.arrows:
        indeg[a.target] += 1
        out[a.source].append(a.target)
    ready = [v for v in q.vertices if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == len(q.vertices) else None


def is_acyclic(q: Quiver) -> bool:
    """True iff no nontrivial path has equal source and target."""
    return _topological_order(q) is not None


def enumerate_paths(q: Quiver) -> list[Path]:
    """All paths of an acyclic quiver, one trivial path per vertex included.

    Ordered by (length, arrow-name sequence); trivial paths tie on both
    keys and come in vertex declaration order.
    """
    if not is_acyclic(q):
        raise CyclicQuiverError("path enumeration requires an acyclic quiver")
    out = defaultdict(list)
    for a in q.arrows:
        out[a.source].append(a)
    paths = [q.trivial_path(v) for v in q.vertices]
    frontier = [Path((a.name,), a.source, a.target) for a in q.arrows]
    while frontier:
        paths.extend(frontier)
        frontier = [
            Path(p.arrows + (a.name,), p.source, a.target)
            for p in frontier
            for a in out[p.target]
        ]

    def key(p: Path):
        return (p.length, p.arrows, q.vertex_index(p.source) if p.is_trivial else -1)

    paths.sort(key=key)
    return paths


def path_counts(q: Quiver) -> dict[tuple[str, str], int]:
    """Number of paths per (source, target) pair joined by at least one.

    Trivial paths count, so every (v, v) maps to 1.  Equals a ``Counter``
    of the endpoints of ``enumerate_paths(q)`` without listing a path:
    dynamic programming over a topological order with exact ints, in
    O(|vertices| * (|vertices| + |arrows|)) steps however many paths
    there are.
    """
    order = _topological_order(q)
    if order is None:
        raise CyclicQuiverError("path enumeration requires an acyclic quiver")
    out = defaultdict(list)
    for a in q.arrows:
        out[a.source].append(a.target)
    counts = {}
    for s in q.vertices:
        reach = {s: 1}
        for v in order:
            c = reach.get(v)
            if c:
                counts[s, v] = c
                for w in out[v]:
                    reach[w] = reach.get(w, 0) + c
    return counts


def max_parallel_paths(q: Quiver) -> int:
    """Maximum number of distinct paths sharing one (source, target) pair.

    Trivial paths count; in an acyclic quiver each (v, v) pair contributes
    exactly one.  Returns 0 for the empty quiver.
    """
    return max(path_counts(q).values(), default=0)


def _undirected_reach(q: Quiver) -> list[int]:
    """Component id per vertex index, by union-find over arrow endpoints."""
    parent = list(range(len(q.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in q.arrows:
        ri, rj = find(q.vertex_index(a.source)), find(q.vertex_index(a.target))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(q.vertices))]


def underlying_graph_is_tree(q: Quiver) -> bool:
    """True iff the underlying undirected multigraph is connected and acyclic.

    Parallel arrows count as distinct edges, so |arrows| must equal
    |vertices| - 1 on top of connectivity.
    """
    if not q.vertices:
        return False
    if len(q.arrows) != len(q.vertices) - 1:
        return False
    roots = _undirected_reach(q)
    return len(set(roots)) == 1


def connected_components(q: Quiver) -> list[Quiver]:
    """Maximal weakly-connected subquivers, ordered by first vertex occurrence.

    Every vertex and arrow lands in exactly one component; relative
    declaration order is preserved inside each component.
    """
    roots = _undirected_reach(q)
    order: list[int] = []
    for r in roots:
        if r not in order:
            order.append(r)
    components = []
    for r in order:
        vs = [v for i, v in enumerate(q.vertices) if roots[i] == r]
        ars = [
            (a.name, a.source, a.target)
            for a in q.arrows
            if roots[q.vertex_index(a.source)] == r
        ]
        components.append(Quiver(vs, ars))
    return components
