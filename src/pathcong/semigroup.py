"""The path semigroup of an acyclic quiver and the congruences on it."""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from functools import lru_cache

from . import _kernels
from .quiver import Path, Quiver, enumerate_paths, path_counts


class CapExceeded(Exception):
    """An enumeration was asked to run past its configured size cap."""


# The kernels store table entries and block labels in single bytes.
KERNEL_TABLE_LIMIT = 255

# The element cap every enumeration and CLI command defaults to.
DEFAULT_MAX_ELEMENTS = 20


class PathSemigroup:
    """All paths of an acyclic quiver plus an absorbing zero, with its table.

    Element 0 is the zero; element i >= 1 is ``paths[i-1]`` in path
    enumeration order.  ``table_bytes[i * n + j]`` is the index of the
    product: concatenation when the endpoints meet, zero otherwise.  Only
    the congruence route reads that table; the ideal route forms its own
    products from ``paths``.

    Only the path counts per (source, target) pair, ``counts``, and the
    element count ``n`` are computed up front, so a size cap can refuse a
    semigroup before any path or table exists.  ``paths``, the name index,
    ``table_bytes`` and ``congruence_closure`` are built on first use.
    ``report`` is None until ``verify.check_theorems`` stores its finished
    report there.  Semigroups of equal quivers compare equal.
    """

    __slots__ = (
        "quiver", "counts", "n", "report", "_paths", "_name_to_index", "_table_bytes", "_closure"
    )

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.counts = path_counts(quiver)
        self.n = 1 + sum(self.counts.values())
        self.report = self._paths = self._name_to_index = self._table_bytes = self._closure = None

    @property
    def paths(self) -> tuple[Path, ...]:
        """The enumerated paths, each (source, target) count checked against ``counts``."""
        if self._paths is None:
            paths = tuple(enumerate_paths(self.quiver))
            listed = Counter((p.source, p.target) for p in paths)
            counted = Counter(self.counts)
            for e in listed | counted:
                if listed[e] != counted[e]:
                    raise RuntimeError(
                        f"{e[0]} -> {e[1]}: {listed[e]} paths listed, path counts say {counted[e]}"
                    )
            self._paths = paths
        return self._paths

    @property
    def congruence_closure(self) -> tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...], tuple]:
        """``join_closure(congruence_route(self))`` and the route's generator pairs (x, y)."""
        if self._closure is None:
            route = congruence_route(self)
            self._closure = (*join_closure(route), tuple((x, y) for x, y, _ in route.atoms))
        return self._closure

    def element_name(self, i: int) -> str:
        return "0" if i == 0 else self.paths[i - 1].name

    def index_by_name(self, name: str) -> int:
        if self._name_to_index is None:
            index = {p.name: i for i, p in enumerate(self.paths, start=1)}
            self._name_to_index = {"0": 0, **index}
        return self._name_to_index[name]

    def check_element_cap(self, max_elements: int) -> None:
        """Raise CapExceeded if this semigroup has more than ``max_elements`` elements."""
        if self.n > max_elements:
            raise CapExceeded(
                f"semigroup has {self.n} elements; enumeration cap is {max_elements}"
            )

    def check_kernel_limit(self) -> None:
        """Raise CapExceeded if the kernels' byte table cannot hold this semigroup."""
        if self.n > KERNEL_TABLE_LIMIT:
            raise CapExceeded(
                f"semigroup with {self.n} elements exceeds the kernel table limit"
                f" of {KERNEL_TABLE_LIMIT}"
            )

    @property
    def table_bytes(self) -> bytes:
        """Row-major table encoding for the kernels (needs n <= KERNEL_TABLE_LIMIT)."""
        if self._table_bytes is None:
            self.check_kernel_limit()
            self._table_bytes = _product_table(self.paths)
        return self._table_bytes

    def __eq__(self, other):
        return self is other or isinstance(other, PathSemigroup) and self.quiver == other.quiver

    def __hash__(self):
        return hash(self.quiver)

    def __repr__(self):
        return f"PathSemigroup({self.n} elements)"


def _product_table(paths) -> bytes:
    """The row-major multiplication table over zero plus ``paths`` (in that index order)."""
    index = {p.arrows or p.source: i for i, p in enumerate(paths, start=1)}
    n = len(paths) + 1
    table = bytearray(n * n)
    for i, p in enumerate(paths, start=1):
        row = i * n
        for j, r in enumerate(paths, start=1):
            if p.target == r.source:
                table[row + j] = index[p.arrows + r.arrows or p.source]
    return bytes(table)


# The package's one semigroup cache.  It is bounded, so a long run over
# many quivers does not keep every semigroup, table, closure and report alive.
@lru_cache(maxsize=256)
def build_semigroup(q: Quiver) -> PathSemigroup:
    """The path semigroup of q, sized from path counts; paths and table come on first use.

    Equal quivers, whole or as components, share one semigroup, so its
    table and congruence closure are built once, and so is a whole
    quiver's theorem report.  Rejects cyclic quivers (the path set would
    be infinite).
    """
    return PathSemigroup(q)


class Congruence:
    """A partition of the semigroup's elements compatible with multiplication.

    The constructor stores ``labels`` in canonical restricted-growth form,
    whatever labels it is given: block k's least element grows with k, so
    the ``blocks`` view is sorted by least element with each block
    ascending, the zero element's block is block 0, and equal partitions
    have equal labels.  Labels that a kernel or the congruence closure
    returns are canonical already and go through ``_canonical_congruence``.
    """

    __slots__ = ("semigroup", "labels", "_blocks")

    def __init__(self, semigroup: PathSemigroup, labels):
        semigroup.check_kernel_limit()
        if len(labels) != semigroup.n:
            raise ValueError(f"{len(labels)} labels for a semigroup of {semigroup.n} elements")
        self.semigroup = semigroup
        self.labels = _kernels.canonical_labels(labels)
        self._blocks = None

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        if self._blocks is None:
            groups = [[] for _ in range(max(self.labels) + 1)]
            for i, lab in enumerate(self.labels):
                groups[lab].append(i)
            self._blocks = tuple(tuple(b) for b in groups)
        return self._blocks

    def validate(self) -> None:
        """Raise if the partition is not compatible with multiplication."""
        s = self.semigroup
        if not _kernels.is_congruence_labels(self.labels, s.table_bytes, s.n):
            raise ValueError("partition is not compatible with multiplication")

    def to_json_dict(self) -> dict:
        name = self.semigroup.element_name
        return {"blocks": [[name(i) for i in block] for block in self.blocks]}

    def __eq__(self, other):
        return (
            isinstance(other, Congruence)
            and self.labels == other.labels
            and self.semigroup == other.semigroup
        )

    def __hash__(self):
        return hash(self.labels)

    def __str__(self):
        return congruence_label(self)

    def __repr__(self):
        return f"Congruence({self})"


def _canonical_congruence(s: PathSemigroup, labels: bytes) -> Congruence:
    """A congruence on labels already in canonical form, stored as given."""
    c = object.__new__(Congruence)
    c.semigroup, c.labels, c._blocks = s, labels, None
    return c


def congruence_label(c: Congruence) -> str:
    """The blocks of ``c`` by element name, like ``{0,alpha} {1} {2}``."""
    name = c.semigroup.element_name
    return " ".join("{" + ",".join(name(i) for i in b) + "}" for b in c.blocks)


def _require_same_semigroup(a: Congruence, b: Congruence) -> PathSemigroup:
    if a.semigroup != b.semigroup:
        raise ValueError("congruences live on different semigroups")
    return a.semigroup


def identity_congruence(s: PathSemigroup) -> Congruence:
    return Congruence(s, range(s.n))


def universal_congruence(s: PathSemigroup) -> Congruence:
    return Congruence(s, bytes(s.n))


def congruence_from_blocks(s: PathSemigroup, blocks) -> Congruence:
    """Build a congruence from element-index blocks, validating everything."""
    s.check_kernel_limit()  # before a block is read
    labels = [-1] * s.n
    try:
        for k, block in enumerate(blocks):
            for i in map(operator.index, block):
                if not 0 <= i < s.n or labels[i] != -1:
                    raise ValueError("blocks do not form a partition of the elements")
                labels[i] = k
    except TypeError:
        raise ValueError("blocks must be iterables of integer element indices") from None
    if -1 in labels:
        raise ValueError("blocks do not cover every element")
    c = Congruence(s, labels)
    c.validate()
    return c


def congruence_from_json(s: PathSemigroup, obj: dict) -> Congruence:
    """Read ``{"blocks": [[name, ...], ...]}``; raises ``ValueError`` on any other shape."""
    blocks = obj.get("blocks") if isinstance(obj, dict) else None
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(isinstance(name, str) for name in b) for b in blocks
    ):
        raise ValueError('expected {"blocks": [[element name, ...], ...]}')
    s.check_kernel_limit()  # before a name is looked up, which lists every path
    try:
        blocks = [[s.index_by_name(name) for name in block] for block in blocks]
    except KeyError as exc:
        raise ValueError(f"unknown element {exc.args[0]!r}") from None
    return congruence_from_blocks(s, blocks)


def principal_congruence(s: PathSemigroup, x: int, y: int) -> Congruence:
    """The least congruence identifying x and y."""
    if not (0 <= x < s.n and 0 <= y < s.n):
        raise ValueError(f"element index out of range: {x}, {y}")
    return _canonical_congruence(s, _kernels.principal_labels(s.table_bytes, s.n, x, y))


def join_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Least congruence containing both (transitive closure of the union)."""
    s = _require_same_semigroup(a, b)
    labels = _kernels.join_labels(a.labels, b.labels)
    # The transitive closure of a union of congruences is always compatible
    # with multiplication; a failure here is a kernel bug, not bad input.
    if not _kernels.is_congruence_labels(labels, s.table_bytes, s.n):
        raise RuntimeError("join of two congruences is not a congruence")
    return _canonical_congruence(s, labels)


def meet_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Common refinement (intersection of the relations); always a congruence."""
    s = _require_same_semigroup(a, b)
    return _canonical_congruence(s, _kernels.meet_labels(a.labels, b.labels))


Route = namedtuple("Route", "seed atoms labels join")  # one side's closure input


def join_closure(route: Route):
    """Every join of the route's seed with its atoms, found breadth first, and their join table.

    Each atom is a triple ``(x, y, payload)``.  It lies below an element
    whose label vector, ``labels(element)``, read once per element, puts
    x and y in one block: their join is that element and is not formed.
    Otherwise the join is ``join(element, payload)``.  Joins are
    deduplicated by the element itself (its ``==`` and hash); the first
    one found is kept.  Returns the elements finest first, by their label
    vectors (the most blocks first, ties in label order), and their join
    table re-indexed to match, as tuples: row i, column k indexes element
    i joined with atom k.  Complete when each lattice element is the seed
    joined with the atoms below it.

    Each element after the seed was first found as p v a_j, with row p
    already complete.  Its join with a_k is then (p v a_k) v a_j, read
    from the table when t = p v a_k comes before it: row t is complete
    too, so the join is the table entry [t, j] and is not formed.
    Otherwise the row's earlier columns may decide it: an element's join
    with a_k depends only on the pair of blocks, (lab[x], lab[y])
    unordered, that a_k's x and y lie in.  So each row forms at most one
    join per pair of blocks and reads the rest from a dict keyed by the
    pair; the "below" test is the case where the two blocks are one.
    This needs ``join`` to be a semilattice join (associative,
    commutative, idempotent), labels that are bytes, and each payload to
    be the least element that puts its x and y in one block: then an
    element c that puts x' with x and y' with y has c v a = c v a' for
    atoms a = (x, y) and a' = (x', y').  The elements, their order and
    the table are those of joining every pair.
    """
    seed, atoms, labels, join = route
    found = {seed: 0}
    elements = [seed]
    origin = [None]  # origin[i] = (p, j): elements[i] was first found as p v a_j
    succ = []
    for i, cur in enumerate(elements):  # visits the elements appended below, in order
        lab = labels(cur)
        row = []
        by_pair = {}  # lo << 8 | hi -> this row's join with an atom across blocks lo < hi
        p, a = origin[i] or (None, None)
        for k, (x, y, payload) in enumerate(atoms):
            lo, hi = lab[x], lab[y]
            if lo == hi:
                row.append(i)
                continue
            pair = lo << 8 | hi if lo < hi else hi << 8 | lo
            if p is not None and (t := succ[p][k]) < i:
                j = succ[t][a]
            elif (j := by_pair.get(pair)) is None:
                joined = join(cur, payload)
                j = found.setdefault(joined, len(elements))
                if j == len(elements):
                    elements.append(joined)
                    origin.append((i, k))
            by_pair[pair] = j
            row.append(j)
        succ.append(row)
    rank = sorted(range(len(elements)), key=lambda i: (-max(lab := labels(elements[i])), lab))
    place = [0] * len(rank)  # inverts rank: elements[i] goes to place[i]
    for r, i in enumerate(rank):
        place[i] = r
    table = tuple(tuple(map(place.__getitem__, succ[i])) for i in rank)
    return tuple(elements[i] for i in rank), table


def enumerate_congruences(
    s: PathSemigroup, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[Congruence]:
    """Every congruence on s, from its cached ``congruence_closure``, finest first.

    Refuses semigroups above ``max_elements``.
    """
    s.check_element_cap(max_elements)
    return [_canonical_congruence(s, lab) for lab in s.congruence_closure[0]]


def congruence_route(s: PathSemigroup) -> Route:
    """The congruence route: the identity, and theta(0, y) and theta(x, y) for parallel x, y.

    Every congruence is the join of the principal congruences it contains,
    and in a finite lattice every element is the join of the
    join-irreducibles below it, so the join-irreducible principals are
    enough generators.  They are exactly the principals of these pairs,
    one per relation, each once:

    - nonzero x and y that are not parallel differ in source or target;
      say x starts at s and y does not.  Then e_s x = x and e_s y = 0
      (targets likewise, on the right), so theta(x, y) = theta(x, 0) v
      theta(y, 0) is join-irreducible only as one of those two;
    - theta(0, y) puts 0 and the paths u y v in one block and leaves the
      rest single.  A congruence below it that moves y puts y with 0 or
      with a longer u y v, which differs from y in source or target, so
      with 0 either way, and is theta(0, y).  So everything strictly below
      theta(0, y) keeps y a singleton, and so does their join;
    - a path meets each vertex at most once, so the block of parallel x in
      theta(x, y) is {x, y}, and every congruence strictly below keeps x a
      singleton;
    - theta(0, y) has y as the shortest path of its zero block, and
      theta(x, y) collapses nothing to 0, so no two generators are equal.

    One atom per relation, their pairs (x, y) in lexicographic order, the
    order of ``ideals.all_relations``; the closure lists them finest first.
    """
    mult = s.table_bytes
    n = s.n
    ends = [None, *((p.source, p.target) for p in s.paths)]
    generators = tuple(
        (x, y, _kernels.principal_labels(mult, n, x, y))
        for x in range(n)
        for y in range(x + 1, n)
        if not x or ends[x] == ends[y]
    )
    return Route(
        bytes(range(n)),
        generators,
        labels=lambda lab: lab,  # theta(x, y) <= cur iff cur puts x and y in one block
        join=_kernels.join_labels,
    )


def is_rees(c: Congruence) -> bool:
    """True iff c collapses a semigroup ideal and nothing else.

    Equivalently: every block other than the zero block is a singleton,
    so each element outside the zero block (label 0) has a block of its own.
    """
    lab = c.labels
    return len(set(lab)) - 1 == len(lab) - lab.count(0)
