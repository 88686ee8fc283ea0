"""Relations, relation-generated ideals of the path algebra, and their
correspondence with congruences of the path semigroup.

Relations are monomials (single paths) and differences of two distinct
parallel paths.  A special ideal is the zero ideal or one generated by
relations; it is carried with the exact RREF basis of its underlying
vector space, and that basis is its identity (generating sets are not
unique).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .linalg import PathVector, Subspace, path_vector_to_json, row_reduce, subspace_sum
from .quiver import Quiver
from .semigroup import DEFAULT_MAX_ELEMENTS, Congruence, PathSemigroup, _canonical_congruence
from .semigroup import KERNEL_TABLE_LIMIT, Route, build_semigroup, join_closure


@dataclass(frozen=True)
class Relation:
    """A monomial (``second is None``) or commutative relation on path indices.

    Commutative relations keep the lesser path (in global path order)
    first and vectorize as first - second.
    """

    first: int
    second: int | None = None

    def vectorize(self) -> PathVector:
        if self.second is None:
            return PathVector({self.first: 1})
        return PathVector({self.first: 1, self.second: -1})

    def display(self, paths) -> str:
        if self.second is None:
            return paths[self.first].name
        return f"{paths[self.first].name} - {paths[self.second].name}"

    def sort_key(self):
        return (0, self.first, -1) if self.second is None else (1, self.first, self.second)


def monomial_relation(i: int) -> Relation:
    return Relation(i)


def commutative_relation(i: int, j: int) -> Relation:
    if i == j:
        raise ValueError("commutative relation needs two distinct paths")
    return Relation(min(i, j), max(i, j))


def _validate_relation(r: Relation, s: PathSemigroup) -> None:
    npaths = len(s.paths)
    if not 0 <= r.first < npaths:
        raise ValueError(f"invalid relation: path index {r.first} out of range")
    if r.second is not None:
        if not 0 <= r.second < npaths or r.second <= r.first:
            raise ValueError("invalid relation: bad second path index")
        a, b = s.paths[r.first], s.paths[r.second]
        if a.source != b.source or a.target != b.target:
            raise ValueError("invalid relation: paths are not parallel")


def all_relations(q: Quiver) -> tuple[Relation, ...]:
    """Every relation: the monomial of each path, in path order, then x - y
    for each pair of distinct parallel paths x < y, in lexicographic order.

    That is the order of ``congruence_route``'s generators, on
    purpose: column k of both join tables is then one relation.  The two
    lists are built apart, and verdict 1 checks one against the other.
    """
    paths = build_semigroup(q).paths
    n = len(paths)
    ends = [(p.source, p.target) for p in paths]
    parallel = [Relation(x, y) for x in range(n) for y in range(x + 1, n) if ends[x] == ends[y]]
    return (*map(Relation, range(n)), *parallel)


class SpecialIdeal:
    """An ideal generated by relations, with its vector space in RREF form.

    Two ideals are equal exactly when their spaces are; the recorded
    generating set is one of possibly many.  The hash is that of the
    residue labels, which equal spaces share; two spaces with one label
    vector hash alike but stay unequal.  Past the kernels' table limit,
    where there are no labels, it is the space's hash.
    """

    __slots__ = ("quiver", "_generators", "space", "_residue_labels")

    def __init__(self, quiver: Quiver, generators: frozenset | tuple, space: Subspace):
        self.quiver = quiver
        # a frozenset, or the two ideals a join comes from
        self._generators = generators
        self.space = space
        self._residue_labels = None

    @property
    def generators(self) -> frozenset[Relation]:
        """The recorded relations; a join's are the union of its operands',
        formed on first read with an explicit stack, so no chain of joins is
        too deep."""
        gens = self._generators
        if type(gens) is tuple:
            union, seen, stack = set(), set(), list(gens)
            while stack:
                ideal = stack.pop()
                if id(ideal) in seen:
                    continue
                seen.add(id(ideal))
                if type(ideal._generators) is tuple:
                    stack.extend(ideal._generators)
                else:
                    union |= ideal.generators
            self._generators = frozenset(union)
        return self._generators

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def residue_labels(self) -> bytes:
        """Canonical byte labels of the residues against the rows (element 0: the zero vector,
        element e: path e - 1), kept from the first read; CapExceeded above 255 elements."""
        if self._residue_labels is None:
            if self.space.dim_ambient >= KERNEL_TABLE_LIMIT:
                build_semigroup(self.quiver).check_kernel_limit()
            self._residue_labels = _kernels.canonical_labels([(), *self.space.unit_residue_keys()])
        return self._residue_labels

    def to_json_dict(self) -> dict:
        paths = build_semigroup(self.quiver).paths
        names = [p.name for p in paths]
        gens = sorted(self.generators, key=Relation.sort_key)
        return {
            "generators": [g.display(paths) for g in gens],
            "basis": [path_vector_to_json(v, names) for v in self.space.basis],
        }

    def __eq__(self, other):
        return (
            isinstance(other, SpecialIdeal)
            and self.quiver == other.quiver
            and self.space == other.space
        )

    def __hash__(self):
        if self.space.dim_ambient >= KERNEL_TABLE_LIMIT:
            return hash(self.space)
        return hash(self.residue_labels)

    def __repr__(self):
        return f"SpecialIdeal(dim {self.dim})"


def contains_relation(ideal: SpecialIdeal, r: Relation) -> bool:
    """Whether the ideal contains r, read off its ``residue_labels`` (so at
    most 255 elements).  The residue map is linear, so y lies in the ideal
    iff its label is the zero element's, 0, and x - y iff x and y share one."""
    lab = ideal.residue_labels
    return lab[r.first + 1] == (0 if r.second is None else lab[r.second + 1])


def generate_ideal(q: Quiver, gens) -> SpecialIdeal:
    """The ideal generated by the given relations: the span of every product
    u*g*v with u, v paths (trivial ones included) meeting g's ends, which is
    closed under multiplication.  Each product is formed here, by joining
    arrow tuples: the semigroup's table is the congruence route's alone.
    """
    s = build_semigroup(q)
    gens = frozenset(gens)
    for r in gens:
        _validate_relation(r, s)
    return _generate(q, gens, _product_index(s.paths))


def _product_index(paths):
    """The ideal route's own product index over ``paths``: path index by arrow
    tuple (a trivial path by its vertex), and by vertex the arrow tuples of
    the paths into it and out of it."""
    index = {p.arrows or p.source: i for i, p in enumerate(paths)}
    into, out_of = {}, {}
    for p in paths:
        into.setdefault(p.target, []).append(p.arrows)
        out_of.setdefault(p.source, []).append(p.arrows)
    return paths, index, into, out_of


def _generate(q: Quiver, gens: frozenset, products) -> SpecialIdeal:
    """``generate_ideal`` of valid relations, over a ``_product_index``."""
    paths, index, into, out_of = products
    vectors = []
    for g in gens:
        head = paths[g.first]
        tail = None if g.second is None else paths[g.second].arrows
        for u in into.get(head.source, ()):
            for v in out_of.get(head.target, ()):
                w1 = index[u + head.arrows + v or head.source]
                coeffs = {w1: 1} if tail is None else {w1: 1, index[u + tail + v]: -1}
                vectors.append(PathVector(coeffs))
    return SpecialIdeal(q, gens, row_reduce(vectors, len(paths)))


def zero_ideal(q: Quiver) -> SpecialIdeal:
    return generate_ideal(q, ())


def _require_same_quiver(a: SpecialIdeal, b: SpecialIdeal) -> Quiver:
    if a.quiver != b.quiver:
        raise ValueError("ideals live over different quivers")
    return a.quiver


def ideal_join(a: SpecialIdeal, b: SpecialIdeal) -> SpecialIdeal:
    """Join = sum of the underlying spaces, generated by the union of generators,
    which is formed when ``generators`` is first read."""
    q = _require_same_quiver(a, b)
    return SpecialIdeal(q, (a, b), subspace_sum(a.space, b.space))


def ideal_route(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Route:
    """The zero ideal and one atom (r) per relation r, in ``all_relations`` order.

    Its ``join_closure`` is every special ideal, deduplicated by RREF
    space (``SpecialIdeal`` equality) and listed finest first by residue
    labels: the zero ideal first, the whole path algebra last.  A special
    ideal has dimension n - 1 - max(labels), so that is the order by
    (dimension, residue labels), and the image of congruence k is ideal
    k.  Refuses semigroups above ``max_elements`` or the kernels' table
    limit, as the congruence side does, before any relation is listed.
    """
    s = build_semigroup(q)
    s.check_element_cap(max_elements)
    s.check_kernel_limit()
    # one atom (r) per relation r, and no two equal: (y) has y as its
    # shortest path; (x - y) is spanned by the u*x*v - u*y*v, whose
    # supports are disjoint, so it holds no monomial and its shortest
    # two-term vector is x - y.  A two-sided ideal contains (r) exactly
    # when it contains r, which its residue labels say (``contains_relation``):
    # the elements (x, y) of r share a label, x = 0 for a monomial, as in
    # the congruence route's theta(x, y)
    products = _product_index(s.paths)  # built once for all K + 1 generations
    atoms = []
    for r in all_relations(q):
        x, y = (-1, r.first) if r.second is None else (r.first, r.second)  # path indices, -1: zero
        atoms.append((x + 1, y + 1, _generate(q, frozenset((r,)), products)))
    return Route(
        _generate(q, frozenset(), products),
        tuple(atoms),
        labels=lambda ideal: ideal.residue_labels,
        join=ideal_join,
    )


def enumerate_special_ideals(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list:
    """Every special ideal, ordered by (dimension, basis)."""
    found = join_closure(ideal_route(q, max_elements))[0]
    return sorted(found, key=lambda ideal: (ideal.dim, ideal.space.key()))


def congruence_to_ideal(s: PathSemigroup, c: Congruence) -> SpecialIdeal:
    """The special ideal a congruence determines: the span of every x - y
    with x and y in one block, the zero element standing for 0.

    That span is already an ideal, since x ~ y gives u*x*v ~ u*y*v, so
    its RREF rows are written straight from the labels, in one pass in
    pivot order: a nonzero element z of the zero block gives the row z,
    and every element b of another block but its greatest, b_k, gives the
    row b - b_k.  Each row's pivot has entry 1 and its one other column,
    b_k, is no pivot, so the rows are reduced.  The same pass records the
    generators: each nonzero element z of the zero block, and x - y for
    every other element y of a block and its least, x.  Raises
    ``ValueError`` if the partition is not a congruence.
    """
    if c.semigroup != s:
        raise ValueError("congruence does not live on this semigroup")
    if not _kernels.is_congruence_labels(c.labels, s.table_bytes, s.n):
        raise ValueError("partition is not a congruence")
    last = dict(zip(c.labels, range(-1, s.n - 1)))  # label -> greatest path index in the block
    least, rows, gens = {}, {}, []
    for e, lab in enumerate(c.labels[1:]):  # e: path index of element e + 1
        if not lab:
            rows[e] = {e: 1}
            gens.append(Relation(e))
            continue
        if last[lab] != e:
            rows[e] = {e: 1, last[lab]: -1}
        if least.setdefault(lab, e) != e:
            gens.append(Relation(least[lab], e))
    return SpecialIdeal(s.quiver, frozenset(gens), Subspace(len(s.paths), rows))


def ideal_to_congruence(s: PathSemigroup, ideal: SpecialIdeal) -> Congruence:
    """The congruence an ideal determines: x ~ y iff their difference lies in it.

    Equal residues against the ideal's rows mean the difference reduces to
    zero, so the blocks are the ideal's ``residue_labels``, which are read
    off its rows once and are canonical already.
    """
    if s.quiver != ideal.quiver:
        raise ValueError("ideal lives over a different quiver")
    labels = ideal.residue_labels
    if not _kernels.is_congruence_labels(labels, s.table_bytes, s.n):
        raise RuntimeError("residue partition is not a congruence; ideal is not special")
    return _canonical_congruence(s, labels)
