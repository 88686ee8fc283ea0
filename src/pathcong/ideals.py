"""Relations, relation-generated ideals of the path algebra, and their
correspondence with congruences of the path semigroup.

Relations are monomials (single paths) and differences of two distinct
parallel paths.  A special ideal is the zero ideal or one generated by
relations; it is carried with the exact RREF basis of its underlying
vector space, and that basis is its identity (generating sets are not
unique).
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels
from .linalg import PathVector, Subspace, path_vector_to_json, row_reduce, subspace_sum
from .quiver import Quiver
from .semigroup import DEFAULT_MAX_ELEMENTS, Congruence, PathSemigroup, _canonical_congruence
from .semigroup import KERNEL_TABLE_LIMIT, Route, build_semigroup, join_closure


class Relation(NamedTuple):
    """A relation as its pair (x, y) of semigroup elements, as x ~ y in a
    congruence: element 0 is the zero and element e is path e - 1, so the
    monomial y is (0, y) and the difference x - y of two distinct parallel
    paths is (x, y) with x < y.  Pairs sort in ``_bit`` order.
    """

    x: int
    y: int

    def vectorize(self) -> PathVector:
        if not self.x:
            return PathVector({self.y - 1: 1})
        return PathVector({self.x - 1: 1, self.y - 1: -1})

    def display(self, paths) -> str:
        if not self.x:
            return paths[self.y - 1].name
        return f"{paths[self.x - 1].name} - {paths[self.y - 1].name}"


def monomial_relation(i: int) -> Relation:
    """The monomial on path i."""
    return Relation(0, i + 1)


def commutative_relation(i: int, j: int) -> Relation:
    """The difference of paths i and j, the lesser path first."""
    if i == j:
        raise ValueError("commutative relation needs two distinct paths")
    return Relation(min(i, j) + 1, max(i, j) + 1)


def _validate_relation(r: Relation, s: PathSemigroup) -> None:
    if not isinstance(r, Relation) or not all(isinstance(i, int) for i in r):
        raise ValueError(f"invalid relation: {r!r} is not a Relation of two ints")
    if not 0 < r.y <= len(s.paths):
        raise ValueError(f"invalid relation: path index {r.y - 1} out of range")
    if r.x:
        if not 0 < r.x < r.y:
            raise ValueError("invalid relation: bad first path index")
        a, b = s.paths[r.x - 1], s.paths[r.y - 1]
        if a.source != b.source or a.target != b.target:
            raise ValueError("invalid relation: paths are not parallel")


def _bit(r: Relation, npaths: int) -> int:
    """The bit of r in a generator mask, so bit order is ``all_relations`` order:
    y - 1 for the monomial y, npaths*x + y - 1 for x - y."""
    return r.x * npaths + r.y - 1


def _relations(mask: int, npaths: int) -> list[Relation]:
    """The relations whose bits are set in ``mask``, in bit order."""
    rels = []
    while mask:
        x, y = divmod((mask & -mask).bit_length() - 1, npaths)
        rels.append(Relation(x, y + 1))
        mask &= mask - 1  # clears the lowest bit
    return rels


def all_relations(q: Quiver) -> tuple[Relation, ...]:
    """Every relation: the monomial of each path, in path order, then x - y
    for each pair of distinct parallel paths x < y, in lexicographic order.

    That is the order of ``congruence_route``'s generators, on
    purpose: column k of both join tables is then one relation.  The two
    lists are built apart, and verdict 1 checks one against the other.
    """
    s = build_semigroup(q)
    n, ends = s.n, [None, *((p.source, p.target) for p in s.paths)]  # by element, 0: the zero
    parallel = [Relation(x, y) for x in range(1, n) for y in range(x + 1, n) if ends[x] == ends[y]]
    return (*(Relation(0, y) for y in range(1, n)), *parallel)


class SpecialIdeal:
    """An ideal generated by relations, with its vector space in RREF form.

    Two ideals are equal exactly when their spaces are; the recorded
    generating set is one of possibly many, kept as ``mask``, an int with
    each relation's ``_bit`` set.  The hash is that of the residue labels,
    which equal spaces share; two spaces with one label vector hash alike
    but stay unequal.  Past the kernels' table limit, where there are no
    labels, it is the space's hash.
    """

    __slots__ = ("quiver", "mask", "space", "_residue_labels")

    def __init__(self, quiver: Quiver, mask: int, space: Subspace):
        self.quiver = quiver
        self.mask = mask
        self.space = space
        self._residue_labels = None

    @property
    def generators(self) -> frozenset[Relation]:
        """The recorded relations, read off ``mask``."""
        return frozenset(_relations(self.mask, self.space.dim_ambient))

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
        return {
            "generators": [g.display(paths) for g in sorted(self.generators)],
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
    most 255 elements).  The residue map is linear, so r = (x, y) lies in
    the ideal iff x and y share a label, the zero element's for a monomial."""
    lab = ideal.residue_labels
    return lab[r.x] == lab[r.y]


def generate_ideal(q: Quiver, gens) -> SpecialIdeal:
    """The ideal generated by the given relations: the span of every product
    u*g*v with u, v paths (trivial ones included) meeting g's ends, which is
    closed under multiplication.  Each product is formed here, by joining
    arrow tuples: the semigroup's table is the congruence route's alone.
    Raises ``ValueError`` on a relation that is not one of q's.
    """
    s = build_semigroup(q)
    paths = s.paths
    # path index by arrow tuple (a trivial path by its vertex), and by
    # vertex the arrow tuples of the paths into it and out of it
    index = {p.arrows or p.source: i for i, p in enumerate(paths)}
    into, out_of = {}, {}
    for p in paths:
        into.setdefault(p.target, []).append(p.arrows)
        out_of.setdefault(p.source, []).append(p.arrows)
    mask, vectors = 0, []
    for r in gens:
        _validate_relation(r, s)
        mask |= 1 << _bit(r, len(paths))
        # x is nontrivial: in an acyclic quiver no trivial path is parallel to another
        x = paths[r.x - 1].arrows if r.x else None
        y = paths[r.y - 1]
        for u in into.get(y.source, ()):
            for v in out_of.get(y.target, ()):
                w = index[u + y.arrows + v or y.source]
                coeffs = {w: 1} if x is None else {index[u + x + v]: 1, w: -1}
                vectors.append(PathVector(coeffs))
    return SpecialIdeal(q, mask, row_reduce(vectors, len(paths)))


def zero_ideal(q: Quiver) -> SpecialIdeal:
    return generate_ideal(q, ())


def _require_same_quiver(a: SpecialIdeal, b: SpecialIdeal) -> Quiver:
    if a.quiver != b.quiver:
        raise ValueError("ideals live over different quivers")
    return a.quiver


def ideal_join(a: SpecialIdeal, b: SpecialIdeal) -> SpecialIdeal:
    """Join = sum of the underlying spaces, generated by the union of generators."""
    q = _require_same_quiver(a, b)
    return SpecialIdeal(q, a.mask | b.mask, subspace_sum(a.space, b.space))


def ideal_route(q: Quiver) -> Route:
    """The zero ideal and one atom (r) per relation r, in ``all_relations`` order.

    Its ``join_closure`` is every special ideal, deduplicated by RREF
    space (``SpecialIdeal`` equality) and listed finest first by residue
    labels: the zero ideal first, the whole path algebra last.  A special
    ideal has dimension n - 1 - max(labels), so that is the order by
    (dimension, residue labels), and the image of congruence k is ideal
    k.  Refuses semigroups past the kernels' table limit alone, as the
    congruence route does, before any relation is listed.
    """
    s = build_semigroup(q)
    s.check_kernel_limit()
    # one atom (r) per relation r, and no two equal: (y) has y as its
    # shortest path; (x - y) is spanned by the u*x*v - u*y*v, whose
    # supports are disjoint, so it holds no monomial and its shortest
    # two-term vector is x - y.  A two-sided ideal contains (r) exactly
    # when it contains r = (x, y), which its residue labels say
    # (``contains_relation``): x and y share a label, as in theta(x, y)
    return Route(
        zero_ideal(q),
        tuple((*r, generate_ideal(q, (r,))) for r in all_relations(q)),
        labels=lambda ideal: ideal.residue_labels,
        join=ideal_join,
    )


def enumerate_special_ideals(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list:
    """Every special ideal, ordered by (dimension, basis); refuses above ``max_elements``."""
    build_semigroup(q).check_element_cap(max_elements)
    found = join_closure(ideal_route(q))[0]
    return sorted(found, key=lambda ideal: (ideal.dim, ideal.space.key()))


def congruence_to_ideal(s: PathSemigroup, c: Congruence) -> SpecialIdeal:
    """The special ideal a congruence determines: the span of every x - y
    with x and y in one block, the zero element standing for 0.

    That span is already an ideal, since x ~ y gives u*x*v ~ u*y*v, so
    its RREF rows are written straight from the labels, in one pass in
    pivot order: a nonzero element z of the zero block gives the row z,
    and every element b of another block but its greatest, b_k, gives the
    row b - b_k.  Each row's pivot has entry 1 and its one other column,
    b_k, is no pivot, so the rows are reduced.  The same pass sets the
    generators' bits: (x, y) for every element y of a block but its least,
    x, which is 0 in the zero block.  Raises ``ValueError`` if the
    partition is not a congruence.
    """
    if c.semigroup != s:
        raise ValueError("congruence does not live on this semigroup")
    if not _kernels.is_congruence_labels(c.labels, s.table_bytes, s.n):
        raise ValueError("partition is not a congruence")
    last = dict(zip(c.labels, range(s.n)))  # label -> greatest element of the block
    npaths = len(s.paths)
    least, rows, mask = {0: 0}, {}, 0
    for y, lab in enumerate(c.labels[1:], 1):  # element y: path y - 1
        if not lab:
            rows[y - 1] = {y - 1: 1}
        elif last[lab] != y:
            rows[y - 1] = {y - 1: 1, last[lab] - 1: -1}
        if (x := least.setdefault(lab, y)) != y:
            mask |= 1 << _bit(Relation(x, y), npaths)
    return SpecialIdeal(s.quiver, mask, Subspace(npaths, rows))


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
