"""Reference implementations the tests compare pathcong against.

Each is a plain second route to something the package decides another
way, or a relation the package never needs: congruences by filtering
every set partition, the join-closure that forms every join it
tabulates, refinement of two partitions and its order matrix over a
congruence list, the residue of a vector against RREF rows, the
Zassenhaus intersection of two subspaces, containment of two special
ideals and their meet.  Three are earlier versions the package replaced
with faster ones: the congruence test that keys every element's row and
column, the image of a congruence built with its generating relations
up front, and the residue of each unit vector as a sorted tuple.  No command and no verdict of ``check_theorems``
reaches them, so they live with the tests.  The module also builds the
three quiver families the tests share: k parallel arrows (Kronecker), a
star of k arrows out of one centre and a chain of k doubled arrows,
reads the multiplication table row by row, writes a set of relations as
an ideal's generator mask, and gives a route a stand-in for one element
of its closure, as the fault tests need.
"""

import numpy as np

from pathcong import (
    CapExceeded,
    Congruence,
    PathVector,
    Quiver,
    Subspace,
    all_relations,
    generate_ideal,
    row_reduce,
)
from pathcong.ideals import Relation, SpecialIdeal, _bit
from pathcong import _kernels, verify


def kronecker_quiver(arrows):
    return Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(1, arrows + 1)])


def star_quiver(leaves):
    tips = [f"l{i}" for i in range(1, leaves + 1)]
    return Quiver(["c", *tips], [(f"a{i}", "c", t) for i, t in enumerate(tips, start=1)])


def doubled_chain_quiver(pairs):
    vertices = [f"v{i}" for i in range(pairs + 1)]
    arrows = []
    for i in range(pairs):
        arrows.append((f"a{i}", vertices[i], vertices[i + 1]))
        arrows.append((f"b{i}", vertices[i], vertices[i + 1]))
    return Quiver(vertices, arrows)


def table_rows(s) -> list[bytes]:
    """The rows of ``s.table_bytes``: ``table_rows(s)[x][y]`` is the index of x*y."""
    t, n = s.table_bytes, s.n
    return [t[i * n : (i + 1) * n] for i in range(n)]


def congruences_bruteforce(mult: bytes, n: int) -> list[bytes]:
    """All congruence partitions, by filtering every set partition of range(n).

    Iterates restricted-growth strings, so the caller must keep n small
    (Bell-number growth).
    """
    if n == 0:
        return [b""]
    results = []
    a = bytearray(n)
    b = bytearray(n)
    for j in range(1, n):
        b[j] = 1
    while True:
        if _kernels.is_congruence_labels(a, mult, n):
            results.append(bytes(a))
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            break
        a[j] += 1
        m = b[j] if b[j] > a[j] else a[j] + 1
        for k in range(j + 1, n):
            a[k] = 0
            b[k] = m
    return results


def is_congruence_labels_keyed(p, mult: bytes, n: int) -> bool:
    """``_kernels.is_congruence_labels`` keying each element's row and column.

    Every element's row and column of the table, read through p, must
    equal those of the first member of its block.
    """
    image = mult.translate(bytes(p).ljust(256, b"\0"))
    first: dict[int, tuple[bytes, bytes]] = {}
    for x in range(n):
        key = (image[x * n : x * n + n], image[x::n])
        if first.setdefault(p[x], key) != key:
            return False
    return True


def enumerate_congruences_bruteforce(s, max_elements: int = 10) -> list[Congruence]:
    """Every congruence on s, finest first, by filtering all set partitions.

    Independent of ``enumerate_congruences``; Bell-number growth caps it
    at small semigroups.
    """
    if s.n > max_elements:
        raise CapExceeded(f"semigroup has {s.n} elements; brute-force cap is {max_elements}")
    labels = congruences_bruteforce(s.table_bytes, s.n)
    # finest first: the most blocks first, ties in label order
    return [Congruence(s, lab) for lab in sorted(labels, key=lambda lab: (-max(lab), lab))]


def direct_join_closure(route):
    """``semigroup.join_closure`` forming every join it tabulates, none read from the table.

    Same route, and its elements, deduplicated by equality, sorted finest
    first by their labels (the most blocks first, ties in label order),
    and one row per element giving the index of its join with each atom.
    It joins the atoms below an element too, so it reads ``labels`` only
    to sort.
    """
    seed, atoms, labels, join = route
    found = {seed: 0}
    elements = [seed]
    succ = []
    for cur in elements:  # visits the elements appended below, in order
        row = []
        for _, _, payload in atoms:
            joined = join(cur, payload)
            j = found.get(joined)
            if j is None:
                j = found[joined] = len(elements)
                elements.append(joined)
            row.append(j)
        succ.append(row)
    rank = sorted(range(len(elements)), key=lambda i: (-max(lab := labels(elements[i])), lab))
    new_index = {old: new for new, old in enumerate(rank)}
    return [elements[i] for i in rank], [[new_index[j] for j in succ[i]] for i in rank]


def patch_ideal_closure(monkeypatch, edit):
    """``check_theorems`` reads the ideal closure as ``edit`` returns it from
    a list of the ideals and the join table as lists."""
    real = verify.join_closure  # verify calls it on the ideal route only

    def closure(route):
        found, S = real(route)
        found, S = edit(list(found), [list(row) for row in S])
        return tuple(found), tuple(map(tuple, S))

    monkeypatch.setattr(verify, "join_closure", closure)


def refines(a: Congruence, b: Congruence) -> bool:
    """True iff every block of a lies inside one block of b."""
    image: dict[int, int] = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a.labels, b.labels))


def _containment(marks: np.ndarray) -> np.ndarray:
    """[a, b] says that every mark of row a is a mark of row b."""
    return ~(marks @ ~marks.T)  # boolean product: some mark of a is missing from b


def _stack(rows, dtype) -> np.ndarray:
    """Equally long byte strings as the rows of a matrix; no rows give shape (0, 0)."""
    width = len(rows[0]) if rows else 0
    return np.frombuffer(b"".join(rows), dtype=dtype).reshape(len(rows), width)


def congruence_leq_matrix(congs) -> np.ndarray:
    """Refinement order over a list of congruences, as pair containment.

    c_i <= c_j iff every pair of elements that c_i identifies, c_j identifies too.
    """
    L = _stack([c.labels for c in congs], np.uint8)
    x, y = np.triu_indices(L.shape[1], 1)
    return _containment(L[:, x] == L[:, y])


def residue(space: Subspace, v: PathVector) -> PathVector:
    """v with each basis row's pivot eliminated in turn; zero iff v lies in the span.

    An RREF row vanishes at every other pivot, so clearing one pivot
    never brings back another.
    """
    coeffs = dict(v.coeffs)
    for row in space.basis:
        c = coeffs.get(min(row.coeffs), 0)
        for i, rc in row.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) - c * rc
    return PathVector(coeffs)


def unit_residues(space: Subspace) -> list[tuple]:
    """The residue of each unit vector e_i, as sorted ``(index, coefficient)`` pairs.

    A non-pivot e_i is its own residue.  At a pivot i the row has entry
    1, so e_i reduces to minus the rest of row i, which no other pivot
    column touches.  ``Subspace.unit_residue_keys`` gives one shorter key
    per residue instead.
    """
    rows = {min(v.coeffs): v.coeffs for v in space.basis}
    return [
        tuple(sorted((j, -c) for j, c in rows[i].items() if j != i)) if i in rows else ((i, 1),)
        for i in range(space.dim_ambient)
    ]


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the kernel (Zassenhaus) method.

    Row-reduce the block rows (u|u) for u in a and (w|0) for w in b; the
    reduced rows supported entirely in the right block are already the
    RREF rows of a ∩ b, shifted by the ambient dimension.
    """
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimensions differ")
    d = a.dim_ambient
    doubled = [{**u.coeffs, **{i + d: c for i, c in u.coeffs.items()}} for u in a.basis]
    rows = row_reduce(doubled + [w.coeffs for w in b.basis], 2 * d).basis
    return Subspace(
        d, {min(r.coeffs) - d: {i - d: c for i, c in r.items()} for r in rows if min(r.coeffs) >= d}
    )


def ideal_subset(a, b) -> bool:
    """True iff special ideal a lies inside b, by subspace containment."""
    return b.space.contains_subspace(a.space)


def ideal_meet(a, b):
    """Meet = ideal generated by the relations inside the space intersection.

    The intersection itself need not be generated by relations, so the
    meet can be strictly smaller than the vector-space intersection.
    """
    if a.quiver != b.quiver:
        raise ValueError("ideals live over different quivers")
    inter = subspace_intersection(a.space, b.space)
    return generate_ideal(a.quiver, [r for r in all_relations(a.quiver) if inter.contains(r.vectorize())])


def congruence_to_ideal_eager(s, c: Congruence) -> SpecialIdeal:
    """The special ideal a congruence determines: the span of every x - y
    with x and y in one block, the zero element standing for 0.

    That span is already an ideal, since x ~ y gives u*x*v ~ u*y*v, so
    its RREF rows are written straight from the blocks: a nonzero element
    z of the zero block gives the row z, and every element b of another
    block but its greatest, b_k, gives the row b - b_k.  Each row's pivot
    has entry 1 and its one other column, b_k, is no pivot, so the rows
    are reduced.  The recorded generators are k - 1 per block: monomials
    for the zero block, each other element less the block's least one.
    Raises ``ValueError`` if the partition is not a congruence.
    """
    if c.semigroup != s:
        raise ValueError("congruence does not live on this semigroup")
    if not _kernels.is_congruence_labels(c.labels, s.table_bytes, s.n):
        raise ValueError("partition is not a congruence")
    gens = [Relation(0, e) for e in c.blocks[0] if e != 0]
    rows = {e - 1: {e - 1: 1} for e in c.blocks[0] if e != 0}
    for block in c.blocks[1:]:
        least, last = block[0], block[-1] - 1
        for e in block[:-1]:
            rows[e - 1] = {e - 1: 1, last: -1}
        gens.extend(Relation(least, e) for e in block[1:])
    return SpecialIdeal(s.quiver, relation_mask(gens, len(s.paths)), Subspace(len(s.paths), rows))


def relation_mask(rels, npaths: int) -> int:
    """The generator mask of a ``SpecialIdeal`` recording the relations ``rels``."""
    return sum(1 << _bit(r, npaths) for r in set(rels))
