"""Reference implementations the tests compare pathcong against.

Each is a plain second route to something the package decides another
way, or a relation the package never needs: congruences by filtering
every set partition, the join-closure that forms every join it
tabulates, refinement of two partitions and its order matrix over a
congruence list, the residue of a vector against RREF rows, the
Zassenhaus intersection of two subspaces and the meet of two special
ideals.  No command and no verdict of ``check_theorems`` reaches them,
so they live with the tests.
"""

import numpy as np

from pathcong import (
    CapExceeded,
    Congruence,
    PathVector,
    Subspace,
    all_relations,
    generate_ideal,
    row_reduce,
)
from pathcong import _kernels
from pathcong.semigroup import _finest_first
from pathcong.verify import _containment, _stack


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


def enumerate_congruences_bruteforce(s, max_elements: int = 10) -> list[Congruence]:
    """Every congruence on s, finest first, by filtering all set partitions.

    Independent of ``enumerate_congruences``; Bell-number growth caps it
    at small semigroups.
    """
    if s.n > max_elements:
        raise CapExceeded(f"semigroup has {s.n} elements; brute-force cap is {max_elements}")
    labels = congruences_bruteforce(s.table_bytes, s.n)
    return [Congruence(s, lab) for lab in sorted(labels, key=_finest_first)]


def direct_join_closure(seed, atoms, below, join, key):
    """``semigroup.join_closure`` forming every join it tabulates, none read from the table.

    Same arguments and result: the elements in the order found, seed
    first, and one row per element giving the index of its join with
    each atom.
    """
    found = {key(seed): 0}
    elements = [seed]
    succ = []
    for i, cur in enumerate(elements):  # visits the elements appended below, in order
        row = []
        for atom in atoms:
            if below(cur, atom):
                row.append(i)
                continue
            joined = join(cur, atom)
            k = key(joined)
            j = found.get(k)
            if j is None:
                j = found[k] = len(elements)
                elements.append(joined)
            row.append(j)
        succ.append(row)
    return elements, succ


def refines(a: Congruence, b: Congruence) -> bool:
    """True iff every block of a lies inside one block of b."""
    image: dict[int, int] = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a.labels, b.labels))


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


def ideal_meet(a, b):
    """Meet = ideal generated by the relations inside the space intersection.

    The intersection itself need not be generated by relations, so the
    meet can be strictly smaller than the vector-space intersection.
    """
    if a.quiver != b.quiver:
        raise ValueError("ideals live over different quivers")
    inter = subspace_intersection(a.space, b.space)
    return generate_ideal(a.quiver, [r for r in all_relations(a.quiver) if inter.contains(r.vectorize())])
