"""Integer kernels behind congruence enumeration, in pure Python.

Partitions of range(n) travel as length-n ``bytes`` whose entries are
block labels in restricted-growth form: element 0 carries label 0 and
each new label is one more than the running maximum.  Multiplication
tables travel as row-major ``bytes`` of length n*n, which limits these
kernels to semigroups with at most 255 elements (far beyond the
enumeration caps that call them).  ``join_labels`` and
``is_congruence_labels`` work on whole label vectors and tables at once,
through 256-entry ``bytes.translate`` tables.
"""

from __future__ import annotations

_IDENTITY = bytes(range(256))
_BYTE = [bytes([v]) for v in range(256)]


def canonical_labels(labels) -> bytes:
    """Relabel an arbitrary label sequence into restricted-growth form."""
    relabel: dict = {}
    return bytes([relabel.setdefault(lab, len(relabel)) for lab in labels])


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def join_labels(p: bytes, q: bytes) -> bytes:
    """Smallest common coarsening of two partitions (transitive closure of the union)."""
    # merge[l] is the least p-label that p-label l is merged with; merge
    # stays flat, since a merge rewrites every entry of the dropped label
    merge = _IDENTITY
    first: dict[int, int] = {}  # q-label -> p-label of one member
    for ql, pl in set(zip(q, p)):
        a = merge[first.setdefault(ql, pl)]
        b = merge[pl]
        if a < b:
            merge = merge.replace(_BYTE[b], _BYTE[a])
        elif b < a:
            merge = merge.replace(_BYTE[a], _BYTE[b])
    labels = p.translate(merge)
    order = bytes(dict.fromkeys(labels))
    return labels.translate(bytes.maketrans(order, _IDENTITY[: len(order)]))


def meet_labels(p: bytes, q: bytes) -> bytes:
    """Common refinement of two partitions (pairwise block intersections)."""
    return canonical_labels(list(zip(p, q)))


def principal_labels(mult: bytes, n: int, x: int, y: int) -> bytes:
    """Least congruence containing (x, y): closure of all pairs (a*x*b, a*y*b).

    The factors a and b range over the semigroup plus a formal identity,
    so products with either factor absent are included.  A left factor
    with a*x == a*y is skipped: every a*x*b then equals a*y*b.
    """
    parent = list(range(n))
    for a in range(n + 1):
        ax = x if a == n else mult[a * n + x]
        ay = y if a == n else mult[a * n + y]
        if ax == ay:
            continue
        for b in range(n + 1):
            u = ax if b == n else mult[ax * n + b]
            v = ay if b == n else mult[ay * n + b]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    return canonical_labels([_find(parent, i) for i in range(n)])


def is_congruence_labels(p, mult: bytes, n: int) -> bool:
    """Left/right compatibility of a partition with the multiplication table.

    Every element's row and column of the table, read through p, must
    equal those of the first member of its block; a first member is not
    read at all.
    """
    image = mult.translate(bytes(p).ljust(256, b"\0"))
    first: dict[int, int] = {}  # label -> first member
    for x in range(n):
        f = first.setdefault(p[x], x)
        if f != x and (
            image[x * n : x * n + n] != image[f * n : f * n + n] or image[x::n] != image[f::n]
        ):
            return False
    return True

