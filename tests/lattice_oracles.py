"""Plain-definition lattice oracles for the tests.

``TableLattice`` holds a finite lattice as explicit tables: the order, the
join and meet of every pair by one call of the given operations, and the
covers as the transitive reduction of the order.  The law scans, the
pentagon and diamond searches and ``ideal_lattice`` work on these tables,
independently of ``pathcong.lattice``, which reads covers and properties
off a generator join table.  ``reference_witnesses`` is the earlier
``property_witnesses``, pair by pair, that the single pass must match.
"""

from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np

from oracles import congruence_leq_matrix, ideal_meet
from pathcong import _kernels, build_lattice, build_semigroup, enumerate_special_ideals, ideal_join
from pathcong.lattice import PROPERTY_NAMES, LatticeError, _between, _diamond
from pathcong.verify import congruence_label, ideal_label, ideal_leq_matrix


def first_true(mask):
    hits = np.argwhere(mask)
    return tuple(map(int, hits[0])) if len(hits) else None


def transitive_reduction(leq):
    """Sorted cover pairs (i, j): i strictly below j with nothing strictly between."""
    strict = np.array(leq, dtype=bool) & ~np.eye(len(leq), dtype=bool)
    between = (strict.astype(np.int64) @ strict.astype(np.int64)) > 0
    return tuple(map(tuple, np.argwhere(strict & ~between).tolist()))


class TableLattice:
    """Order, join and meet tables and covers of a finite lattice, pair by pair."""

    def __init__(self, elements, leq, join, meet, labels=None):
        self.elements = tuple(elements)
        self.n = n = len(self.elements)
        self.labels = tuple(map(str, self.elements)) if labels is None else tuple(labels)
        self.leq = np.array(leq, dtype=bool)
        index = {e: i for i, e in enumerate(self.elements)}
        self.join = np.empty((n, n), dtype=np.intp)
        self.meet = np.empty((n, n), dtype=np.intp)
        for i, a in enumerate(self.elements):
            for j in range(i, n):
                b = self.elements[j]
                self.join[i, j] = self.join[j, i] = index[join(a, b)]
                self.meet[i, j] = self.meet[j, i] = index[meet(a, b)]
        self.covers = transitive_reduction(self.leq)

    def join_irreducibles(self):
        """Elements with exactly one lower cover: every element is a join of these."""
        lower = np.bincount([hi for _, hi in self.covers], minlength=self.n)
        return np.flatnonzero(lower == 1)

    def lattice(self, generators=None):
        """The same lattice as a ``FiniteLattice`` generated by ``generators`` (default all)."""
        columns = range(self.n) if generators is None else generators
        return build_lattice(self.elements, self.join[:, list(columns)])


def closure_lattice(sets):
    """A family of bitmask sets closed under & and with a largest set, by inclusion."""

    def join(a, b):
        return reduce(and_, (s for s in sets if (a | b) & ~s == 0))

    return TableLattice(sets, [[a & b == a for b in sets] for a in sets], join, and_)


def congruence_table(congs):
    """The refinement lattice of a congruence list, from the partition kernels pair by pair."""
    return TableLattice(
        [c.labels for c in congs],
        congruence_leq_matrix(congs),
        _kernels.join_labels,
        _kernels.meet_labels,
        [congruence_label(c) for c in congs],
    )


def ideal_lattice(q, ideals=None):
    """The special ideals by inclusion, joined and met by the genuine ideal operations.

    One ideal computation per pair, so keep this to desk-scale inputs.
    """
    if ideals is None:
        ideals = enumerate_special_ideals(q)
    names = [p.name for p in build_semigroup(q).paths]
    labels = [ideal_label(i, names) for i in ideals]
    return TableLattice(ideals, ideal_leq_matrix(ideals), ideal_join, ideal_meet, labels)


def law_distributive(t):
    """Exhaustive check of (a v b) ^ c == (a ^ c) v (b ^ c); witness on failure."""
    J, M = t.join, t.meet
    for a in range(t.n):
        hit = first_true(M[J[a]] != J[M[a][None, :], M])
        if hit:
            return False, (a, *hit)
    return True, None


def law_modular(t):
    """Exhaustive check of a <= c implying (a v b) ^ c == a v (b ^ c)."""
    J, M, L = t.join, t.meet, t.leq
    for a in range(t.n):
        hit = first_true((M[J[a]] != J[a, M]) & L[a][None, :])
        if hit:
            return False, (a, *hit)
    return True, None


def semimodularity_masks(t):
    """First pair breaking each semimodularity property, from cover and table lookups."""
    C = np.zeros((t.n, t.n), dtype=bool)
    for i, j in t.covers:
        C[i, j] = True
    J, M = t.join, t.meet
    ar = np.arange(t.n)
    ma = C[M, ar[:, None]]  # a covers a ^ b
    mb = C[M, ar[None, :]]  # b covers a ^ b
    ja = C[ar[:, None], J]  # a v b covers a
    jb = C[ar[None, :], J]  # a v b covers b
    return {
        "strong_upper_semimodular": first_true(ma & ~jb),
        "strong_lower_semimodular": first_true(ja & ~mb),
        "upper_semimodular": first_true((ma & mb) & ~(ja & jb)),
        "lower_semimodular": first_true((ja & jb) & ~(ma & mb)),
    }


def is_pentagon_sublattice(t, elems) -> bool:
    """True iff the 5-tuple (bottom, lower, upper, side, top) induces an N5."""
    o, p, q, b, i = elems
    if len({o, p, q, b, i}) != 5:
        return False
    L, J, M = t.leq, t.join, t.meet
    chain = L[o, p] and L[p, q] and L[q, i]
    side = L[o, b] and L[b, i]
    incomparable = not (L[b, p] or L[p, b] or L[b, q] or L[q, b])
    return bool(
        chain and side and incomparable
        and M[b, p] == o and M[b, q] == o and J[b, p] == i and J[b, q] == i
    )


def is_diamond_sublattice(t, elems) -> bool:
    """True iff the 5-tuple (bottom, x, y, z, top) induces an M3."""
    d, x, y, z, u = elems
    if len({d, x, y, z, u}) != 5:
        return False
    J, M = t.join, t.meet
    return bool(
        M[x, y] == d and M[x, z] == d and M[y, z] == d
        and J[x, y] == u and J[x, z] == u and J[y, z] == u
    )


def find_pentagon(t):
    """A 5-tuple (bottom, lower, upper, side, top) forming an N5, or None; a complete scan."""
    L, J, M = t.leq, t.join, t.meet
    ar = np.arange(t.n)
    lt = L & ~np.eye(t.n, dtype=bool)
    for b in range(t.n):
        Mb, Jb = M[b], J[b]
        hit = first_true(
            lt
            & (Mb[:, None] == Mb[None, :])
            & (Jb[:, None] == Jb[None, :])
            & (Mb != ar)[:, None]
            & (Jb != ar)[None, :]
        )
        if hit:
            p, q = hit
            witness = (int(Mb[p]), p, q, b, int(Jb[p]))
            assert is_pentagon_sublattice(t, witness)
            return witness
    return None


def find_diamond(t):
    """A 5-tuple (bottom, x, y, z, top) forming an M3, or None; a complete scan."""
    L, J, M = t.leq, t.join, t.meet
    ar = np.arange(t.n)
    for x in range(t.n):
        d, u = M[x], J[x]
        hit = first_true(
            (d[None, :] == d[:, None])
            & (M == d[:, None])
            & (u[None, :] == u[:, None])
            & (J == u[:, None])
            & (~L[x] & ~L[:, x])[:, None]
            & (ar[:, None] > x)
        )
        if hit:
            y, z = hit
            witness = (int(d[y]), x, y, z, int(u[y]))
            assert is_diamond_sublattice(t, witness)
            return witness
    return None


def _is_cover(lat, lo, hi):
    """hi covers lo, given lo < hi: a generator below hi and not lo joins lo to hi, as a cover."""
    outside = lat.below[hi] & ~lat.below[lo]
    k = (outside & -outside).bit_length() - 1
    return bool(outside) and lat.succ[lo][k] == hi and bool(lat.cover_mask[lo] >> k & 1)


def reference_witnesses(lat):
    """``property_witnesses`` as it was: Lindig's test twice per pair of lower
    covers, and one ``_diamond`` scan per element while the lattice may be modular."""
    S, G, C = lat.succ, lat.below, lat.cover_mask
    lower_covers = [[] for _ in range(lat.n)]
    upper_covers = [[] for _ in range(lat.n)]
    for lo, hi in lat.covers:
        lower_covers[hi].append(lo)
        upper_covers[lo].append(hi)
    index = {g: c for c, g in enumerate(G)}
    lower = modular = None
    for a, b in (pair for lows in lower_covers for pair in combinations(lows, 2)):
        e = index.get(G[a] & G[b])
        if e is None:
            pair = f"{lat.labels[a]!r} and {lat.labels[b]!r}"
            raise LatticeError(f"meet of {pair} is not in the list")
        if not (_is_cover(lat, e, a) and _is_cover(lat, e, b)):
            lower = (a, b)
            a, b = (a, b) if not _is_cover(lat, e, a) else (b, a)
            modular = (_between(lat, e, a), b, a)
            break
    upper = diamond = None
    for c, ups in enumerate(upper_covers):
        for a in ups:
            bad = C[c] & ~G[a] & ~C[a]
            if bad:
                row = S[c]
                upper = (a, min(d for k, d in enumerate(row) if bad >> k & 1))
                modular = (*upper, _between(lat, a, S[a][row.index(upper[1])]))
                break
        if upper is not None:
            break
        if lower is None and diamond is None:
            diamond = _diamond(S, C[c], G, ups)
    distributive = modular if modular is not None else diamond
    return dict(zip(PROPERTY_NAMES, (distributive, modular, upper, lower, upper, lower)))
