"""Finite lattices given by their joins with a generating set.

A lattice is given by its element list and the m x K table ``succ`` whose
entry [c][k] is the index of c v g_k for K generators g_k of which every
element is a join.  Sets of generators are int bitmasks, bit k for g_k.
The covers are read off ``succ`` by Lindig's upper-neighbour test and kept
once, as each element's sorted upper covers; meets are read off the
generators below each element; the six structural properties are decided
from covers alone, with witnesses.  No m x m table is built.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations, compress, repeat


class LatticeError(ValueError):
    """A list that is not the lattice it is taken for, with a witness."""


class FiniteLattice:
    """Elements with their generator join table, generator sets, cover masks, and upper covers.

    ``below[c]`` has bit k where g_k <= c, ``cover_mask[c]`` where c v g_k
    covers c; ``upper_covers[c]`` is the sorted tuple of the elements that
    cover c.  ``covers`` derives the pairs (lo, hi) in order from it.
    """

    __slots__ = ("elements", "succ", "below", "cover_mask", "upper_covers")

    def __init__(self, elements, succ, below, cover_mask, upper_covers):
        self.elements = elements
        self.succ = succ
        self.below = below
        self.cover_mask = cover_mask
        self.upper_covers = upper_covers

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(str, self.elements))

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every cover pair (lo, hi), sorted."""
        return tuple((lo, hi) for lo, ups in enumerate(self.upper_covers) for hi in ups)

    def __repr__(self):
        return f"FiniteLattice({self.n} elements, {len(self.covers)} covers)"


def _cover_mask(S, G, bits) -> tuple[list[int], list[tuple[int, ...]]]:
    """Bit k of mask [c] says that c v g_k covers c, by Lindig's upper-neighbour test.

    d = c v g_k covers c iff d != c and every generator g below d (d v g
    = d) has c v g in {c, d}: an element e strictly between c and d is a
    join of generators, one of which joins c to something in (c, e].  So
    with eq_c(d) the columns of row c that hold d, d covers c iff
    G(d) & ~(G(c) | eq_c(d)) is empty.  C. Lindig, "Fast Concept
    Analysis", ICCS 2000.  O(m K) dict and bit operations.  Returns the
    masks and each row's sorted upper covers.
    """
    masks, upper_covers = [], []
    for c, row in enumerate(S):
        eq = {}
        for d, bit in zip(row, bits):
            if d != c:  # c is never its own cover
                eq[d] = eq.get(d, 0) | bit
        inside = G[c]
        upper = sorted(d for d, cols in eq.items() if not G[d] & ~(inside | cols))
        masks.append(reduce(operator.or_, map(eq.__getitem__, upper), 0))
        upper_covers.append(tuple(upper))
    return masks, upper_covers


def build_lattice(elements, succ) -> FiniteLattice:
    """A finite lattice from its generator join table.

    ``succ[c][k]`` is the index of the join of element c with generator k.
    The caller vouches that every element is a join of generators and that
    the table is complete, so the list is a finite join-semilattice with a
    bottom, which is a lattice.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise LatticeError("a lattice needs at least one element")
    try:  # as a tuple of int tuples, sharing each row that is one already
        S = tuple(
            row if type(row) is tuple and all(type(d) is int for d in row)
            else tuple(map(operator.index, row))
            for row in succ
        )
    except TypeError:  # entries that are no integers, as in a 3-D table
        raise LatticeError(f"join table of non-integers does not index {n} elements") from None
    shape = (len(S), *sorted(set(map(len, S))))  # more than two entries: ragged
    values = set().union(*S)
    if len(shape) != 2 or len(S) != n or values and not 0 <= min(values) <= max(values) < n:
        raise LatticeError(f"join table of shape {shape} does not index {n} elements")
    bits = [1 << k for k in range(shape[1])]
    G = [sum(compress(bits, map(operator.eq, row, repeat(c)))) for c, row in enumerate(S)]
    C, upper_covers = _cover_mask(S, G, bits)
    return FiniteLattice(elements, S, G, C, upper_covers)


def _between(lat: FiniteLattice, lo: int, hi: int) -> int:
    """The least element strictly between lo < hi, where hi does not cover lo."""
    G = lat.below[hi]
    inside = [d for k, d in enumerate(lat.succ[lo]) if G >> k & 1 and d != lo and d != hi]
    if not inside:
        pair = f"{lat.labels[lo]!r} and {lat.labels[hi]!r}"
        raise LatticeError(f"nothing lies strictly between {pair}, yet they are no cover")
    return min(inside)


PROPERTY_NAMES = (
    "distributive",
    "modular",
    "strong_upper_semimodular",
    "strong_lower_semimodular",
    "upper_semimodular",
    "lower_semimodular",
)


def property_witnesses(lat: FiniteLattice) -> dict[str, tuple | None]:
    """First failure witness of each property in ``PROPERTY_NAMES``, or None where it holds.

    Upper semimodular: for distinct covers a and b = c v g_k of c, a v b =
    a v g_k covers a; else the pair (a, b).  Lower semimodular: for
    distinct lower covers a, b of d, their meet is covered by both; else
    the pair.  Each c is the join of its generators G(c) = {k : c v g_k =
    c}, so a ^ b is the one with G(a) & G(b).  Modular iff both (Birkhoff,
    at finite length), else a triple (a, b, c), a <= c, breaking the
    modular law.  The strong variants equal the plain ones at finite
    length (M. Stern, *Semimodular Lattices*, 1999).  Distributive iff
    modular and no element has three upper covers with one pairwise join:
    G. Grätzer, *Lattice Theory: Foundation* (2011), a modular lattice of
    finite length is distributive if and only if it contains no
    cover-preserving diamond M3, which sits at c exactly when two pairs of
    lower covers of one d meet in c (proof in the README).  Else a triple
    (a, b, c) breaking (a v b) ^ c == (a ^ c) v (b ^ c).  Witnesses are the
    first in element order, so they do not depend on the generators.
    """
    S, G, C, U = lat.succ, lat.below, lat.cover_mask, lat.upper_covers
    lower_covers = [[] for _ in range(lat.n)]
    for lo, ups in enumerate(U):
        for hi in ups:
            lower_covers[hi].append(lo)
    index = {g: c for c, g in enumerate(G)}
    lower = modular = None
    met, repeated = {}, lat.n  # met[e]: the latest d two of whose lower covers meet in e
    for d, lows in enumerate(lower_covers):
        for a, b in combinations(lows, 2):
            e = index.get(G[a] & G[b])
            if e is None:
                pair = f"{lat.labels[a]!r} and {lat.labels[b]!r}"
                raise LatticeError(f"meet of {pair} is not in the list")
            ups = U[e]  # exactly the elements that cover e
            if a not in ups or b not in ups:
                lower = (a, b)  # z in (e, a) or (e, b): (z, b, a) breaks the law
                a, b = (b, a) if a in ups else (a, b)
                modular = (_between(lat, e, a), b, a)
                break
            if met.get(e) == d:
                repeated = min(repeated, e)
            met[e] = d
        if lower is not None:
            break

    # For a cover a of c, the columns of C(c) that join c to a are those in
    # G(a), so the covers b = c v g_k with a v b = a v g_k not covering a
    # are the bits of C(c) & ~G(a) & ~C(a).
    upper = None
    for c, ups in enumerate(U):
        for a in ups:
            bad = C[c] & ~G[a] & ~C[a]
            if bad:  # every column of b is in bad, as each joins a to a v b
                row = S[c]
                upper = (a, min(d for k, d in enumerate(row) if bad >> k & 1))
                modular = (*upper, _between(lat, a, S[a][row.index(upper[1])]))
                break
        if upper is not None:
            break
    distributive = modular
    if modular is None and repeated < lat.n:
        distributive = _diamond(S, C[repeated], G, U[repeated])
    return dict(zip(PROPERTY_NAMES, (distributive, modular, upper, lower, upper, lower)))


def _diamond(S, cover_mask: int, G, ups) -> tuple | None:
    """Upper covers (a, x, y) of one element c with a v x = a v y, or None.

    ``cover_mask`` is C(c) and ``ups`` its covers in order; x = c v g_k
    for the lowest k in C(c) & G(x), so a v x = a v g_k.
    """
    column = [(x, ((cols := cover_mask & G[x]) & -cols).bit_length() - 1) for x in ups]
    for a in ups:
        seen = {}
        for x, k in column:
            if x != a and seen.setdefault(S[a][k], x) != x:
                return (a, seen[S[a][k]], x)
    return None


def lattice_properties(lat: FiniteLattice) -> dict[str, bool]:
    """All six structural properties, witnesses dropped."""
    return {name: witness is None for name, witness in property_witnesses(lat).items()}


def lattice_to_dot(lat: FiniteLattice) -> str:
    """DOT digraph, one node per element and one edge per cover (lower -> upper)."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, label in enumerate(lat.labels):
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{escaped}"];')
    for lo, hi in lat.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_to_json_dict(lat: FiniteLattice) -> dict:
    return {
        "elements": list(lat.labels),
        "covers": [[lo, hi] for lo, hi in lat.covers],
        "properties": lattice_properties(lat),
    }
