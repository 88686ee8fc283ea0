"""Finite lattices given by their joins with a generating set.

A lattice is given by its element list and the m x K table ``succ`` whose
entry [c, k] is the index of c v g_k for K generators g_k of which every
element is a join.  The covers are read off ``succ`` by Lindig's
upper-neighbour test, meets by the generators below each element, and the
six structural properties are decided from covers alone, with witnesses.
No m x m array is built.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


class LatticeError(ValueError):
    """A list that is not the lattice it is taken for, with a witness."""


class FiniteLattice:
    """Elements with their generator join table, its cover mask, and covers."""

    __slots__ = ("elements", "succ", "cover_mask", "covers")

    def __init__(self, elements, succ, cover_mask, covers):
        self.elements = elements
        self.succ = succ
        self.cover_mask = cover_mask
        self.covers = covers

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(str, self.elements))

    def __repr__(self):
        return f"FiniteLattice({self.n} elements, {len(self.covers)} covers)"


def _cover_mask(S: np.ndarray) -> np.ndarray:
    """[c, k] says that c v g_k covers c, by Lindig's upper-neighbour test.

    d = c v g_k covers c iff d != c and every generator g below d (d v g
    = d) has c v g in {c, d}: an element e strictly between c and d is a
    join of generators, one of which joins c to something in (c, e].
    C. Lindig, "Fast Concept Analysis", ICCS 2000.  K passes of m x K.
    """
    rows = np.arange(len(S))[:, None]
    mask = S != rows
    for k in range(S.shape[1]):
        d = S[:, k, None]
        between = (S[d[:, 0]] == d) & (S != rows) & (S != d)
        mask[:, k] &= ~between.any(axis=1)
    return mask


def build_lattice(elements, succ) -> FiniteLattice:
    """A finite lattice from its generator join table.

    ``succ[c, k]`` is the index of the join of element c with generator k.
    The caller vouches that every element is a join of generators and that
    the table is complete, so the list is a finite join-semilattice with a
    bottom, which is a lattice.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise LatticeError("a lattice needs at least one element")
    S = np.array(succ, dtype=np.intp)  # a copy: it is frozen below
    if S.ndim != 2 or len(S) != n or S.size and not 0 <= S.min() <= S.max() < n:
        raise LatticeError(f"join table of shape {S.shape} does not index {n} elements")
    C = _cover_mask(S)
    S.flags.writeable = C.flags.writeable = False
    lo, k = np.nonzero(C)
    covers = tuple(sorted(set(zip(lo.tolist(), S[lo, k].tolist()))))
    return FiniteLattice(elements, S, C, covers)


def _between(lat: FiniteLattice, lo: int, hi: int) -> int:
    """An element strictly between lo < hi, where hi does not cover lo."""
    S = lat.succ
    row = S[lo]
    hit = np.flatnonzero((S[hi] == hi) & (row != lo) & (row != hi))
    if not len(hit):
        pair = f"{lat.labels[lo]!r} and {lat.labels[hi]!r}"
        raise LatticeError(f"nothing lies strictly between {pair}, yet they are no cover")
    return int(row[hit[0]])


def _distinct_per_row(X: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row, less one."""
    return (np.diff(np.sort(X, axis=1), axis=1) != 0).sum(axis=1)


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

    Upper semimodular: for distinct covers a = c v g and b = c v h of c,
    a v b = a v h covers a and b v g covers b; else the pair (a, b).
    Lower semimodular: for distinct lower covers a, b of d, their meet is
    covered by both; else the pair.  Each c is the join of its generators
    G(c) = {k : c v g_k = c}, so a ^ b is the one with G(a) & G(b).  Modular
    iff both (Birkhoff, at finite length), else a triple (a, b, c), a <= c,
    breaking the modular law.  The strong variants equal the plain ones at
    finite length (M. Stern, *Semimodular Lattices*, 1999).  Distributive
    iff modular and no element has three upper covers with one pairwise
    join: G. Grätzer, *Lattice Theory: Foundation* (2011), a modular
    lattice of finite length is distributive if and only if it contains no
    cover-preserving diamond M3.  Else a triple (a, b, c) breaking
    (a v b) ^ c == (a ^ c) v (b ^ c).
    """
    S, C = lat.succ, lat.cover_mask
    upper = modular = None
    for k in range(S.shape[1]):  # b = c v g_k; a v b = a v g_k = S[a, k]
        b = S[:, k, None]
        bad = C & C[:, k, None] & (S != b) & ~C[S, k]
        if bad.any():
            c, j = np.argwhere(bad)[0]
            a = int(S[c, j])
            upper = (a, int(b[c, 0]))
            modular = (*upper, _between(lat, a, int(S[a, k])))
            break

    below = [[] for _ in range(lat.n)]
    for lo, hi in lat.covers:
        below[hi].append(lo)
    covers = set(lat.covers)
    G = np.packbits(S == np.arange(lat.n)[:, None], axis=1)
    index = {g.tobytes(): i for i, g in enumerate(G)}
    lower = None
    for a, b in (pair for lows in below for pair in combinations(lows, 2)):
        e = index.get((G[a] & G[b]).tobytes())
        if e is None:
            pair = f"{lat.labels[a]!r} and {lat.labels[b]!r}"
            raise LatticeError(f"meet of {pair} is not in the list")
        if (e, a) not in covers or (e, b) not in covers:
            lower = (a, b)
            if modular is None:  # z in (e, a) or (e, b): (z, b, a) breaks the law
                a, b = (a, b) if (e, a) not in covers else (b, a)
                modular = (_between(lat, e, a), b, a)
            break

    # Modular, so for distinct covers a, x, y of c, a v x = a v y covers x
    # and is x v y as well: a cover-preserving diamond.  Find it as two
    # other covers of c with one join with a = c v g_k.
    distributive = modular
    if modular is None:
        for k in range(S.shape[1]):
            a = S[:, k]
            other = C & C[:, k, None] & (S != a[:, None])
            covers_c = np.where(other, S, -1)
            joins = np.where(other, S[a], -1)
            hit = np.flatnonzero(_distinct_per_row(joins) < _distinct_per_row(covers_c))
            if len(hit):
                c, first = hit[0], {}
                for j, x in zip(joins[c].tolist(), covers_c[c].tolist()):
                    if x >= 0 and first.setdefault(j, x) != x:
                        distributive = (int(a[c]), first[j], x)
                        break
                break

    return dict(zip(PROPERTY_NAMES, (distributive, modular, upper, lower, upper, lower)))


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
