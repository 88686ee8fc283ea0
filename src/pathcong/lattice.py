"""Finite lattices as explicit tables, with the structural predicates.

A lattice is built from its element list, a boolean order matrix, and
optionally join/meet as binary operations on elements; a missing operation
is derived from the order.  Everything is materialized into numpy tables
and fully verified at construction: order axioms, least-upper/greatest-
lower bound laws, absorption, and bounds.  The cover relation is the
transitive reduction of the strict order.

The six properties are decided in one pass over covers and join-
irreducibles, with witnesses; the pentagon and diamond searches are
complete scans independent of those verdicts, so they cross-check them.
"""

from __future__ import annotations

import numpy as np


class LatticeError(ValueError):
    """Construction-time violation of a lattice axiom, with a witness."""


class FiniteLattice:
    """Explicit element list with order, join/meet tables, and covers."""

    __slots__ = ("elements", "labels", "leq", "join", "meet", "covers", "bottom", "top")

    def __init__(self, elements, labels, leq, join, meet, covers, bottom, top):
        self.elements = elements
        self.labels = labels
        self.leq = leq
        self.join = join
        self.meet = meet
        self.covers = covers
        self.bottom = bottom
        self.top = top

    @property
    def n(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteLattice({self.n} elements, {len(self.covers)} covers)"


def _op_table(fn, elements, labels, kind) -> np.ndarray:
    """Index table of an idempotent, commutative operation on the elements."""
    index_of = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elements):
        table[i, i] = i
        for j in range(i + 1, n):
            k = index_of.get(fn(a, elements[j]))
            if k is None:
                raise LatticeError(f"{kind}({labels[i]!r}, {labels[j]!r}) is not in the list")
            table[i, j] = table[j, i] = k
    return table


def _bool_square(R: np.ndarray) -> np.ndarray:
    """Relational composition R;R, exact: [i, j] iff R[i, k] and R[k, j] for some k.

    Row by row, so no n x n x n intermediate is built.
    """
    return np.array([R[row].any(axis=0) for row in R], dtype=bool)


# Bytes of packed up-sets in one block of rows of ``_bound_table`` (at least one row).
BLOCK_BYTES = 256 * 1024
_LOWEST_BIT = np.array([0] + [(v & -v).bit_length() - 1 for v in range(1, 256)], dtype=np.intp)


def _bound_table(L: np.ndarray, labels, upper: bool, T: np.ndarray | None = None) -> np.ndarray:
    """Join (upper=True) or meet table, derived from the order if T is None, and verified.

    The up-sets (down-sets for the meet) are packed into 64-bit words over a
    linear extension.  For a block of rows a, up(a) & up(b) is taken against
    every b; its first set bit is the derived entry, the least common bound
    if there is one.  An entry t is accepted only if up(t) == up(a) & up(b),
    which says exactly that t is the least common bound of a and b.
    """
    n = L.shape[0]
    above = L if upper else L.T  # row a = elements >= a (<= a for the meet)
    order = np.argsort(-above.sum(axis=1), kind="stable")
    bits = np.pad(above[:, order], ((0, 0), (0, -n % 64)))  # whole words
    packed = np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little")).view("<u8")
    rows = max(1, BLOCK_BYTES // packed.nbytes)
    derived = T is None
    if derived:
        T = np.empty((n, n), dtype=np.intp)
    for start in range(0, n, rows):
        common = packed[start:start + rows, None, :] & packed[None, :, :]
        if derived:  # an empty row gives bit 0, which the check rejects
            word = (common != 0).argmax(axis=2)
            byte_view = np.take_along_axis(common, word[..., None], axis=2).view(np.uint8)
            byte = (byte_view != 0).argmax(axis=2)
            low = _LOWEST_BIT[np.take_along_axis(byte_view, byte[..., None], axis=2)[..., 0]]
            T[start:start + rows] = order[64 * word + 8 * byte + low]
        ok = (packed[T[start:start + rows]] == common).all(axis=2)
        if not ok.all():
            a, b = np.argwhere(~ok)[0] + (start, 0)
            pair = f"{'join' if upper else 'meet'}({labels[a]!r}, {labels[b]!r})"
            wrong = "does not exist" if derived else f"= {labels[T[a, b]]!r} is wrong"
            raise LatticeError(f"{pair} {wrong}")
    return T


def build_lattice(elements, leq, join_fn=None, meet_fn=None, labels=None) -> FiniteLattice:
    """Materialize and verify a finite lattice.

    ``leq`` is a boolean n x n matrix, ``leq[i, j]`` meaning element i is
    below element j; ``join_fn``/``meet_fn`` are binary operations on
    elements, or None to derive the tables from the order.  Construction
    fails loudly, with a witness, if any lattice axiom does not hold.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise LatticeError("a lattice needs at least one element")
    if labels is None:
        labels = tuple(str(e) for e in elements)
    else:
        labels = tuple(labels)

    L = np.array(leq, dtype=bool)  # a copy: it is frozen below
    if L.shape != (n, n):
        raise LatticeError(f"order table has shape {L.shape}, expected {(n, n)}")
    if not L.diagonal().all():
        i = int(np.flatnonzero(~L.diagonal())[0])
        raise LatticeError(f"order not reflexive at {labels[i]!r}")
    sym = L & L.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise LatticeError(f"order not antisymmetric: {labels[i]!r} and {labels[j]!r}")
    strict = L.copy()
    np.fill_diagonal(strict, False)
    between = _bool_square(strict)  # i < k < j for some k
    bad = between & ~strict
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise LatticeError(f"order not transitive: {labels[i]!r} .. {labels[j]!r}")

    J = None if join_fn is None else _op_table(join_fn, elements, labels, "join")
    J = _bound_table(L, labels, True, J)
    M = None if meet_fn is None else _op_table(meet_fn, elements, labels, "meet")
    M = _bound_table(L, labels, False, M)

    ar = np.arange(n)
    if not (M[ar[:, None], J] == ar[:, None]).all() or not (J[ar[:, None], M] == ar[:, None]).all():
        raise LatticeError("absorption fails")

    bottoms = np.flatnonzero(L.all(axis=1))
    tops = np.flatnonzero(L.all(axis=0))
    if len(bottoms) != 1 or len(tops) != 1:
        raise LatticeError("lattice must have a unique bottom and top")

    covers = tuple(sorted((int(i), int(j)) for i, j in np.argwhere(strict & ~between)))

    L.flags.writeable = False
    J.flags.writeable = False
    M.flags.writeable = False
    return FiniteLattice(elements, labels, L, J, M, covers, int(bottoms[0]), int(tops[0]))


def _cover_matrix(lat: FiniteLattice) -> np.ndarray:
    mat = np.zeros((lat.n, lat.n), dtype=bool)
    for i, j in lat.covers:
        mat[i, j] = True
    return mat


def _first_true(mask: np.ndarray):
    hits = np.argwhere(mask)
    return tuple(map(int, hits[0])) if len(hits) else None


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

    Modular iff upper and lower semimodular (Birkhoff), else a triple (a, b, c), a <= c,
    breaking the modular law; a modular lattice is distributive iff every join-irreducible
    j (one lower cover) is join-prime, else (x, y, j) with j <= x v y and j below neither.
    """
    C = _cover_matrix(lat)
    L, J, M = lat.leq, lat.join, lat.meet
    ar = np.arange(lat.n)
    ma = C[M, ar[:, None]]  # a covers a ^ b
    mb = C[M, ar[None, :]]  # b covers a ^ b
    ja = C[ar[:, None], J]  # a v b covers a
    jb = C[ar[None, :], J]  # a v b covers b
    upper = _first_true(ma & mb & ~(ja & jb))
    lower = _first_true(ja & jb & ~(ma & mb))

    modular = None
    if upper:  # x v y does not cover x, so an upper cover of x lies strictly below it
        x, y = upper[::-1] if ja[upper] else upper
        modular = (x, y, int(np.flatnonzero(C[x] & L[:, J[x, y]])[0]))
    elif lower:  # x does not cover x ^ y, so a lower cover of x lies strictly above it
        x, y = lower[::-1] if ma[lower] else lower
        modular = (int(np.flatnonzero(C[:, x] & L[M[x, y]])[0]), y, x)

    distributive = modular
    if modular is None:
        for j in np.flatnonzero(C.sum(axis=0) == 1):
            if hit := _first_true(L[j][J] & ~L[j][:, None] & ~L[j][None, :]):
                distributive = (*hit, int(j))
                break

    strong = _first_true(ma & ~jb), _first_true(ja & ~mb)
    return dict(zip(PROPERTY_NAMES, (distributive, modular, *strong, upper, lower)))


def _verdict(lat: FiniteLattice, name: str):
    witness = property_witnesses(lat)[name]
    return witness is None, witness


def is_distributive(lat: FiniteLattice):
    """(a v b) ^ c == (a ^ c) v (b ^ c) for all a, b, c; on failure a triple breaking it."""
    return _verdict(lat, "distributive")


def is_modular(lat: FiniteLattice):
    """a <= c implies (a v b) ^ c == a v (b ^ c); on failure a triple (a, b, c) breaking it."""
    return _verdict(lat, "modular")


def is_strong_upper_semimodular(lat: FiniteLattice):
    return _verdict(lat, "strong_upper_semimodular")


def is_strong_lower_semimodular(lat: FiniteLattice):
    return _verdict(lat, "strong_lower_semimodular")


def is_upper_semimodular(lat: FiniteLattice):
    return _verdict(lat, "upper_semimodular")


def is_lower_semimodular(lat: FiniteLattice):
    return _verdict(lat, "lower_semimodular")


def is_pentagon_sublattice(lat: FiniteLattice, elems) -> bool:
    """True iff the 5-tuple (bottom, lower, upper, side, top) induces an N5."""
    o, p, q, b, i = elems
    if len({o, p, q, b, i}) != 5:
        return False
    L, J, M = lat.leq, lat.join, lat.meet
    chain = L[o, p] and L[p, q] and L[q, i]
    side = L[o, b] and L[b, i]
    incomparable = not (L[b, p] or L[p, b] or L[b, q] or L[q, b])
    return bool(
        chain
        and side
        and incomparable
        and M[b, p] == o
        and M[b, q] == o
        and J[b, p] == i
        and J[b, q] == i
    )


def is_diamond_sublattice(lat: FiniteLattice, elems) -> bool:
    """True iff the 5-tuple (bottom, x, y, z, top) induces an M3."""
    d, x, y, z, u = elems
    if len({d, x, y, z, u}) != 5:
        return False
    J, M = lat.join, lat.meet
    return bool(
        M[x, y] == d and M[x, z] == d and M[y, z] == d
        and J[x, y] == u and J[x, z] == u and J[y, z] == u
    )


def find_pentagon(lat: FiniteLattice):
    """A 5-tuple (bottom, lower, upper, side, top) forming an N5, or None.

    Complete scan over (side, lower, upper) triples; independent of the
    modularity law check.
    """
    L, J, M = lat.leq, lat.join, lat.meet
    n = lat.n
    ar = np.arange(n)
    lt = L.copy()
    np.fill_diagonal(lt, False)
    for b in range(n):
        Mb, Jb = M[b], J[b]
        cond = (
            lt
            & (Mb[:, None] == Mb[None, :])
            & (Jb[:, None] == Jb[None, :])
            & (Mb != ar)[:, None]
            & (Jb != ar)[None, :]
        )
        hit = _first_true(cond)
        if hit:
            p, q = hit
            witness = (int(Mb[p]), p, q, b, int(Jb[p]))
            if is_pentagon_sublattice(lat, witness):
                return witness
            raise RuntimeError("pentagon scan produced a non-pentagon")
    return None


def find_diamond(lat: FiniteLattice):
    """A 5-tuple (bottom, x, y, z, top) forming an M3, or None.

    Complete scan over pairs with a third-element sweep; independent of
    the distributivity law check.
    """
    L, J, M = lat.leq, lat.join, lat.meet
    n = lat.n
    ar = np.arange(n)
    for x in range(n):
        d, u = M[x], J[x]
        incomparable = ~L[x] & ~L[:, x]
        cond = (
            (d[None, :] == d[:, None])
            & (M == d[:, None])
            & (u[None, :] == u[:, None])
            & (J == u[:, None])
            & incomparable[:, None]
            & (ar[:, None] > x)
        )
        hit = _first_true(cond)
        if hit:
            y, z = hit
            witness = (int(d[y]), x, y, z, int(u[y]))
            if is_diamond_sublattice(lat, witness):
                return witness
            raise RuntimeError("diamond scan produced a non-diamond")
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
