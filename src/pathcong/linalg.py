"""Exact rational linear algebra over the path basis, sparse throughout.

Vectors are sparse mappings from basis index to an exact coefficient, an
``int`` or a ``fractions.Fraction`` (always in lowest terms), never a
float; a vector stores integral input as an ``int``.  The verifier's
vectors are monomials and differences of two paths, whose reduced bases
stay integral, so elimination runs in ``int`` arithmetic and builds a
``Fraction`` only when a pivot is not a unit.  A subspace is stored
once, as its reduced row-echelon pivot -> row map, which is canonical:
two subspaces are equal exactly when their row maps are identical.  Its
basis and hashable key are derived from that map.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


def _exact(c):
    """``c`` as an exact coefficient: an ``int`` if integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class PathVector:
    """Sparse vector with exact rational coefficients; zeros are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        data = {}
        for i, c in items:
            k = int(i)
            if k != i:
                raise ValueError(f"path index {i!r} is not an integer")
            c = _exact(c)
            if c:
                data[k] = c
        self.coeffs = data

    def __getitem__(self, i: int):
        return self.coeffs.get(i, 0)

    def __iter__(self):
        return iter(sorted(self.coeffs))

    def items(self):
        return sorted(self.coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, PathVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "PathVector(0)"
        terms = " + ".join(f"{c}*[{i}]" for i, c in self.items())
        return f"PathVector({terms})"


def _wrap(data: dict) -> PathVector:
    v = PathVector.__new__(PathVector)
    v.coeffs = data
    return v


def _residue(coeffs: dict, rows: dict[int, dict]) -> dict:
    """A copy of ``coeffs`` with every pivot of the RREF ``rows`` eliminated.

    A reduced row has no entry in any other row's pivot column, so the
    pivots to clear are exactly those already in the copy, each with the
    coefficient it holds there.  The result is empty iff ``coeffs`` lies
    in the span of ``rows``.
    """
    work = dict(coeffs)
    for p in [i for i in work if i in rows]:
        c = work[p]
        for i, rc in rows[p].items():
            v = work.get(i, 0) - c * rc
            if v:
                work[i] = v
            else:
                del work[i]
    return work


def _absorb(rows: dict[int, dict], coeffs: dict) -> None:
    """Add one vector to RREF rows (pivot -> row), keeping them reduced.

    Rows are replaced, never changed in place, so ``rows`` may share its
    row dicts with the subspace it was copied from.  A unit pivot keeps
    integer rows integral; only another pivot builds a ``Fraction``.
    """
    work = _residue(coeffs, rows)
    if not work:
        return
    p = min(work)
    c = work[p]
    if c == 1:
        new_row = work
    elif c == -1:
        new_row = {i: -x for i, x in work.items()}
    else:
        inv = _ONE / c
        new_row = {i: _exact(x * inv) for i, x in work.items()}
    for q in [q for q, row in rows.items() if p in row]:
        row = dict(rows[q])
        c = row[p]
        for i, rc in new_row.items():
            v = row.get(i, 0) - c * rc
            if v:
                row[i] = v
            else:
                del row[i]
        rows[q] = row
    rows[p] = new_row


class Subspace:
    """A subspace of the ambient coordinate space, held as its RREF rows.

    The rows map each pivot column to its row: the pivot entry is 1 and
    every other row vanishes in that column, so equal spans have
    identical row maps.  The rows are kept in increasing pivot order and
    are never changed in place.
    """

    __slots__ = ("dim_ambient", "_rows", "_key")

    def __init__(self, dim_ambient: int, rows: dict[int, dict]):
        self.dim_ambient = dim_ambient
        self._rows = dict(sorted(rows.items()))
        self._key = None

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> tuple[PathVector, ...]:
        return tuple(_wrap(row) for row in self._rows.values())

    def unit_residue_keys(self) -> list:
        """One hashable key per unit vector e_i, equal exactly when the residues are.

        A non-pivot e_i is its own residue.  At a pivot i the row has
        entry 1, so e_i reduces to minus the rest of row i, which no other
        pivot column touches.  A residue e_j has the key ``j``, the zero
        residue ``()``, and any other its sorted ``(index, coefficient)``
        pairs, so only rows of three or more entries are sorted.
        """
        keys = list(range(self.dim_ambient))
        for i, row in self._rows.items():
            if len(row) == 1:
                keys[i] = ()
            elif len(row) == 2:
                a, b = row
                j = b if a == i else a  # the entry beside the pivot
                c = row[j]
                keys[i] = j if c == -1 else ((j, -c),)
            else:
                keys[i] = tuple(sorted((j, -c) for j, c in row.items() if j != i))
        return keys

    def contains(self, v: PathVector) -> bool:
        return not _residue(v.coeffs, self._rows)

    def contains_subspace(self, other: "Subspace") -> bool:
        rows = self._rows
        if len(other._rows) > len(rows):
            return False
        return not any(_residue(row, rows) for row in other._rows.values())

    def key(self):
        """Canonical hashable form of the rows: ``(index, coefficient)`` pairs per row."""
        if self._key is None:
            self._key = tuple(tuple(sorted(row.items())) for row in self._rows.values())
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.dim_ambient == other.dim_ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.dim_ambient, self.key()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.dim_ambient})"


def row_reduce(vectors, dim: int) -> Subspace:
    """RREF of the span of the given vectors, exactly.

    Idempotent and order-independent: any spanning set of the same space
    produces the identical rows.
    """
    rows: dict[int, dict] = {}
    for v in vectors:
        coeffs = (v if isinstance(v, PathVector) else PathVector(v)).coeffs
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= dim):
            raise ValueError("vector index out of range for ambient dimension")
        _absorb(rows, coeffs)
    return Subspace(dim, rows)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces: the smaller one's rows absorbed into the larger one's."""
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimensions differ")
    if a.dim < b.dim:
        a, b = b, a
    rows = dict(a._rows)
    for row in b._rows.values():
        _absorb(rows, row)
    return a if len(rows) == a.dim else Subspace(a.dim_ambient, rows)


def format_path_vector(v: PathVector, names) -> str:
    """Human-readable form like ``alpha - beta + 3/2*gamma``."""
    if v.is_zero:
        return "0"
    parts = []
    for i, c in v.items():
        name = names[i]
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}*{name}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts)


def path_vector_to_json(v: PathVector, names) -> dict:
    """JSON form {"path-name": "num/den", ...}; fractions in lowest terms."""
    return {names[i]: str(c) for i, c in v.items()}

