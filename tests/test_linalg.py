import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import residue, subspace_intersection, unit_residues
from pathcong import _kernels, enumerate_special_ideals, parse_quiver
from pathcong.linalg import (
    PathVector,
    format_path_vector,
    path_vector_to_json,
    row_reduce,
    subspace_sum,
)

QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"

# coordinates 0..4 standing for the path basis e1, e2, alpha, beta, gamma
E1, E2, A, B, G = range(5)


def vec(**coords):
    mapping = {"e1": E1, "e2": E2, "a": A, "b": B, "g": G}
    return PathVector({mapping[k]: v for k, v in coords.items()})


def test_vector_drops_zeros():
    v = PathVector({A: 1, B: 0, G: Fraction(0)})
    assert v.coeffs.keys() == {A}
    assert v[B] == 0


def test_row_reduce_elementary():
    sub = row_reduce([vec(a=1, b=1), vec(b=1)], 5)
    assert sub.basis == (PathVector({A: 1}), PathVector({B: 1}))


def test_row_reduce_empty():
    sub = row_reduce([], 5)
    assert sub.dim == 0
    assert sub.basis == ()


def test_row_reduce_dependent_triple():
    sub = row_reduce([vec(a=1, b=-1), vec(b=1, g=-1), vec(a=1, g=-1)], 5)
    assert sub.dim == 2


def test_row_reduce_rejects_bad_index():
    with pytest.raises(ValueError):
        row_reduce([PathVector({7: 1})], 5)


def test_vector_rejects_non_integral_index():
    with pytest.raises(ValueError):
        PathVector({1.5: 1})
    assert PathVector({2.0: 1}).coeffs == {2: 1}


def test_row_reduce_makes_mapping_input_exact():
    sub = row_reduce([{A: 1, B: 0.5}], 5)
    assert sub == row_reduce([vec(a=2, b=1)], 5)
    assert sub.key() == (((A, 1), (B, Fraction(1, 2))),)
    _assert_exact(sub)


def test_row_reduce_drops_zeros_of_mapping_input():
    sub = row_reduce([{A: 1, B: 0}], 5)
    assert sub == row_reduce([vec(a=1)], 5)
    assert sub.key() == row_reduce([vec(a=1)], 5).key()


def test_membership_examples():
    span = row_reduce([vec(a=1), vec(b=1, g=-1)], 5)
    assert span.contains(vec(a=1, b=-1, g=1))
    zero = row_reduce([], 5)
    assert not zero.contains(vec(a=1))
    span2 = row_reduce([vec(a=1, b=-1), vec(b=1, g=-1)], 5)
    assert span2.contains(vec(a=1, g=-1))
    assert not span2.contains(vec(a=1))


def test_sum_and_intersection_disjoint():
    sa = row_reduce([vec(a=1)], 5)
    sb = row_reduce([vec(b=1)], 5)
    assert subspace_sum(sa, sb) == row_reduce([vec(a=1), vec(b=1)], 5)
    assert subspace_intersection(sa, sb).dim == 0


def test_intersection_parallel_arrow_spans():
    left = row_reduce([vec(a=1), vec(b=1, g=-1)], 5)
    right = row_reduce([vec(g=1), vec(a=1, b=-1)], 5)
    inter = subspace_intersection(left, right)
    assert inter == row_reduce([vec(a=1, b=-1, g=1)], 5)
    total = subspace_sum(left, right)
    assert total == row_reduce([vec(a=1), vec(b=1), vec(g=1)], 5)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        subspace_sum(row_reduce([], 3), row_reduce([], 4))
    with pytest.raises(ValueError):
        subspace_intersection(row_reduce([], 3), row_reduce([], 4))


def _random_vectors(rng, dim, count):
    vs = []
    for _ in range(count):
        vs.append(
            PathVector(
                {i: rng.randint(-4, 4) for i in rng.sample(range(dim), rng.randint(1, dim))}
            )
        )
    return vs


def test_grassmann_identity_randomized():
    rng = random.Random(41)
    for _ in range(150):
        dim = rng.randint(1, 12)
        a = row_reduce(_random_vectors(rng, dim, rng.randint(0, 5)), dim)
        b = row_reduce(_random_vectors(rng, dim, rng.randint(0, 5)), dim)
        total = subspace_sum(a, b)
        inter = subspace_intersection(a, b)
        assert a.dim + b.dim == total.dim + inter.dim
        for v in inter.basis:
            assert a.contains(v) and b.contains(v)


def test_rref_canonical_under_shuffle():
    rng = random.Random(43)
    for _ in range(100):
        dim = rng.randint(1, 10)
        vs = _random_vectors(rng, dim, rng.randint(1, 6))
        sub = row_reduce(vs, dim)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        # extra vectors from the same span must not change the basis
        combination = {}
        for v in vs:
            k = rng.randint(-3, 3)
            for i, c in v.coeffs.items():
                combination[i] = combination.get(i, 0) + k * c
        extras = [PathVector(combination)]
        for same in (row_reduce(shuffled + extras, dim), row_reduce(sub.basis, dim)):
            assert same == sub
            assert same.key() == sub.key()
            assert hash(same) == hash(sub)


def test_rref_shape_invariants():
    rng = random.Random(47)
    for _ in range(100):
        dim = rng.randint(1, 10)
        sub = row_reduce(_random_vectors(rng, dim, rng.randint(1, 6)), dim)
        pivots = [min(v.coeffs) for v in sub.basis]
        assert pivots == sorted(set(pivots))
        for k, v in enumerate(sub.basis):
            assert v[pivots[k]] == 1
            for other, p in enumerate(pivots):
                if other != k:
                    assert v[p] == 0


def test_membership_of_span_members():
    rng = random.Random(53)
    for _ in range(100):
        dim = rng.randint(1, 10)
        vs = _random_vectors(rng, dim, rng.randint(1, 5))
        sub = row_reduce(vs, dim)
        for v in vs:
            assert sub.contains(v)


def test_json_roundtrip():
    names = ["e1", "e2", "alpha", "beta", "gamma"]
    v = PathVector({A: Fraction(3, 2), B: -1})
    blob = path_vector_to_json(v, names)
    assert blob == {"alpha": "3/2", "beta": "-1"}


def test_format_path_vector():
    names = ["e1", "e2", "alpha", "beta", "gamma"]
    assert format_path_vector(PathVector(), names) == "0"
    assert format_path_vector(vec(a=1, b=-1, g=1), names) == "alpha - beta + gamma"
    assert format_path_vector(vec(a=-1, g=Fraction(3, 2)), names) == "-alpha + 3/2*gamma"


# --- parity of the integer fast path with all-Fraction elimination ---------

_ONE = Fraction(1)


def _reference_rows(vectors):
    """The all-Fraction RREF loop the integer fast path must agree with."""
    rows = {}
    for v in vectors:
        work = {i: Fraction(c) for i, c in v.coeffs.items()}
        for p, row in rows.items():
            c = work.get(p)
            if c:
                for i, rc in row.items():
                    nv = work.get(i, 0) - c * rc
                    if nv:
                        work[i] = nv
                    else:
                        work.pop(i, None)
        if not work:
            continue
        p = min(work)
        inv = _ONE / work[p]
        new_row = {i: c * inv for i, c in work.items()}
        for row in rows.values():
            c = row.get(p)
            if c:
                for i, rc in new_row.items():
                    nv = row.get(i, 0) - c * rc
                    if nv:
                        row[i] = nv
                    else:
                        row.pop(i, None)
        rows[p] = new_row
    return rows


def _reference_key(rows):
    return tuple(tuple(sorted(rows[p].items())) for p in sorted(rows))


def _reference_contains(rows, v):
    return not _reference_rows([PathVector(r) for r in rows.values()] + [v]).keys() - rows.keys()


def _reference_intersection_key(a_vectors, b_vectors, d):
    ra, rb = _reference_rows(a_vectors), _reference_rows(b_vectors)
    doubled = [PathVector({**u, **{i + d: c for i, c in u.items()}}) for u in ra.values()]
    big = _reference_rows(doubled + [PathVector(w) for w in rb.values()])
    inter = [PathVector({i - d: c for i, c in row.items()}) for p, row in big.items() if p >= d]
    return _reference_key(_reference_rows(inter))


def _assert_exact(sub):
    for v in sub.basis:
        for c in v.coeffs.values():
            assert type(c) in (int, Fraction)
            if type(c) is Fraction:
                assert c.denominator > 0
                assert math.gcd(c.numerator, c.denominator) == 1


_COEFFS = st.sampled_from([1, -1, 1, -1, 2, -3, Fraction(3, 2), Fraction(-2, 5), Fraction(4, 1)])
_DIM = 8


def _sparse_vectors(max_count):
    vector = st.dictionaries(st.integers(0, _DIM - 1), _COEFFS, min_size=1, max_size=4)
    return st.lists(vector.map(PathVector), max_size=max_count)


@settings(max_examples=150, deadline=None)
@given(_sparse_vectors(5), _sparse_vectors(5), _sparse_vectors(3))
def test_integer_fast_path_matches_fraction_reference(avs, bvs, probes):
    a, b = row_reduce(avs, _DIM), row_reduce(bvs, _DIM)
    ra, rb = _reference_rows(avs), _reference_rows(bvs)
    assert a.key() == _reference_key(ra)
    assert b.key() == _reference_key(rb)
    for v in probes + bvs:
        assert a.contains(v) == _reference_contains(ra, v)
        assert residue(a, v).is_zero == a.contains(v)
    assert a.contains_subspace(b) == all(_reference_contains(ra, PathVector(w)) for w in rb.values())
    assert b.contains_subspace(a) == all(_reference_contains(rb, PathVector(w)) for w in ra.values())
    total = subspace_sum(a, b)
    assert total.key() == _reference_key(_reference_rows(avs + bvs))
    inter = subspace_intersection(a, b)
    assert inter.key() == _reference_intersection_key(avs, bvs, _DIM)
    inside = row_reduce([v for v in probes + bvs + avs[1:] if a.contains(v)], _DIM)
    assert subspace_sum(a, inside) is a
    for sub in (a, b, total, inter, inside):
        _assert_exact(sub)
        pivots = [min(v.coeffs) for v in sub.basis]
        assert pivots == sorted(set(pivots))


def assert_unit_residues_match_reduce(sp):
    residues = unit_residues(sp)
    assert len(residues) == sp.dim_ambient
    for i, unit_residue in enumerate(residues):
        assert unit_residue == tuple(residue(sp, PathVector({i: 1})).items())


def assert_residue_keys_match_residues(sp):
    keys = sp.unit_residue_keys()
    assert len(keys) == sp.dim_ambient
    expected = _kernels.canonical_labels([(), *unit_residues(sp)])
    assert _kernels.canonical_labels([(), *keys]) == expected


@settings(max_examples=150, deadline=None)
@given(_sparse_vectors(6))
def test_unit_residues_match_reduce(vs):
    assert_unit_residues_match_reduce(row_reduce(vs, _DIM))


@pytest.mark.parametrize("name", ["chain3", "kronecker", "single_arrow", "triple_arrow"])
def test_unit_residues_match_reduce_on_shipped_quivers(name):
    q = parse_quiver((QUIVER_DIR / f"{name}.quiver").read_text())
    for ideal in enumerate_special_ideals(q):
        assert_unit_residues_match_reduce(ideal.space)
        assert_residue_keys_match_residues(ideal.space)


@settings(max_examples=150, deadline=None)
@given(_sparse_vectors(6))
def test_residue_keys_label_like_residues(vs):
    # about half the examples reduce to a row of three or more entries
    # with a Fraction coefficient, which the sorted-tuple keys serve
    assert_residue_keys_match_residues(row_reduce(vs, _DIM))


def test_residue_keys_cover_every_kind():
    # a pivot row e_0 (zero residue), e_1 - e_2 (residue e_2), 2e_3 - e_4
    # (residue e_4 / 2), e_5 + 3/2 e_6 - e_7 (a three-entry row)
    sp = row_reduce(
        [
            PathVector({0: 1}),
            PathVector({1: 1, 2: -1}),
            PathVector({3: 2, 4: -1}),
            PathVector({5: 1, 6: Fraction(3, 2), 7: -1}),
        ],
        _DIM,
    )
    assert sp.unit_residue_keys() == [
        (),
        2,
        2,
        ((4, Fraction(1, 2)),),
        4,
        ((6, Fraction(-3, 2)), (7, 1)),
        6,
        7,
    ]
    assert_residue_keys_match_residues(sp)


def test_integral_coefficients_are_stored_as_int():
    v = PathVector({A: Fraction(4, 2), B: Fraction(-3, 1), G: Fraction(1, 2)})
    assert {i: type(c) for i, c in v.coeffs.items()} == {A: int, B: int, G: Fraction}
    assert type(v[E1]) is int
    # a pivot of 2 scales its row to integers, which stay ints
    sub = row_reduce([vec(a=2, b=4), vec(b=1, g=-1)], 5)
    assert [[type(c) for c in w.coeffs.values()] for w in sub.basis] == [[int, int], [int, int]]
    assert sub.basis == (vec(a=1, g=2), vec(b=1, g=-1))
