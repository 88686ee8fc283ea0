"""Seeded random acyclic quivers for the verification harness."""

from __future__ import annotations

import random

from .quiver import Quiver
from .semigroup import DEFAULT_MAX_ELEMENTS, PathSemigroup


def random_acyclic_quiver(
    rng: random.Random,
    max_vertices: int = 4,
    max_arrows: int = 5,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Quiver:
    """Draw a uniform DAG over a fixed topological order.

    Arrows only run forward along the vertex order, so the result is
    acyclic by construction; parallel arrows are allowed.  Draws are
    rejected (and redrawn from the same stream) until the path semigroup
    fits within ``max_elements``, judged from path counts without listing
    any path; a draw whose vertices and arrows alone, with zero, already
    exceed it is rejected before its paths are counted.  Raises
    ``ValueError`` up front on arguments no draw can satisfy: the smallest
    path semigroup, one vertex plus zero, has 2 elements.
    """
    if max_vertices < 1 or max_arrows < 0:
        raise ValueError("need at least 1 vertex and a non-negative arrow count")
    if max_elements < 2:
        raise ValueError(f"max_elements must be at least 2, got {max_elements}")
    while True:
        nv = rng.randint(1, max_vertices)
        ends = []
        if nv > 1:
            ends = [sorted(rng.sample(range(nv), 2)) for _ in range(rng.randint(0, max_arrows))]
        if 1 + nv + len(ends) > max_elements:
            continue
        vertices = [f"v{i}" for i in range(1, nv + 1)]
        arrows = [(f"a{k}", vertices[i], vertices[j]) for k, (i, j) in enumerate(ends, start=1)]
        q = Quiver(vertices, arrows)
        # a fresh semigroup, so rejected draws stay out of build_semigroup's cache
        if PathSemigroup(q).n <= max_elements:
            return q


def random_suite(
    trials: int,
    seed: int = 0,
    max_vertices: int = 4,
    max_arrows: int = 5,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> list[Quiver]:
    """A reproducible list of random quivers from one seeded stream."""
    rng = random.Random(seed)
    return [
        random_acyclic_quiver(rng, max_vertices, max_arrows, max_elements)
        for _ in range(trials)
    ]
