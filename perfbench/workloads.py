"""The benchmark's workloads: which quivers each one checks, at which size.

Every workload is a list of operations.  An operation is one
``check_theorems`` call on one quiver, expected either to verify or to
raise ``CapExceeded``.  The seed relabels the quivers (vertex and arrow
names, declaration order) and shuffles the operation order, so each seed
gives different inputs while every seed does the same amount of work:
all isomorphism invariants the golden file pins (congruence and ideal
counts, lattice properties, element counts) are unchanged by it.

Sizes are chosen so that one pass takes a few seconds on the pure kernel
backend, which lets a run repeat the pass in fresh processes and report
medians.  ``tiny`` sizes exist for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("random-suite", "kronecker-wide", "tree-star", "reject-oversize")
SIZES = ("full", "tiny")

# random_suite(trials, 0, max_arrows=..., max_elements=...).  The generator's
# defaults (5 arrows, 20 elements) draw quivers that take seconds each:
# in random_suite(50, 0) three draws hold three quarters of the time, so a
# pass would be long and its time would hang on those few draws.
RANDOM_SUITE = {"full": (60, 4, 12), "tiny": (12, 4, 8)}
KRONECKER_ARROWS = {"full": 5, "tiny": 3}
STAR_LEAVES = {"full": 5, "tiny": 3}
# Doubled chains with k arrow pairs have 2**(k + 2) - k - 2 elements (k = 6
# gives 248, k = 10 gives 4,084); every one is over the enumeration cap.
OVERSIZE_PAIRS = {"full": range(6, 11), "tiny": range(3, 5)}

CHECK_CAP = 20  # check_theorems' default max_elements, used by every workload

# the reference load (reference.py) that gauges machine speed for each workload
REFERENCE = {
    "random-suite": "python",
    "kronecker-wide": "python",
    "tree-star": "python",
    "reject-oversize": "table",
}


@dataclass(frozen=True)
class Operation:
    index: int  # position in the unshuffled list; keys the golden entry
    quiver: object  # pathcong.Quiver
    expect_cap: bool  # True: the operation must raise CapExceeded


def kronecker(arrows: int):
    from pathcong import Quiver

    return Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(1, arrows + 1)])


def star(leaves: int):
    from pathcong import Quiver

    tips = [f"l{i}" for i in range(1, leaves + 1)]
    return Quiver(["c", *tips], [(f"a{i}", "c", t) for i, t in enumerate(tips, start=1)])


def doubled_chain(pairs: int):
    from pathcong import Quiver

    vertices = [f"v{i}" for i in range(pairs + 1)]
    arrows = []
    for i in range(pairs):
        arrows.append((f"a{i}", vertices[i], vertices[i + 1]))
        arrows.append((f"b{i}", vertices[i], vertices[i + 1]))
    return Quiver(vertices, arrows)


def base_quivers(workload: str, size: str) -> tuple[list, bool]:
    """The unshuffled, unrelabeled quivers of a workload and whether they must be refused."""
    from pathcong import random_suite

    if workload == "random-suite":
        trials, max_arrows, max_elements = RANDOM_SUITE[size]
        return random_suite(trials, 0, max_arrows=max_arrows, max_elements=max_elements), False
    if workload == "kronecker-wide":
        return [kronecker(KRONECKER_ARROWS[size])], False
    if workload == "tree-star":
        return [star(STAR_LEAVES[size])], False
    if workload == "reject-oversize":
        return [doubled_chain(k) for k in OVERSIZE_PAIRS[size]], True
    raise ValueError(f"unknown workload {workload!r}")


def relabel(q, seed: int):
    """An isomorphic copy of q with fresh names and declaration order.

    A pure function of (q, seed): repeated draws of one quiver stay equal,
    so module-level caches keyed by quiver still see the repeats.
    """
    from pathcong import Quiver, quiver_to_text

    rng = random.Random(f"{seed}:{quiver_to_text(q)}")
    vnames = [f"x{k}" for k in rng.sample(range(10 * len(q.vertices) + 10), len(q.vertices))]
    vmap = dict(zip(q.vertices, vnames))
    anames = [f"e{k}" for k in rng.sample(range(10 * len(q.arrows) + 10), len(q.arrows))]
    vertices = list(vnames)
    rng.shuffle(vertices)
    arrows = [(n, vmap[a.source], vmap[a.target]) for n, a in zip(anames, q.arrows)]
    rng.shuffle(arrows)
    return Quiver(vertices, arrows)


def operations(workload: str, seed: int, size: str = "full") -> list[Operation]:
    """The seeded operation list: relabeled quivers in a seeded order."""
    quivers, expect_cap = base_quivers(workload, size)
    ops = [Operation(k, relabel(q, seed), expect_cap) for k, q in enumerate(quivers)]
    random.Random(seed).shuffle(ops)
    return ops
