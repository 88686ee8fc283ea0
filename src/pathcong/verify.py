"""Theorem-level verification: predicted lattice properties versus computed.

For an acyclic quiver the congruence lattice is strong upper semimodular;
it is modular exactly when no two vertices are joined by more than two
paths, and distributive (equivalently: every congruence is Rees) exactly
when no two vertices are joined by more than one.  Trees therefore force
distributivity, and modularity/distributivity hold iff they hold on every
connected component.  ``check_theorems`` recomputes everything two ways
and reports any inconsistency as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .ideals import (
    SpecialIdeal,
    all_relations,
    congruence_to_ideal,
    enumerate_special_ideals,
    ideal_to_congruence,
)
from .lattice import FiniteLattice, build_lattice, lattice_properties
from .linalg import format_path_vector, row_reduce, subspace_sum
from .quiver import (
    CyclicQuiverError,
    Quiver,
    connected_components,
    is_acyclic,
    max_parallel_paths,
    underlying_graph_is_tree,
)
from .semigroup import (
    Congruence,
    PathSemigroup,
    build_semigroup,
    enumerate_congruences,
    is_rees,
)

PREDICTED_KEYS = (
    "distributive",
    "modular",
    "strong_upper_semimodular",
    "strong_lower_semimodular",
    "upper_semimodular",
    "lower_semimodular",
    "all_rees",
)


def predict_properties(q: Quiver) -> dict[str, bool]:
    """Property predictions from path counts alone, no enumeration.

    Strong upper semimodularity always holds; modularity and the lower
    semimodularity variants hold iff at most two parallel paths exist;
    distributivity (= every congruence Rees) iff at most one.  A tree
    underlying graph forces distributivity.
    """
    if not is_acyclic(q):
        raise CyclicQuiverError("property predictions require an acyclic quiver")
    mpp = max_parallel_paths(q)
    at_most_two = mpp <= 2
    at_most_one = mpp <= 1 or underlying_graph_is_tree(q)
    return {
        "distributive": at_most_one,
        "modular": at_most_two,
        "strong_upper_semimodular": True,
        "strong_lower_semimodular": at_most_two,
        "upper_semimodular": True,
        "lower_semimodular": at_most_two,
        "all_rees": at_most_one,
    }


def congruence_label(c: Congruence) -> str:
    name = c.semigroup.element_name
    return " ".join("{" + ",".join(name(i) for i in b) + "}" for b in c.blocks)


def ideal_label(ideal: SpecialIdeal, names) -> str:
    if ideal.dim == 0:
        return "0"
    body = ", ".join(format_path_vector(v, names) for v in ideal.space.basis)
    return "span{" + body + "}"


def congruence_leq_matrix(congs) -> np.ndarray:
    """Refinement order over a list of congruences, vectorized.

    c_i <= c_j iff the labels of c_j are constant on every block of c_i,
    i.e. every element agrees with its block representative under c_j.
    """
    m = len(congs)
    n = len(congs[0].labels)
    P = np.frombuffer(b"".join(c.labels for c in congs), dtype=np.uint8).reshape(m, n)
    reps = np.empty((m, n), dtype=np.intp)
    for k, c in enumerate(congs):
        first: dict[int, int] = {}
        row = reps[k]
        for x, lab in enumerate(c.labels):
            if lab in first:
                row[x] = first[lab]
            else:
                first[lab] = x
                row[x] = x
    leq = np.empty((m, m), dtype=bool)
    for k in range(m):
        leq[k] = (P[:, reps[k]] == P).all(axis=1)
    return leq


def congruence_lattice(s: PathSemigroup, congs=None, max_elements: int = 20) -> FiniteLattice:
    """The full congruence lattice as a verified FiniteLattice."""
    if congs is None:
        congs = enumerate_congruences(s, max_elements)
    index = {c.labels: k for k, c in enumerate(congs)}
    m = len(congs)
    J = np.empty((m, m), dtype=np.intp)
    M = np.empty((m, m), dtype=np.intp)
    for a in range(m):
        la = congs[a].labels
        J[a, a] = M[a, a] = a
        for b in range(a + 1, m):
            lb = congs[b].labels
            J[a, b] = J[b, a] = index[_kernels.join_labels(la, lb)]
            M[a, b] = M[b, a] = index[_kernels.meet_labels(la, lb)]
    labels = tuple(congruence_label(c) for c in congs)
    return build_lattice(congs, congruence_leq_matrix(congs), J, M, labels=labels)


def relation_incidence(ideals, rels) -> np.ndarray:
    """Boolean matrix: entry [k, r] says whether ideal k contains relation r."""
    vectors = [r.vectorize() for r in rels]
    inc = np.zeros((len(ideals), len(vectors)), dtype=bool)
    for k, ideal in enumerate(ideals):
        contains = ideal.space.contains
        inc[k] = [contains(v) for v in vectors]
    return inc


def ideal_leq_matrix(ideals, inc=None) -> np.ndarray:
    """Containment order over ideal spaces, exact.

    A special ideal is generated by the relations it contains, so a <= b
    exactly when every relation in a lies in b.  ``inc`` is
    ``relation_incidence`` over all relations of the ideals' quiver,
    computed here when not given.
    """
    if inc is None:
        inc = relation_incidence(ideals, all_relations(ideals[0].quiver) if ideals else ())
    have = inc.astype(np.int64)
    return (have @ (1 - have).T) == 0


def ideal_lattice(q: Quiver, ideals=None, max_elements: int = 20) -> FiniteLattice:
    """The lattice of special ideals, built directly from the ideal operations.

    Join and meet run the genuine ideal computations pair by pair, so keep
    this to desk-scale inputs; ``check_theorems`` uses the faster
    bijection-transferred route and re-verifies it.
    """
    from .ideals import _semigroup_for, ideal_join, ideal_meet

    if ideals is None:
        ideals = enumerate_special_ideals(q, max_elements)
    path_names = [p.name for p in _semigroup_for(q).paths]
    labels = tuple(ideal_label(i, path_names) for i in ideals)
    return build_lattice(ideals, ideal_leq_matrix(ideals), ideal_join, ideal_meet, labels=labels)


@dataclass
class TheoremReport:
    """Predicted versus computed picture of one quiver, with verdicts."""

    quiver_summary: dict
    predicted: dict[str, bool]
    computed: dict[str, bool]
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v[1] for v in self.verdicts)

    def format(self) -> str:
        s = self.quiver_summary
        mark = {True: "✓", False: "✗"}
        lines = [
            f"quiver: {s['vertices']} vertices, {s['arrows']} arrows",
            f"paths: {s['paths']} (semigroup: {s['elements']} elements)",
            f"max parallel paths: {s['max_parallel_paths']}",
            f"underlying graph is a tree: {'yes' if s['is_tree'] else 'no'}",
            f"congruences: {s['congruences']}    special ideals: {s['ideals']}",
            "",
            "properties (computed, with prediction):",
        ]
        for key in PREDICTED_KEYS:
            agree = "" if self.computed.get(key) == self.predicted.get(key) else "   MISMATCH"
            lines.append(
                f"  {key:<28} {mark[self.computed[key]]}  "
                f"(predicted {mark[self.predicted[key]]}){agree}"
            )
        lines.append("")
        lines.append("theorem checks:")
        for name, ok, detail in self.verdicts:
            status = "consistent" if ok else "VIOLATION"
            suffix = f" [{detail}]" if detail and not ok else ""
            lines.append(f"  {status:<10} {name}{suffix}")
        return "\n".join(lines)


def check_theorems(q: Quiver, max_elements: int = 20) -> TheoremReport:
    """Run the full two-route verification on one acyclic quiver.

    Enumerates congruences and special ideals independently, checks the
    order-preserving bijection between them, compares predicted against
    computed lattice properties, and verifies the Rees, component, and
    cover-step characterizations.  Every verdict should be consistent;
    a violation indicates an implementation bug.
    """
    if not is_acyclic(q):
        raise CyclicQuiverError("theorem checks require an acyclic quiver")

    s = build_semigroup(q)
    congs = enumerate_congruences(s, max_elements)
    ideals = enumerate_special_ideals(q, max_elements)
    npaths = len(s.paths)

    mpp = max_parallel_paths(q)
    predicted = predict_properties(q)
    summary = {
        "vertices": len(q.vertices),
        "arrows": len(q.arrows),
        "paths": npaths,
        "elements": s.n,
        "max_parallel_paths": mpp,
        "is_tree": underlying_graph_is_tree(q),
        "congruences": len(congs),
        "ideals": len(ideals),
    }

    verdicts: list[tuple[str, bool, str]] = []
    lat_c = congruence_lattice(s, congs)

    # 1. bijection and lattice isomorphism
    iso_ok = True
    iso_detail = ""
    perm = np.empty(len(congs), dtype=np.intp)
    rels = all_relations(q)
    inc = relation_incidence(ideals, rels)
    leq_i = ideal_leq_matrix(ideals, inc)
    lat_i = None
    try:
        if len(congs) != len(ideals):
            raise AssertionError(f"{len(congs)} congruences vs {len(ideals)} ideals")
        ideal_index = {ideal.space.key(): k for k, ideal in enumerate(ideals)}
        for k, c in enumerate(congs):
            image = congruence_to_ideal(s, c)
            key = image.space.key()
            if key not in ideal_index:
                raise AssertionError(f"image of congruence {k} is not an enumerated ideal")
            perm[k] = ideal_index[key]
            if ideal_to_congruence(s, image) != c:
                raise AssertionError(f"round trip fails at congruence {k}")
        if len(set(perm.tolist())) != len(congs):
            raise AssertionError("congruence-to-ideal map is not injective")
        for k, ideal in enumerate(ideals):
            back = congruence_to_ideal(s, ideal_to_congruence(s, ideal))
            if back.space != ideal.space:
                raise AssertionError(f"round trip fails at ideal {k}")
        if not (leq_i[np.ix_(perm, perm)] == lat_c.leq).all():
            raise AssertionError("bijection does not preserve order")
        # transfer the verified tables and let construction re-verify them
        J_i = np.empty_like(lat_c.join)
        M_i = np.empty_like(lat_c.meet)
        J_i[perm[:, None], perm[None, :]] = perm[lat_c.join]
        M_i[perm[:, None], perm[None, :]] = perm[lat_c.meet]
        path_names = [p.name for p in s.paths]
        lat_i = build_lattice(
            ideals, leq_i, J_i, M_i,
            labels=tuple(ideal_label(i, path_names) for i in ideals),
        )
    except AssertionError as exc:
        iso_ok = False
        iso_detail = str(exc)
    verdicts.append(("congruence/ideal lattice isomorphism", iso_ok, iso_detail))

    # 2. predicted vs computed properties
    computed = lattice_properties(lat_c)
    computed["all_rees"] = all(is_rees(c) for c in congs)
    mismatches = [k for k in PREDICTED_KEYS if computed[k] != predicted[k]]
    verdicts.append(
        (
            "predicted properties match computed",
            not mismatches,
            ", ".join(mismatches),
        )
    )

    # 3. all congruences Rees iff at most one parallel path
    rees_ok = computed["all_rees"] == (mpp <= 1)
    verdicts.append(
        ("all congruences Rees iff max parallel paths <= 1", rees_ok, f"max parallel paths {mpp}")
    )

    # 4. componentwise modularity and distributivity
    comp_ok = True
    comp_detail = "single component"
    comps = connected_components(q)
    if len(comps) > 1:
        comp_props = []
        for comp in comps:
            cs = build_semigroup(comp)
            comp_lat = congruence_lattice(cs, enumerate_congruences(cs, max_elements))
            comp_props.append(lattice_properties(comp_lat))
        for key in ("modular", "distributive"):
            if computed[key] != all(p[key] for p in comp_props):
                comp_ok = False
        comp_detail = f"{len(comps)} components"
    verdicts.append(("modular/distributive iff every component is", comp_ok, comp_detail))

    # 5. cover steps in the ideal lattice
    cover_ok = True
    cover_detail = ""
    if lat_i is None:
        cover_ok = False
        cover_detail = "skipped: isomorphism check failed"
    else:
        for lo, hi in lat_i.covers:
            a, b = ideals[lo], ideals[hi]
            if b.dim != a.dim + 1:
                cover_ok = False
                cover_detail = f"cover {lo} -> {hi} jumps {a.dim} -> {b.dim}"
                break
            fresh = [rels[r] for r in np.flatnonzero(inc[hi] & ~inc[lo])]
            if not fresh:
                cover_ok = False
                cover_detail = f"cover {lo} -> {hi} has no new relation"
                break
            for r in fresh:
                regen = subspace_sum(a.space, row_reduce([r.vectorize()], npaths))
                if regen != b.space:
                    cover_ok = False
                    cover_detail = f"relation does not regenerate cover {lo} -> {hi}"
                    break
            if not cover_ok:
                break
    verdicts.append(("every ideal cover is one new relation's step", cover_ok, cover_detail))

    return TheoremReport(summary, predicted, computed, verdicts)
