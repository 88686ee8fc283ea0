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

from .ideals import (
    Relation,
    SpecialIdeal,
    all_relations,
    congruence_to_ideal,
    ideal_join_closure,
    ideal_to_congruence,
)
from .lattice import (
    PROPERTY_NAMES,
    FiniteLattice,
    LatticeError,
    build_lattice,
    lattice_properties,
    property_witnesses,
)
from .linalg import format_path_vector
from .quiver import (
    CyclicQuiverError,
    Quiver,
    connected_components,
    is_acyclic,
    max_parallel_paths,
    underlying_graph_is_tree,
)
from .semigroup import (
    DEFAULT_MAX_ELEMENTS,
    PathSemigroup,
    build_semigroup,
    congruence_label,
    enumerate_congruences,
    is_rees,
)

PREDICTED_KEYS = PROPERTY_NAMES + ("all_rees",)


def predict_properties(q: Quiver) -> dict[str, bool]:
    """Property predictions from path counts alone, no enumeration.

    Strong upper semimodularity always holds; modularity and the lower
    semimodularity variants hold iff at most two parallel paths exist;
    distributivity (= every congruence Rees) iff at most one.  A tree
    underlying graph forces distributivity: it has one undirected path
    between any two vertices, so at most one parallel path.
    """
    if not is_acyclic(q):
        raise CyclicQuiverError("property predictions require an acyclic quiver")
    mpp = max_parallel_paths(q)
    at_most_two = mpp <= 2
    at_most_one = mpp <= 1
    return {
        "distributive": at_most_one,
        "modular": at_most_two,
        "strong_upper_semimodular": True,
        "strong_lower_semimodular": at_most_two,
        "upper_semimodular": True,
        "lower_semimodular": at_most_two,
        "all_rees": at_most_one,
    }


def ideal_label(ideal: SpecialIdeal, names) -> str:
    if ideal.dim == 0:
        return "0"
    body = ", ".join(format_path_vector(v, names) for v in ideal.space.basis)
    return "span{" + body + "}"


def congruence_lattice(
    s: PathSemigroup, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> FiniteLattice:
    """The lattice of every congruence on s, finest first, from its cached closure.

    ``s.congruence_closure`` gives S[c, k], the index of c v g_k for each
    join-irreducible principal congruence g_k.  The closure holds the
    identity, is closed under joins with every generator, and each member
    is a join of generators, so it is closed under partition joins: a
    finite join-closed family with a bottom, hence a lattice whose join is
    the partition join.  Refuses semigroups above ``max_elements``.
    """
    congs = enumerate_congruences(s, max_elements)
    return build_lattice(congs, s.congruence_closure[1])


def ideal_leq_matrix(ideals) -> np.ndarray:
    """Containment order over ideal spaces, exact; ``check_theorems`` does not need it.

    A special ideal is generated by the relations it contains, so a <= b
    exactly when every relation in a lies in b: its ``relations`` row.
    """
    rows = [i.relations for i in ideals]
    width = len(rows[0]) if rows else 0
    marks = np.frombuffer(b"".join(rows), dtype=bool).reshape(len(rows), width)
    return ~(marks @ ~marks.T)  # boolean product: some relation of a is missing from b


@dataclass
class TheoremReport:
    """Predicted versus computed picture of one quiver, with verdicts."""

    quiver_summary: dict
    predicted: dict[str, bool]
    computed: dict[str, bool | None]  # None: the property could not be decided
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v[1] for v in self.verdicts)

    def format(self) -> str:
        s = self.quiver_summary
        mark = {True: "✓", False: "✗", None: "?"}
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


def check_theorems(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TheoremReport:
    """Run the full two-route verification on one acyclic quiver.

    Enumerates congruences and special ideals independently, each with
    its join table over one generator per relation; checks that the
    bijection between them maps one table onto the other, compares
    predicted against computed lattice properties, and verifies the Rees,
    component, and cover-step characterizations.  Every verdict should be
    consistent; a violation indicates an implementation bug.
    """
    if not is_acyclic(q):
        raise CyclicQuiverError("theorem checks require an acyclic quiver")

    s = build_semigroup(q)
    # a join table that indexes no lattice fails verdict 1, and the
    # verdicts that read the lattice are skipped
    no_lattice = ""
    try:
        lat_c = congruence_lattice(s, max_elements)
        congs = lat_c.elements
    except LatticeError as exc:
        no_lattice = str(exc)
        congs = enumerate_congruences(s, max_elements)
    ideals, S_i = ideal_join_closure(q, max_elements)

    mpp = max_parallel_paths(q)
    predicted = predict_properties(q)
    summary = {
        "vertices": len(q.vertices),
        "arrows": len(q.arrows),
        "paths": len(s.paths),
        "elements": s.n,
        "max_parallel_paths": mpp,
        "is_tree": underlying_graph_is_tree(q),
        "congruences": len(congs),
        "ideals": len(ideals),
    }

    verdicts: list[tuple[str, bool, str]] = []

    # 1. bijection and lattice isomorphism
    iso_detail = ""
    perm = np.empty(len(congs), dtype=np.intp)
    ideal_covers = None
    try:
        if no_lattice:
            raise AssertionError(no_lattice)
        if len(congs) != len(ideals):
            raise AssertionError(f"{len(congs)} congruences vs {len(ideals)} ideals")
        ideal_index = {ideal.space.key(): k for k, ideal in enumerate(ideals)}
        for k, c in enumerate(congs):
            # the image is written from c's labels, not generated; only a
            # true ideal can match one of the independently enumerated ones
            try:
                image = congruence_to_ideal(s, c)
            except ValueError:
                raise AssertionError(f"partition {k} is not a congruence: {c}") from None
            key = image.space.key()
            if key not in ideal_index:
                raise AssertionError(f"image of congruence {k} is not an enumerated ideal")
            perm[k] = ideal_index[key]
            # the enumerated ideal, not the image, so that the round trip
            # does not read back the rows congruence_to_ideal just wrote
            if ideal_to_congruence(s, ideals[perm[k]]) != c:
                raise AssertionError(f"round trip fails at congruence {k}")
        if len(set(perm.tolist())) != len(congs):
            raise AssertionError("congruence-to-ideal map is not injective")
        # No round trip from the ideal side is needed: perm is injective
        # between lists of equal length, so it is a bijection, and the loop
        # has mapped every enumerated ideal I back to the one c whose image
        # is I, so ideal_to_congruence(I) == c and congruence_to_ideal of it is I.
        # pi: the column of (y) for theta(0, y), of (x - y) for theta(x, y)
        column = {r: k for k, r in enumerate(all_relations(q))}
        pairs = s.congruence_closure[2]
        pi = [column.get(Relation(x - 1, y - 1) if x else Relation(y - 1)) for x, y in pairs]
        if None in pi:
            raise AssertionError(f"generator {pairs[pi.index(None)]} maps to no relation")
        if sorted(pi) != list(range(len(column))):
            raise AssertionError("generators do not map one to one onto relations")
        # Every congruence is the identity joined with generators along the
        # table, so if perm sends the identity to 0 and c v g_k to perm(c) +
        # (r_pi(k)), it preserves all joins.  A bijective join-homomorphism
        # is an order isomorphism (a <= b iff a v b = b), so it carries the
        # verified congruence covers onto the ideal covers.
        if perm[0] != 0 or not np.array_equal(S_i[perm][:, pi], perm[lat_c.succ]):
            raise AssertionError("bijection does not preserve order")
        ideal_covers = sorted((int(perm[lo]), int(perm[hi])) for lo, hi in lat_c.covers)
    except AssertionError as exc:
        iso_detail = str(exc)
    verdicts.append(("congruence/ideal lattice isomorphism", not iso_detail, iso_detail))

    # 2. predicted vs computed properties.  A list that is not the lattice it
    # is taken for, whole or a component's, fails this verdict with the reason.
    computed = dict.fromkeys(PROPERTY_NAMES)  # None where left undecided
    computed["all_rees"] = all(is_rees(c) for c in congs)
    comps = connected_components(q)
    comp_props, mismatches, witnesses, undecided = [], [], {}, ""
    if no_lattice:
        undecided = "skipped: no congruence lattice"
    else:
        try:
            computed.update(lattice_properties(lat_c))
            if len(comps) > 1:
                for comp in comps:
                    comp_lat = congruence_lattice(build_semigroup(comp), max_elements)
                    comp_props.append(lattice_properties(comp_lat))
            mismatches = [k for k in PREDICTED_KEYS if computed[k] != predicted[k]]
            # the verdicts come through lattice_properties, the layer perfbench times;
            # the witnesses of failed properties are recomputed only on a mismatch
            witnesses = property_witnesses(lat_c) if mismatches else {}
        except LatticeError as exc:
            undecided = str(exc)
    details = [undecided] if undecided else []
    for key in mismatches:
        witness = witnesses.get(key)
        if witness is not None:
            key += " (witness " + ", ".join(repr(congruence_label(congs[i])) for i in witness) + ")"
        details.append(key)
    verdicts.append(("predicted properties match computed", not details, ", ".join(details)))

    # 3. all congruences Rees iff at most one parallel path
    rees_ok = computed["all_rees"] == (mpp <= 1)
    verdicts.append(
        ("all congruences Rees iff max parallel paths <= 1", rees_ok, f"max parallel paths {mpp}")
    )

    # 4. componentwise modularity and distributivity
    comp_ok = not undecided
    comp_detail = "skipped: lattice properties undecided" if undecided else "single component"
    if comp_props and not undecided:
        for key in ("modular", "distributive"):
            if computed[key] != all(p[key] for p in comp_props):
                comp_ok = False
        comp_detail = f"{len(comps)} components"
    verdicts.append(("modular/distributive iff every component is", comp_ok, comp_detail))

    # 5. cover steps in the ideal lattice.  Under verdict 1 each cover is
    # a -> a + (r) for a relation r not in a, so b is one new relation's
    # step over a exactly when dim b = dim a + 1.
    cover_detail = ""
    if ideal_covers is None:
        cover_detail = "skipped: isomorphism check failed"
    else:
        for lo, hi in ideal_covers:
            a, b = ideals[lo], ideals[hi]
            if b.dim != a.dim + 1:
                cover_detail = f"cover {lo} -> {hi} jumps {a.dim} -> {b.dim}"
                break
    verdicts.append(
        ("every ideal cover is one new relation's step", not cover_detail, cover_detail)
    )

    return TheoremReport(summary, predicted, computed, verdicts)
