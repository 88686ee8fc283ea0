"""Theorem-level verification: predicted lattice properties versus computed.

For an acyclic quiver the congruence lattice is strong upper semimodular;
it is modular exactly when no two vertices are joined by more than two
paths, and distributive (equivalently: every congruence is Rees) exactly
when no two vertices are joined by more than one.  Trees therefore force
distributivity, and modularity/distributivity hold iff they hold on every
connected component.  ``build_evidence`` recomputes everything two ways
into an ``Evidence`` record; ``check_theorems`` runs the five functions in
``VERDICTS`` on it, reports any inconsistency as a violation, and keeps
the finished report on the quiver's cached semigroup for a repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels
from .ideals import (
    Relation,
    SpecialIdeal,
    all_relations,
    contains_relation,
    ideal_route,
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
    underlying_graph_is_tree,
)
from .semigroup import (
    DEFAULT_MAX_ELEMENTS,
    Congruence,
    PathSemigroup,
    build_semigroup,
    congruence_label,
    enumerate_congruences,
    is_rees,
    join_closure,
)

PREDICTED_KEYS = PROPERTY_NAMES + ("all_rees",)


def predict_properties(q: Quiver) -> dict[str, bool]:
    """Property predictions from the semigroup's path ``counts`` alone, no enumeration.

    Strong upper semimodularity always holds; modularity and the lower
    semimodularity variants hold iff at most two parallel paths exist;
    distributivity (= every congruence Rees) iff at most one.  A tree
    underlying graph forces distributivity: it has one undirected path
    between any two vertices, so at most one parallel path.
    """
    mpp = _acyclic_semigroup(q, "property predictions").max_parallel_paths
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
    the partition join.  Refuses semigroups above ``max_elements``.  A
    ``LatticeError`` carries the congruences as ``elements``, for a caller
    that reports the fault without enumerating them again.
    """
    congs = enumerate_congruences(s, max_elements)
    try:
        return build_lattice(congs, s.congruence_closure[1])
    except LatticeError as exc:
        exc.elements = tuple(congs)
        raise


def ideal_leq_matrix(ideals) -> list[list[bool]]:
    """Containment order over ideal spaces, exact; ``check_theorems`` does not need it.

    A special ideal is generated by the relations it contains, so a <= b
    exactly when every relation in a lies in b, read off their residue labels.
    """
    rels = all_relations(ideals[0].quiver) if ideals else ()
    marks = [sum(1 << k for k, r in enumerate(rels) if contains_relation(i, r)) for i in ideals]
    return [[not a & ~b for b in marks] for a in marks]


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


@dataclass
class Evidence:
    """What both routes found about one acyclic quiver.  ``failed`` maps each stage that
    could not finish, ``"lattice"``, ``"bijection"`` or ``"properties"``, to why."""

    semigroup: PathSemigroup  # with its quiver and max parallel paths
    predicted: dict[str, bool]
    congs: tuple[Congruence, ...]  # the identity first
    ideals: tuple[SpecialIdeal, ...]  # the zero ideal first; ideals[k]: congs[k]'s image
    lattice: FiniteLattice | None  # None: failed["lattice"] says why
    failed: dict[str, str]
    computed: dict[str, bool | None] = field(default_factory=dict)  # None: undecided
    witnesses: dict[str, tuple | None] = field(default_factory=dict)
    comp_props: list[dict[str, bool]] = field(default_factory=list)  # empty if connected


def match_congruence(s: PathSemigroup, k: int, c: Congruence, ideal: SpecialIdeal) -> None:
    """Check that congruence k, c, is one and maps to ``ideal``; ``AssertionError`` names a fault.

    c's labels are tested against the table once.  Equal labels then put
    every generator of c's image inside the ideal (z for each z ~ 0, x - y
    for each x ~ y), and the image has dimension n - 1 - max(labels), so at
    that dimension the ideal is ``congruence_to_ideal(s, c)``, found without
    building it from c; its congruence has c's labels: that is the round trip.
    """
    if not _kernels.is_congruence_labels(c.labels, s.table_bytes, s.n):
        raise AssertionError(f"partition {k} is not a congruence: {c}")
    if ideal.residue_labels != c.labels or ideal.dim != s.n - 1 - max(c.labels):
        raise AssertionError(f"image of congruence {k} is not ideal {k}")


def _acyclic_semigroup(q: Quiver, task: str) -> PathSemigroup:
    """``build_semigroup(q)``, refusing a cyclic quiver with an error that names ``task``."""
    try:
        return build_semigroup(q)
    except CyclicQuiverError:
        raise CyclicQuiverError(f"{task} require an acyclic quiver") from None


def build_evidence(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Evidence:
    """Congruences and special ideals, enumerated independently in one order with their
    join tables over one generator per relation; the match between them; each lattice's
    properties."""
    s = _acyclic_semigroup(q, "theorem checks")
    try:
        lat, failed = congruence_lattice(s, max_elements), {}
        congs = lat.elements
    except LatticeError as exc:
        lat, congs, failed = None, exc.elements, {"lattice": str(exc)}
    ideals, S_i = join_closure(route := ideal_route(q))  # congruence_lattice checked the cap
    ev = Evidence(s, predict_properties(q), congs, ideals, lat, failed)
    try:
        if lat is None:
            raise AssertionError(failed["lattice"])
        if len(congs) != len(ideals):
            raise AssertionError(f"{len(congs)} congruences vs {len(ideals)} ideals")
        for k, (c, ideal) in enumerate(zip(congs, ideals)):
            match_congruence(s, k, c, ideal)
        # Both lists are finest first and hold no repeats, so k -> k is a
        # bijection, and every enumerated ideal is the image of its
        # congruence, whose labels it shares: no round trip from the ideal side.
        # column k of both tables: theta(0, y) for (y), theta(x, y) for (x - y)
        pairs = s.congruence_closure[2]
        if len(pairs) != len(route.atoms):
            raise AssertionError(f"{len(pairs)} generators vs {len(route.atoms)} relations")
        for pair, (x, y, _) in zip(pairs, route.atoms):
            if pair != (x, y):
                r = Relation(x, y)
                raise AssertionError(f"generator {pair} is not relation {r.display(s.paths)}")
        # Every congruence is the identity joined with generators along the
        # table, so if the identity maps to 0 (k = 0 above) and both tables
        # are one, c v g_k maps to c's image + (r_k), and the map preserves
        # all joins.  A bijective join-homomorphism is an order isomorphism
        # (a <= b iff a v b = b), so it carries the verified congruence
        # covers onto the ideal covers.
        if S_i != lat.succ:
            raise AssertionError("bijection does not preserve order")
    except AssertionError as exc:
        failed["bijection"] = str(exc)
    # a list that is not the lattice it is taken for leaves its properties None
    ev.computed = dict.fromkeys(PROPERTY_NAMES)
    ev.computed["all_rees"] = all(is_rees(c) for c in congs)
    try:
        if lat is None:
            raise LatticeError("skipped: no congruence lattice")
        ev.computed.update(lattice_properties(lat))
        comps = connected_components(q)
        if len(comps) > 1:
            for comp in comps:
                comp_lat = congruence_lattice(build_semigroup(comp), max_elements)
                ev.comp_props.append(lattice_properties(comp_lat))
        if any(ev.computed[k] != ev.predicted[k] for k in PREDICTED_KEYS):
            ev.witnesses = property_witnesses(lat)
    except LatticeError as exc:
        failed["properties"] = str(exc)
    return ev


def isomorphism_verdict(ev: Evidence) -> tuple[bool, str]:
    """1. The map congs -> ideals is a bijection carrying one join table onto the other."""
    return "bijection" not in ev.failed, ev.failed.get("bijection", "")


def properties_verdict(ev: Evidence) -> tuple[bool, str]:
    """2. The lattice has the properties the path counts predict."""
    if "properties" in ev.failed:
        return False, ev.failed["properties"]
    details = [key for key in PREDICTED_KEYS if ev.computed[key] != ev.predicted[key]]
    for j, key in enumerate(details):
        if ev.witnesses.get(key) is not None:
            labels = (repr(congruence_label(ev.congs[i])) for i in ev.witnesses[key])
            details[j] += " (witness " + ", ".join(labels) + ")"
    return not details, ", ".join(details)


def rees_verdict(ev: Evidence) -> tuple[bool, str]:
    """3. Every congruence is Rees iff at most one path joins two vertices."""
    mpp = ev.semigroup.max_parallel_paths
    return ev.computed["all_rees"] == (mpp <= 1), f"max parallel paths {mpp}"


def components_verdict(ev: Evidence) -> tuple[bool, str]:
    """4. The lattice is modular, or distributive, iff every component's is."""
    if "properties" in ev.failed:
        return False, "skipped: lattice properties undecided"
    if not ev.comp_props:
        return True, "single component"
    keys = ("modular", "distributive")
    ok = all(ev.computed[k] == all(p[k] for p in ev.comp_props) for k in keys)
    return ok, f"{len(ev.comp_props)} components"


def cover_verdict(ev: Evidence) -> tuple[bool, str]:
    """5. Under verdict 1 each cover is a -> a + (r) for a relation r not in a,
    so b is one new relation's step over a exactly when dim b = dim a + 1."""
    if "bijection" in ev.failed:
        return False, "skipped: isomorphism check failed"
    dims = [ideal.dim for ideal in ev.ideals]
    for lo, ups in enumerate(ev.lattice.upper_covers):
        for hi in ups:
            if dims[hi] != dims[lo] + 1:
                return False, f"cover {lo} -> {hi} jumps {dims[lo]} -> {dims[hi]}"
    return True, ""


VERDICTS = (
    ("congruence/ideal lattice isomorphism", isomorphism_verdict),
    ("predicted properties match computed", properties_verdict),
    ("all congruences Rees iff max parallel paths <= 1", rees_verdict),
    ("modular/distributive iff every component is", components_verdict),
    ("every ideal cover is one new relation's step", cover_verdict),
)


def check_theorems(q: Quiver, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TheoremReport:
    """Run each of ``VERDICTS`` on one acyclic quiver's ``Evidence``; a violation is a bug.

    The finished report is a function of the quiver alone, so it is kept,
    as immutable values, on the quiver's cached semigroup, and a check of
    an equal quiver within the cap gets a fresh copy of it and builds no
    evidence.  A refusal or a check that raises keeps nothing and goes
    through ``build_evidence`` each time.
    """
    s = _acyclic_semigroup(q, "theorem checks")
    if s.report is not None and s.n <= max_elements:
        *parts, verdicts = s.report
        return TheoremReport(*map(dict, parts), list(verdicts))
    ev = build_evidence(q, max_elements)
    summary = {
        "vertices": len(q.vertices),
        "arrows": len(q.arrows),
        "paths": len(ev.semigroup.paths),
        "elements": ev.semigroup.n,
        "max_parallel_paths": ev.semigroup.max_parallel_paths,
        "is_tree": underlying_graph_is_tree(q),
        "congruences": len(ev.congs),
        "ideals": len(ev.ideals),
    }
    verdicts = [(name, *verdict(ev)) for name, verdict in VERDICTS]
    parts = (summary, ev.predicted, ev.computed)
    ev.semigroup.report = (*(tuple(part.items()) for part in parts), tuple(verdicts))
    return TheoremReport(summary, ev.predicted, ev.computed, verdicts)
