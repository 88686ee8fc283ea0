"""Tracing pathcong from outside: timing wrappers on its public functions.

``from .x import f`` binds ``f`` in the importing module, so replacing
``pathcong.x.f`` alone would miss most calls.  ``Tracer.install`` therefore
replaces every binding of each traced function, in every loaded pathcong
module, by one wrapper.  Methods are replaced on their class.

Every wrapped call pushes a frame on one call stack.  When it returns, its
count, total time and self time (total minus the time of wrapped calls it
made) are added to a bucket keyed by (function, parent function); this is
all a hot leaf such as a partition kernel costs.  Stage-level functions
also keep a span in memory: name, start, end, parent span, the size of the
result and how many wrapped calls of each kind they made directly.  The
derived ratios are computed from those spans, not from counters in the
program.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback

# metric prefix -> (module, attribute, keeps spans)
TARGETS = {
    "quiver.enumerate_paths": ("pathcong.quiver", "enumerate_paths", True),
    "semigroup.build_semigroup": ("pathcong.semigroup", "build_semigroup", True),
    "semigroup.enumerate_congruences": ("pathcong.semigroup", "enumerate_congruences", True),
    "kernels.join_labels": ("pathcong._kernels", "join_labels", False),
    "kernels.meet_labels": ("pathcong._kernels", "meet_labels", False),
    "kernels.principal_labels": ("pathcong._kernels", "principal_labels", False),
    "kernels.is_congruence_labels": ("pathcong._kernels", "is_congruence_labels", False),
    "linalg.row_reduce": ("pathcong.linalg", "row_reduce", False),
    "linalg.Subspace.contains": ("pathcong.linalg", "Subspace.contains", False),
    "linalg.Subspace.contains_subspace": ("pathcong.linalg", "Subspace.contains_subspace", False),
    "ideals.enumerate_special_ideals": ("pathcong.ideals", "enumerate_special_ideals", True),
    "ideals.generate_ideal": ("pathcong.ideals", "generate_ideal", False),
    "ideals.ideal_join": ("pathcong.ideals", "ideal_join", False),
    "ideals.congruence_to_ideal": ("pathcong.ideals", "congruence_to_ideal", False),
    "ideals.ideal_to_congruence": ("pathcong.ideals", "ideal_to_congruence", False),
    "lattice.build_lattice": ("pathcong.lattice", "build_lattice", True),
    "lattice.lattice_properties": ("pathcong.lattice", "lattice_properties", True),
    "verify.congruence_lattice": ("pathcong.verify", "congruence_lattice", True),
    "verify.ideal_leq_matrix": ("pathcong.verify", "ideal_leq_matrix", True),
    "verify.check_theorems": ("pathcong.verify", "check_theorems", True),
}

# The functions a workload that only refuses oversize quivers reaches.
REFUSAL_PATH = (
    "quiver.enumerate_paths",
    "semigroup.build_semigroup",
    "semigroup.enumerate_congruences",
    "verify.check_theorems",
)

KERNELS = ("join_labels", "meet_labels", "principal_labels", "is_congruence_labels")
# parent function -> group name in the kernel metrics
KERNEL_PARENTS = {
    "semigroup.enumerate_congruences": "enum",
    "verify.congruence_lattice": "lattice",
}
KERNEL_GROUPS = ("enum", "lattice", "other")


def _per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("quiver.enumerate_paths.calls", "count"),
        ("quiver.enumerate_paths.s", "s"),
        ("semigroup.build_semigroup.calls", "count"),
        ("semigroup.build_semigroup.s", "s"),
        ("semigroup.table_cells", "count"),
        ("semigroup.enumerate_congruences.s", "s"),
        ("semigroup.atoms", "count"),
        ("semigroup.join_attempts", "count"),
        ("semigroup.join_yield", "ratio"),
    ]
    for kernel in KERNELS:
        for group in KERNEL_GROUPS:
            names.append((f"kernels.{kernel}.{group}.calls", "count"))
            names.append((f"kernels.{kernel}.{group}.s", "s"))
    names += [
        ("linalg.row_reduce.calls", "count"),
        ("linalg.row_reduce.s", "s"),
        ("linalg.Subspace.contains.calls", "count"),
        ("linalg.Subspace.contains.s", "s"),
        ("linalg.Subspace.contains_subspace.calls", "count"),
        ("linalg.Subspace.contains_subspace.s", "s"),
        ("ideals.enumerate_special_ideals.s", "s"),
        ("ideals.generate_ideal.calls", "count"),
        ("ideals.generate_ideal.s", "s"),
        ("ideals.atoms", "count"),
        ("ideals.join_attempts", "count"),
        ("ideals.join_yield", "ratio"),
        ("ideals.ideal_join.s", "s"),
        ("ideals.bijection.s", "s"),
        ("lattice.build_lattice.s", "s"),
        ("lattice.lattice_properties.s", "s"),
        ("verify.congruence_lattice.total_s", "s"),
        ("verify.ideal_leq_matrix.total_s", "s"),
        ("verify.ideal_leq.pairs", "count"),
        ("verify.ideal_leq.tested_frac", "ratio"),
        ("verify.cover_check.contains_calls", "count"),
        ("verify.check_theorems.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.coverage_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


PER_LAYER = _per_layer_names()


def _result_size(result):
    """Element count of a stage's result (list, table, semigroup, lattice), if any."""
    if hasattr(result, "shape"):
        return int(result.shape[0])
    if hasattr(result, "n"):
        return int(result.n)
    return len(result) if isinstance(result, (list, tuple)) else None


class Tracer:
    """Call stack, per-(function, parent) buckets and stage spans of one process."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, child seconds, child counts or None, span id]
        self.buckets: dict[tuple[str, str | None], list] = {}  # -> [calls, total s, self s]
        self.spans: list[dict] = []
        self.t0 = time.perf_counter()

    def _wrap(self, name: str, fn, keep_span: bool):
        stack, buckets, spans, clock = self.stack, self.buckets, self.spans, time.perf_counter
        t0 = self.t0

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans) if keep_span else (parent[3] if parent else None)
            if keep_span:
                spans.append(None)  # reserve the id; filled in on return
            frame = [name, 0.0, {} if keep_span else None, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if parent is None:
                    # The traceback keeps the finished frames' locals, such
                    # as a refused semigroup's table, alive until the caller
                    # drops it.  Free them here, inside the timed call.
                    traceback.clear_frames(exc.__traceback__)
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent_name = None
                if parent is not None:
                    parent[1] += elapsed
                    parent_name = parent[0]
                    if parent[2] is not None:
                        parent[2][name] = parent[2].get(name, 0) + 1
                bucket = buckets.get((name, parent_name))
                if bucket is None:
                    bucket = buckets[(name, parent_name)] = [0, 0.0, 0.0]
                bucket[0] += 1
                bucket[1] += elapsed
                bucket[2] += elapsed - frame[1]
                if keep_span:
                    spans[span_id] = {
                        "id": span_id,
                        "name": name,
                        "parent": parent[3] if parent else None,
                        "start": start - t0,
                        "end": end - t0,
                        "size": None if result is None else _result_size(result),
                        "children": frame[2],
                    }

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of every target; raise if a target is gone."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pathcong" or key.startswith("pathcong."))
        ]
        for name, (modname, attr, keep_span) in TARGETS.items():
            owner = importlib.import_module(modname)
            *cls, fname = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, fname)  # AttributeError names a renamed target
            wrapper = self._wrap(name, original, keep_span)
            if cls:
                setattr(owner, fname, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def calls(self) -> dict[str, int]:
        """Total calls per traced function, zero for those never reached."""
        out = dict.fromkeys(TARGETS, 0)
        for (name, _), (calls, _, _) in self.buckets.items():
            out[name] += calls
        return out

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of this process, except trace.overhead_frac."""

        def total(name, field, parent=...):
            """Sum of one bucket field (0 calls, 1 total s, 2 self s) over parents."""
            return sum(
                b[field] for (n, p), b in self.buckets.items()
                if n == name and parent in (..., p)
            )

        def calls(name):
            return total(name, 0)

        def self_s(name):
            return total(name, 2)

        def spans(name):
            return [s for s in self.spans if s["name"] == name]

        m: dict[str, float] = {}
        for name in ("quiver.enumerate_paths", "semigroup.build_semigroup"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = self_s(name)
        m["semigroup.table_cells"] = sum(
            s["size"] ** 2 for s in spans("semigroup.build_semigroup") if s["size"] is not None
        )
        m["semigroup.enumerate_congruences.s"] = self_s("semigroup.enumerate_congruences")
        m.update(self._closure_metrics(
            "semigroup", spans("semigroup.enumerate_congruences"), "kernels.join_labels"
        ))

        for kernel in KERNELS:
            name = f"kernels.{kernel}"
            for group in KERNEL_GROUPS:
                m[f"{name}.{group}.calls"] = 0
                m[f"{name}.{group}.s"] = 0.0
            for (n, parent), (c, _, own) in self.buckets.items():
                if n == name:
                    group = KERNEL_PARENTS.get(parent, "other")
                    m[f"{name}.{group}.calls"] += c
                    m[f"{name}.{group}.s"] += own

        for name in ("linalg.row_reduce", "linalg.Subspace.contains",
                     "linalg.Subspace.contains_subspace", "ideals.generate_ideal"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = self_s(name)
        m["ideals.enumerate_special_ideals.s"] = self_s("ideals.enumerate_special_ideals")
        m.update(self._closure_metrics(
            "ideals", spans("ideals.enumerate_special_ideals"), "ideals.ideal_join"
        ))
        m["ideals.ideal_join.s"] = self_s("ideals.ideal_join")
        m["ideals.bijection.s"] = (
            self_s("ideals.congruence_to_ideal") + self_s("ideals.ideal_to_congruence")
        )

        m["lattice.build_lattice.s"] = self_s("lattice.build_lattice")
        m["lattice.lattice_properties.s"] = self_s("lattice.lattice_properties")
        m["verify.congruence_lattice.total_s"] = total("verify.congruence_lattice", 1)
        m["verify.ideal_leq_matrix.total_s"] = total("verify.ideal_leq_matrix", 1)
        leq_spans = [s for s in spans("verify.ideal_leq_matrix") if s["size"] is not None]
        pairs = sum(s["size"] ** 2 for s in leq_spans)
        tested = sum(s["children"].get("linalg.Subspace.contains_subspace", 0) for s in leq_spans)
        m["verify.ideal_leq.pairs"] = pairs
        m["verify.ideal_leq.tested_frac"] = tested / pairs if pairs else 0.0
        # the cover check is the only place check_theorems calls contains directly
        m["verify.cover_check.contains_calls"] = total(
            "linalg.Subspace.contains", 0, parent="verify.check_theorems"
        )
        m["verify.check_theorems.s"] = self_s("verify.check_theorems")

        m["trace.wall_s"] = wall
        m["trace.coverage_frac"] = (
            sum(b[2] for b in self.buckets.values()) / wall if wall > 0 else 0.0
        )
        return m

    @staticmethod
    def _closure_metrics(prefix: str, spans: list[dict], join_name: str) -> dict[str, float]:
        """Atoms, join attempts and yield of a breadth-first join-closure.

        The closure joins every element it finds, the seed included, with
        every atom once, so attempts = elements x atoms and the new
        elements are all but the seed.
        """
        attempts = atoms = fresh = 0
        for s in spans:
            if s["size"] is None:  # refused before enumerating
                continue
            joins = s["children"].get(join_name, 0)
            attempts += joins
            atoms += joins // s["size"]
            fresh += s["size"] - 1
        return {
            f"{prefix}.atoms": atoms,
            f"{prefix}.join_attempts": attempts,
            f"{prefix}.join_yield": fresh / attempts if attempts else 0.0,
        }
