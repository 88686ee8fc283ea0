"""Every function the traced benchmark wraps must still exist under its name.

``perfbench/tracer.py`` raises when a target has gone, which would only
show when the benchmark runs; this catches a rename in the test suite.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pathcong
from pathcong import _kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for name, (modname, attr, _) in targets.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {modname}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_kernel_hooks_the_benchmark_reads():
    # perfbench/child.py records the backend and perfbench/tracer.py wraps
    # the kernels by module name; both break if these go
    assert pathcong.KERNEL_BACKEND == "pure"
    assert isinstance(_kernels, types.ModuleType)
    assert _kernels.__name__ == "pathcong._kernels"
    for name in (
        "canonical_labels",
        "join_labels",
        "meet_labels",
        "principal_labels",
        "is_congruence_labels",
    ):
        assert callable(getattr(_kernels, name)), name


# Traced targets check_theorems no longer calls: verdicts 1 and 5 compare
# the routes' join tables, so no containment test or order matrix is made,
# it takes the ideals with their table from join_closure(ideal_route), the
# lattice reads meets off generator sets, not partition meets, and verdict 1
# finds each congruence's image among the ideals by residue labels and
# dimension instead of building it, and an ideal with its congruence's
# labels maps back to it, so no round trip is run.
DROPPED_FROM_CHECK = {
    "ideals.congruence_to_ideal",
    "ideals.ideal_to_congruence",
    "verify.ideal_leq_matrix",
    "linalg.Subspace.contains",
    "linalg.Subspace.contains_subspace",
    "ideals.enumerate_special_ideals",
    "kernels.meet_labels",
}


def test_check_theorems_reaches_every_traced_kernel(triple_arrow, monkeypatch):
    # the benchmark's self-test needs every traced function called on a
    # verifying workload; the three-arrow Kronecker quiver is one.  All but
    # the dropped ones must be.  Like the tracer, replace every binding of a
    # function and a method on its class.
    calls = dict.fromkeys(_load_tracer().TARGETS, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "pathcong"]
    for name, (modname, attr, _) in _load_tracer().TARGETS.items():
        owner = importlib.import_module(modname)
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fname)

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        if cls:
            monkeypatch.setattr(owner, fname, counting)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    assert pathcong.check_theorems(triple_arrow).ok  # the patched binding
    assert {name for name, n in calls.items() if not n} == DROPPED_FROM_CHECK
