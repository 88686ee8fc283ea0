"""Every function the traced benchmark wraps must still exist under its name.

``perfbench/tracer.py`` raises when a target has gone, which would only
show when the benchmark runs; this catches a rename in the test suite.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pathcong
from pathcong import _kernels, check_theorems

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
        "congruences_bruteforce",
    ):
        assert callable(getattr(_kernels, name)), name


def test_check_theorems_reaches_every_traced_kernel(triple_arrow, monkeypatch):
    # the benchmark's self-test needs every traced kernel called on a
    # verifying workload; the three-arrow Kronecker quiver is one
    calls = dict.fromkeys(_load_tracer().KERNELS, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name, counting(name, getattr(_kernels, name)))
    assert check_theorems(triple_arrow).ok
    assert all(calls.values()), calls
