"""Every function in ``src/pathcong`` is reached by a command.

The CLI runs under ``trace`` over every subcommand on the shipped quivers,
a short ``random-check``, and a malformed and a cyclic quiver file.  A
function that none of these runs calls must be a dunder method or one of
the library entry points pinned below.  Anything else is dead code, or a
reference implementation that belongs in ``tests/oracles.py``.
"""

import ast
import contextlib
import io
import sys
import trace
from pathlib import Path

import pathcong
from pathcong.cli import main

PACKAGE = Path(pathcong.__file__).resolve().parent
QUIVERS = sorted((Path(__file__).resolve().parent.parent / "quivers").glob("*.quiver"))

# Documented constructors and helpers that no command needs.
LIBRARY_ENTRY_POINTS = {
    "identity_congruence",
    "universal_congruence",
    "join_congruences",
    "meet_congruences",
    "_require_same_semigroup",  # shared by the two entry points above
    "congruence_from_blocks",
    "congruence_from_json",
    "Congruence.validate",
    "PathSemigroup.index_by_name",
    "monomial_relation",
    "commutative_relation",
    "Relation.vectorize",
    # the paper's map from congruences to ideals, exported and tested
    # against congruence_to_ideal_eager; verdict 1 finds each image among
    # the enumerated ideals by residue labels and dimension instead
    "congruence_to_ideal",
    # the paper's map back, exported and tested; verdict 1 needs no round
    # trip, since an ideal whose residue labels are c's maps back to c
    "ideal_to_congruence",
    # the ideal closure tests containment on the label bytes inline;
    # ideal_leq_matrix, which only the benchmark's tracer calls, reads it
    "contains_relation",
    # exported; the commands read PathSemigroup.max_parallel_paths, the
    # largest of the path counts the semigroup already holds
    "max_parallel_paths",
    "console_main",  # the installed script; the runs call main()
}
# The benchmark builds its workloads with this (perfbench/workloads.py);
# random-check also prints it for a quiver that fails its check.
BENCHMARK_BUILDERS = {"quiver_to_text"}
# Functions perfbench/tracer.py wraps by name and raises without, which no
# command reaches since check_theorems compares join tables and reads meets
# off generator sets.  ROADMAP item 1 retires them from the tracer's targets.
BENCHMARK_TRACED = {
    "ideal_leq_matrix",
    "Subspace.contains",
    "Subspace.contains_subspace",
    "meet_labels",
}


class _FunctionTrace(trace.Trace):
    """Records each called function by file and first line, with no class lookup."""

    def file_module_function_of(self, frame):
        code = frame.f_code
        return code.co_filename, code.co_firstlineno, code.co_name


def _functions(body, prefix=""):
    """(first line, qualified name) of each function in ``body``, nested ones included."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, prefix + node.name
            yield from _functions(node.body, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _defined():
    """{(module path, first line): qualified name} over the whole package."""
    return {
        (path, line): name
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _functions(ast.parse(path.read_text(encoding="utf-8")).body)
    }


def _is_dunder(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__")


def test_every_function_is_reached_by_a_command(tmp_path):
    malformed = tmp_path / "malformed.quiver"
    malformed.write_text("vertices: 1 2\narrow a 1 -> 2\n")
    cyclic = tmp_path / "cyclic.quiver"
    cyclic.write_text("vertices: 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n")
    commands = [
        ["validate"],
        ["paths"],
        ["congruences"],
        ["congruences", "--json"],
        ["ideals"],
        ["ideals", "--json"],
        ["lattice"],
        ["lattice", "--json"],
        ["lattice", "--dot", str(tmp_path / "lattice.dot")],
        ["predict"],
        ["predict", "--json"],
        ["check"],
    ]
    runs = [([*cmd, str(q)], 0) for q in QUIVERS for cmd in commands]
    runs.append((["random-check", "--trials", "3"], 0))
    runs += [(["validate", str(malformed)], 1), (["check", str(malformed)], 1)]
    runs += [(["validate", str(cyclic)], 0), (["check", str(cyclic)], 1)]

    # a cache hit runs no function body, and earlier tests may have filled
    # the package's lru caches with these very quivers
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pathcong":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    tracer = _FunctionTrace(count=0, trace=0, countfuncs=1)
    previous = sys.gettrace()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [tracer.runfunc(main, argv) for argv, _ in runs]
    finally:
        sys.settrace(previous)
    assert codes == [code for _, code in runs]

    called = {(Path(f).resolve(), line) for f, line, _ in tracer.results().calledfuncs}
    defined = _defined()
    allowed = LIBRARY_ENTRY_POINTS | BENCHMARK_BUILDERS | BENCHMARK_TRACED
    assert allowed <= set(defined.values()), "an allowlisted function is gone"
    missed = [
        f"{path.name}: {name}"
        for (path, line), name in defined.items()
        if (path, line) not in called and not _is_dunder(name) and name not in allowed
    ]
    assert not missed, missed
