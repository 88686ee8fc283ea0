"""Time ``import pathcong``, both join-closures, the lattice stage, verdict 1's
match, whole checks, and a random suite of checks.

    PYTHONPATH=src python3 tools/bench_lattice.py --label change

Six measurements, each against the ``pathcong`` that ``PYTHONPATH`` finds:

- ``import_s``: seconds of ``import pathcong`` in a fresh interpreter,
  the median of ``REPEATS`` processes;
- ``closure``: for each route on each of ``CLOSURE_INPUTS``
  (``semigroup.congruence_route`` on a semigroup whose table is built,
  and ``ideals.ideal_route``), building the route and its
  ``join_closure``: the elements, the joins it forms (counted in one more
  untimed run, through the route's ``join``), and its milliseconds, the
  median of ``REPEATS`` in-process runs;
- ``lattice_ms``: the lattice stage of ``check_theorems``, that is
  ``build_lattice`` on the cached congruence join table plus
  ``lattice_properties``, in milliseconds, the median of ``REPEATS``
  in-process runs on each of ``LATTICE_INPUTS``;
- ``match_us``: verdict 1's match, ``verify.match_congruence`` of each
  congruence k against ideal k of the ideal closure, as ``check_theorems``
  pairs them, on fresh congruence objects each repeat; microseconds per
  congruence, the median of ``REPEATS`` in-process runs of the loop on
  each of ``LATTICE_INPUTS``;
- ``check``: ``check_theorems`` on each of ``CHECK_INPUTS`` in a fresh
  interpreter, its seconds and the process's own peak resident memory
  (``VmHWM``);
- ``suite``: ``check_theorems`` over every draw of ``random_suite(60, 0,
  max_arrows=4, max_elements=12)``, the benchmark's random-suite draws,
  in one fresh interpreter, so repeated draws meet the semigroup cache as
  they do in a ``random-check`` run: the checks, the distinct quivers,
  and the milliseconds of the checks and the process's own peak resident
  memory, the medians of ``REPEATS`` processes.

Before it times anything the script writes the bytecode caches of the
measured package, as ``perfbench/run.py`` does, so the fresh-process
stages do not depend on whether the checkout held them.

Each run is appended to the list under ``--label`` in ``--out``, so one
file holds parent and change runs taken alternately on one host: run the
script with ``PYTHONPATH`` pointing at each tree's ``src`` in turn, or,
when a change renames a name this script imports, each tree's own script
on its own ``src``, from one directory.  Every
run records the commit of the measured ``pathcong`` as ``git_commit``
and whether its work tree had changes as ``dirty``, both null outside a
git work tree, and its host as ``machine``, ``cpus`` and ``python``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pathcong
from pathcong import (
    PathSemigroup,
    Quiver,
    build_lattice,
    build_semigroup,
    enumerate_congruences,
    lattice_properties,
)
from pathcong.ideals import ideal_route
from pathcong.semigroup import congruence_route, join_closure
from pathcong.verify import match_congruence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import kronecker, star  # noqa: E402

REPEATS = 9

CLOSURE_INPUTS = ("kronecker(5)", "star(5)", "kronecker(7)", "star(8)", "wide")
LATTICE_INPUTS = ("kronecker(5)", "star(5)", "kronecker(7)", "star(8)")
CHECK_INPUTS = ("kronecker(7)", "star(8)", "wide", "kronecker(8)")


def quiver(name: str):
    """``kronecker(k)``, ``star(k)``, or ``wide``: 3 arrows u -> v and 2 arrows v -> w."""
    if name == "wide":
        arrows = [(a, "u", "v") for a in "abc"] + [(a, "v", "w") for a in "de"]
        return Quiver(["u", "v", "w"], arrows)
    family, k = name.rstrip(")").split("(")
    return {"kronecker": kronecker, "star": star}[family](int(k))


IMPORT_CHILD = """
import time
start = time.perf_counter()
import pathcong
print(time.perf_counter() - start)
"""

# The child's own peak resident memory, from VmHWM: Linux carries ru_maxrss
# across fork and exec, so a child would read this harness's size instead.
PEAK_MB = """
def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
"""

CHECK_CHILD = PEAK_MB + """
import sys, time
sys.path.insert(0, {tools!r})
from bench_lattice import quiver
from pathcong import check_theorems
q = quiver({name!r})
start = time.perf_counter()
report = check_theorems(q)
seconds = time.perf_counter() - start
if not report.ok:
    sys.exit(report.format())
print(seconds, peak_mb())
"""


SUITE_CHILD = PEAK_MB + """
import sys, time
from pathcong import check_theorems, random_suite
quivers = random_suite(60, 0, max_arrows=4, max_elements=12)
start = time.perf_counter()
reports = [check_theorems(q) for q in quivers]
seconds = time.perf_counter() - start
for report in reports:
    if not report.ok:
        sys.exit(report.format())
print(seconds, len(reports), len(set(quivers)), peak_mb())
"""


def child(code: str) -> list[float]:
    """The numbers a fresh interpreter prints for ``code``."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return [float(x) for x in out.stdout.split()]


def git_state(path: Path) -> dict:
    """The commit checked out at ``path`` and whether its work tree has changes.

    Both are None outside a git work tree or without git.
    """
    def git(*args):
        out = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return out.stdout if out.returncode == 0 else None

    try:
        commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except FileNotFoundError:  # no git on the PATH
        commit = status = None
    if commit is None or status is None:
        return {"git_commit": None, "dirty": None}
    return {"git_commit": commit.strip(), "dirty": bool(status.strip())}


def summary(samples: list[float], unit: str) -> dict:
    """The median of ``samples`` under ``unit`` and their quartiles under ``q1_q3_<unit>``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {unit: round(median, 2), f"q1_q3_{unit}": [round(q1, 2), round(q3, 2)]}


def compile_package(package: Path) -> None:
    """Write the bytecode caches of ``package``, as ``perfbench/run.py`` does, so the
    fresh-process stages import from them whether or not the checkout held any."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True,
                   capture_output=True)


def import_seconds() -> float:
    return statistics.median(child(IMPORT_CHILD)[0] for _ in range(REPEATS))


# route name -> its route on a quiver q with semigroup s
ROUTES = {
    "congruences": lambda q, s: congruence_route(s),
    "ideals": lambda q, s: ideal_route(q),
}


def closure_run(q, name: str) -> dict:
    """Elements, joins formed, and median milliseconds of one route's closure of q."""
    build = ROUTES[name]
    s = PathSemigroup(q)
    s.table_bytes  # the congruence route's table, built before the clock starts
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        join_closure(build(q, s))
        samples.append((time.perf_counter() - start) * 1e3)
    route, joins = build(q, s), []
    counting = route._replace(join=lambda a, b: joins.append(1) or route.join(a, b))
    elements = len(join_closure(counting)[0])
    return {"elements": elements, "joins": len(joins), **summary(samples, "ms")}


def lattice_milliseconds(q) -> dict:
    """Median and quartiles of ``build_lattice`` plus ``lattice_properties`` on q."""
    s = build_semigroup(q)
    congs = enumerate_congruences(s)  # fills the cached closure
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        lattice_properties(build_lattice(congs, s.congruence_closure[1]))
        samples.append((time.perf_counter() - start) * 1e3)
    return {"congruences": len(congs), **summary(samples, "ms")}


def match_microseconds(q) -> dict:
    """Median and quartiles of verdict 1's match on q, per congruence."""
    s = build_semigroup(q)
    found = join_closure(ideal_route(q))[0]
    samples = []
    for _ in range(REPEATS):
        congs = enumerate_congruences(s)
        start = time.perf_counter()
        for k, c in enumerate(congs):
            match_congruence(s, k, c, found[k])
        samples.append((time.perf_counter() - start) / len(congs) * 1e6)
    return {"congruences": len(congs), **summary(samples, "us")}


def check_run(name: str) -> dict:
    seconds, peak = child(CHECK_CHILD.format(tools=str(ROOT / "tools"), name=name))
    return {"s": round(seconds, 3), "peak_rss_mb": round(peak, 1)}


def suite_run() -> dict:
    """Checks, distinct quivers, and median milliseconds and peak RSS of the suite's checks."""
    seconds, checks, distinct, peak = zip(*(child(SUITE_CHILD) for _ in range(REPEATS)))
    return {
        "checks": int(checks[0]),
        "distinct": int(distinct[0]),
        **summary([s * 1e3 for s in seconds], "ms"),
        "peak_rss_mb": round(statistics.median(peak), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_lattice.json"))
    args = parser.parse_args(argv)

    package = Path(pathcong.__file__).resolve().parent
    compile_package(package)
    run = {
        **git_state(package),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "import_s": round(import_seconds(), 4),
        "closure": {
            name: {route: closure_run(quiver(name), route) for route in ROUTES}
            for name in CLOSURE_INPUTS
        },
        "lattice_ms": {name: lattice_milliseconds(quiver(name)) for name in LATTICE_INPUTS},
        "match_us": {name: match_microseconds(quiver(name)) for name in LATTICE_INPUTS},
        "check": {name: check_run(name) for name in CHECK_INPUTS},
        "suite": suite_run(),
    }
    print(f"{args.label:>8} import pathcong {run['import_s']:.4f} s")
    for name, routes in run["closure"].items():
        for route, row in routes.items():
            print(f"{args.label:>8} closure {name:<13} {route:<11} {row['elements']:>6} elements"
                  f" {row['joins']:>6} joins {row['ms']:8.2f} ms")
    for name, row in run["lattice_ms"].items():
        print(f"{args.label:>8} lattice {name:<13} {row['congruences']:>6} congruences"
              f" {row['ms']:8.2f} ms")
    for name, row in run["match_us"].items():
        print(f"{args.label:>8} match {name:<13} {row['congruences']:>6} congruences"
              f" {row['us']:8.2f} us per congruence")
    for name, row in run["check"].items():
        print(f"{args.label:>8} check {name:<13} {row['s']:7.3f} s {row['peak_rss_mb']:7.1f} MB")
    row = run["suite"]
    print(f"{args.label:>8} suite {row['checks']} checks, {row['distinct']} distinct"
          f" {row['ms']:8.2f} ms {row['peak_rss_mb']:7.1f} MB")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["metric"] = (
        "import_s: fresh-process import seconds, median; closure: each route's"
        " join-closure, its elements, joins formed and milliseconds, median of in-process"
        " repeats; lattice_ms: build_lattice plus"
        " lattice_properties, median of in-process repeats; match_us: verdict 1's"
        " verify.match_congruence over every congruence, microseconds per congruence,"
        " median of in-process repeats; check: check_theorems seconds and the process's own"
        " peak RSS (VmHWM), one fresh process per input; suite: check_theorems over"
        " random_suite(60, 0, max_arrows=4, max_elements=12) in one process, its checks,"
        " distinct quivers, milliseconds and own peak RSS, medians of fresh processes"
    )
    doc.setdefault("runs", {}).setdefault(args.label, []).append({"repeats": REPEATS, **run})
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
