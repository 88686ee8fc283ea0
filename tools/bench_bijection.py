"""Time verdict 1's per-congruence match of ``check_theorems``.

    PYTHONPATH=src python3 tools/bench_bijection.py --label change

For each input quiver both routes are built as ``check_theorems`` builds
them: the congruence closure, and the ideals by ``ideal_join_closure``,
indexed by their residue labels.  Verdict 1's match,
``verify.match_congruence``, then runs over every congruence: the lookup
of its labels among the ideals', the dimension test and the round trip
of the matched ideal through ``ideal_to_congruence``.  Each repeat takes
fresh congruence objects, as each ``check_theorems`` call does, and only
the loop is timed.  The result is the median of ``REPEATS`` repeats, in
microseconds per congruence.

The figures are merged into ``--out`` under ``--label``, so one file
holds a parent and a change measured alternately on one host: run each
tree's copy of the script with ``PYTHONPATH`` pointing at its ``src``.
The run names the commit of the measured ``pathcong`` and whether its
work tree had changes, as ``bench_lattice.git_state`` reads them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import pathcong
from pathcong import Quiver, build_semigroup, enumerate_congruences
from pathcong.ideals import ideal_join_closure
from pathcong.verify import match_congruence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_lattice import git_state  # noqa: E402
from perfbench.workloads import kronecker, star  # noqa: E402

REPEATS = 9

INPUTS = {
    "star(5)": star(5),
    "kronecker(5)": kronecker(5),
    "kronecker(7)": kronecker(7),
    "star(8)": star(8),
}


def time_loop(q: Quiver) -> dict:
    """Verdict 1's match over ``REPEATS`` runs: median and quartiles per congruence."""
    s = build_semigroup(q)
    ideals, _ = ideal_join_closure(q)
    by_labels = {ideal.residue_labels: i for i, ideal in enumerate(ideals)}
    samples = []
    for _ in range(REPEATS):
        congs = enumerate_congruences(s)
        start = time.perf_counter()
        for k, c in enumerate(congs):
            match_congruence(s, k, c, ideals, by_labels)
        samples.append((time.perf_counter() - start) / len(congs))
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "congruences": len(congs),
        "us_per_congruence": round(median * 1e6, 2),
        "q1_q3_us": [round(q1 * 1e6, 2), round(q3 * 1e6, 2)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_bijection.json"))
    args = parser.parse_args(argv)

    result = {name: time_loop(q) for name, q in INPUTS.items()}
    for name, row in result.items():
        print(f"{args.label:>8} {name:<13} {row['congruences']:>6} congruences"
              f"  {row['us_per_congruence']:7.2f} us per congruence")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["metric"] = (
        "verdict 1's per-congruence loop as the measured tree's tools/bench_bijection.py"
        " times it, microseconds per congruence, median of in-process repeats"
    )
    doc["host"] = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    doc.setdefault("runs", {})[args.label] = {
        **git_state(Path(pathcong.__file__).resolve().parent),
        "timed": "verify.match_congruence: label lookup, dimension, round trip",
        "repeats": REPEATS,
        "inputs": result,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
