"""One pass of one workload, in a fresh interpreter, as a pathcong user runs it.

Imports pathcong from the checkout's ``src``, builds the workload's
operation list, optionally installs the tracer, runs every operation, and
checks each outcome against the golden file.  Prints one JSON object:

  ready        CLOCK_MONOTONIC reading when set-up ended, so the parent can
               time set-up from the moment it started this process
  wall_s       seconds to run every operation
  ref_s        seconds of the workload's reference load (reference.py), mean
               of one run just before and one just after the operations
  setup_ref_s  seconds of the python reference load, run just after set-up
  peak_rss_mb  this process's peak resident memory
  attempted, failures, meta, and with --trace 1 the tracer's data

Usage: python3 perfbench/child.py --workload W --seed N --trace 0|1
       [--size full|tiny] [--golden PATH]
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pathcong  # noqa: E402

import workloads  # noqa: E402
from reference import reference_seconds  # noqa: E402


def outcome(op) -> dict:
    """Run one operation; describe what happened in golden-file terms."""
    try:
        report = pathcong.check_theorems(op.quiver, workloads.CHECK_CAP)
    except pathcong.CapExceeded as exc:
        return {"cap": str(exc)}
    except Exception as exc:  # any other error is a counted failure, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    summary = report.quiver_summary
    return {
        "ok": report.ok,
        "congruences": summary["congruences"],
        "ideals": summary["ideals"],
        "computed": report.computed,
    }


def failure(op, got: dict, want: dict) -> str | None:
    """Why an outcome differs from its golden entry, or None if it matches."""
    where = f"operation {op.index}"
    if "error" in got:
        return f"{where}: unexpected {got['error']}"
    if op.expect_cap:
        if "cap" not in got:
            return f"{where}: expected CapExceeded, got a report"
        if f"{want['elements']} elements" not in got["cap"]:
            return f"{where}: CapExceeded does not name {want['elements']} elements: {got['cap']}"
        return None
    if "cap" in got:
        return f"{where}: unexpected CapExceeded: {got['cap']}"
    if not got["ok"]:
        return f"{where}: report has a theorem violation"
    for key in ("congruences", "ideals", "computed"):
        if got[key] != want[key]:
            return f"{where}: {key} {got[key]} != golden {want[key]}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args()

    ops = workloads.operations(args.workload, args.seed, args.size)
    ready = time.monotonic()

    with open(args.golden, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload][args.size]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_ref = reference_seconds("python")  # gauges set-up, which is interpreter work
    kind = workloads.REFERENCE[args.workload]
    ref_before = setup_ref if kind == "python" else reference_seconds(kind)
    start = time.perf_counter()
    got = [outcome(op) for op in ops]
    wall = time.perf_counter() - start
    ref_after = reference_seconds(kind)

    failures = [msg for op, g in zip(ops, got) if (msg := failure(op, g, golden[op.index]))]
    import numpy

    result = {
        "ready": ready,
        "wall_s": wall,
        "ref_s": (ref_before + ref_after) / 2,
        "setup_ref_s": setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failures": failures,
        "meta": {
            "backend": pathcong.KERNEL_BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(wall),
            "calls": tracer.calls(),
            "spans": tracer.spans,
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
