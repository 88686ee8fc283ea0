"""Rewrite golden.json from the current pathcong, at seed 0.

Every workload, at every size, is run once in this process.  A verified
operation pins its congruence and ideal counts and its computed property
dict; a refused one pins the element count its CapExceeded must name.
These are isomorphism invariants, so they hold for every seed.

Run only on a commit whose results are trusted: python3 perfbench/record_golden.py
"""

import json
import sys

import child
import workloads


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for size in workloads.SIZES:
            ops = sorted(workloads.operations(name, 0, size), key=lambda op: op.index)
            entries = []
            for op in ops:
                got = child.outcome(op)
                if op.expect_cap:
                    if "cap" not in got:
                        raise SystemExit(f"{name}/{size} operation {op.index} was not refused")
                    paths = child.pathcong.enumerate_paths(op.quiver)
                    entries.append({"elements": len(paths) + 1})
                else:
                    if not got.get("ok"):
                        raise SystemExit(f"{name}/{size} operation {op.index} failed: {got}")
                    entries.append({k: got[k] for k in ("congruences", "ideals", "computed")})
            golden[name][size] = entries
    with open(child.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
