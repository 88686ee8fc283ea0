"""Compare two saved results of one workload.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are those run.py writes to perfbench/out/.  Refuses, with exit
code 2, to compare results from different kernel backends, workloads,
sizes or trace settings.  Prints each metric's two medians and the change
as a share of BEFORE.
"""

import json
import sys

MUST_MATCH = ("backend", "workload", "size", "trace")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    for key in MUST_MATCH:
        if before["meta"].get(key) != after["meta"].get(key):
            print(f"refusing to compare: {key} is {before['meta'].get(key)!r} "
                  f"vs {after['meta'].get(key)!r}", file=sys.stderr)
            return 2
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"{name:<44} {b['value']:>14.6g} {'missing':>14}")
            continue
        change = (a["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
        print(f"{name:<44} {b['value']:>14.6g} {a['value']:>14.6g} {b['unit']:<6} {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
