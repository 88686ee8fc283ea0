"""End-to-end benchmark of pathcong's two-route verifier.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs passes of workload W (see workloads.py), each in a fresh interpreter
as a ``pathcong check`` user would, until S seconds are used, and checks
every operation's outcome against golden.json.

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_rel     time to run every operation of the workload, in units of
               the workload's reference load timed in the same pass
               (reference.py); on a shared host this holds still where
               seconds do not
  setup_s      seconds from starting the process through ``import pathcong``
               and building the workload's quivers, scaled to the machine
               speed at which the python reference load takes NOMINAL_REF_S
  peak_rss_mb  the pass's peak resident memory
and prints, but leaves out of the result line, the unscaled seconds:
wall_s, setup_raw_s and ref_s (the reference load's).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py, medians over the traced passes, plus the tracing
overhead: traced over untraced wall_rel, minus one.

Human-readable lines come first, failed_frac among them; the last line of
standard output is the JSON result.  Each result, with its metadata and
every pass's samples, is also written to perfbench/out/.  Exits 1 when an
operation failed, 2 when pathcong's sources are not in this checkout.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pathcong"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = (("wall_rel", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
EXTRA = (("wall_s", "s"), ("setup_raw_s", "s"), ("ref_s", "s"))  # not in the result line
# The python reference load's typical seconds on the 2-vCPU host where the
# baseline was taken.  It only turns set-up time in reference units back
# into seconds; any fixed value would do.
NOMINAL_REF_S = 0.2
MIN_ROUNDS = {0: 3, 1: 2}  # rounds of passes, whatever --seconds says
DEADLINE_S = 150  # start no pass after this, so a run ends within 180 s
PASS_TIMEOUT_S = 120


def run_pass(args, trace: int) -> dict:
    """Start one child pass, wait for it, and return its parsed result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--size", args.size, "--golden", args.golden,
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_raw_s"] = result.pop("ready") - started
    result["setup_s"] = result["setup_raw_s"] * NOMINAL_REF_S / result["setup_ref_s"]
    result["wall_rel"] = result["wall_s"] / result["ref_s"]
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="golden outcomes to check against")
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no pathcong sources at {PACKAGE}", file=sys.stderr)
        return 2

    # Write the bytecode caches first, so every measured pass starts alike.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE), str(HERE)],
                   cwd=ROOT, capture_output=True, timeout=PASS_TIMEOUT_S)

    kinds = (0, 1) if args.trace else (0,)
    passes: dict[int, list[dict]] = {k: [] for k in kinds}
    errors: list[str] = []
    start = time.monotonic()
    rounds = 0
    while True:
        # alternate which kind goes first, so neither always follows the other
        for trace in (kinds if rounds % 2 == 0 else kinds[::-1]):
            try:
                passes[trace].append(run_pass(args, trace))
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if rounds >= MIN_ROUNDS[args.trace] and elapsed + per_round > args.seconds:
            break
        if elapsed > DEADLINE_S or len(errors) > 2:
            break

    every = [p for kind in kinds for p in passes[kind]]
    ops = every[0]["attempted"] if every else 0
    attempted = sum(p["attempted"] for p in every) + ops * len(errors)
    failures = [msg for p in every for msg in p["failures"]] + errors
    failed = sum(len(p["failures"]) for p in every) + ops * len(errors)

    untraced = passes[0]
    if not all(passes.values()):
        print("perfbench: no pass of some kind completed:", *errors, sep="\n  ", file=sys.stderr)
        return 1
    meta = dict(untraced[0]["meta"])
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, reference=workloads.REFERENCE[args.workload],
        git_commit=git_commit(), source_sha256=source_digest(),
    )

    metrics: dict[str, dict] = {}
    samples: dict[str, list[float]] = {}
    if not args.trace:
        for name, unit in END_TO_END:
            samples[name] = [p[name] for p in untraced]
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in EXTRA:
            samples[name] = [p[name] for p in untraced]
    else:
        traced = [p["trace"] for p in passes[1]]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            samples[name] = [t["metrics"][name] for t in traced]
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        samples["traced.wall_rel"] = [p["wall_rel"] for p in passes[1]]
        samples["untraced.wall_rel"] = [p["wall_rel"] for p in untraced]
        overhead = (statistics.median(samples["traced.wall_rel"])
                    / statistics.median(samples["untraced.wall_rel"]) - 1)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        metrics = {name: metrics[name] for name, _ in PER_LAYER}

    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} untraced"
          + (f" and {len(passes[1])} traced" if args.trace else "")
          + f" passes of {ops} operation(s); backend {meta.get('backend')}")
    shown = [(name, m["unit"]) for name, m in metrics.items()]
    shown += [(name, unit) for name, unit in EXTRA if name in samples]
    for name, unit in shown:
        vals = samples.get(name, [metrics.get(name, {}).get("value")])
        q1, med, q3 = quartiles(vals)
        print(f"  {name:<44} {med:>14.6g} {unit:<6} median of {len(vals)}"
              f" (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'failed_frac':<44} {failed / attempted if attempted else 1.0:>14.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    print("meta " + json.dumps(meta, sort_keys=True))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed, "failures": failures}
    if args.trace:
        record["spans"] = passes[1][-1]["trace"]["spans"]
        record["calls"] = passes[1][-1]["trace"]["calls"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
