"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

For each workload:
  1. run.py, traced and untraced, prints every metric BENCHMARK.json names,
     with its unit, both in its readable lines and in its JSON result, and
     reports no failed operation;
  2. a traced pass calls every traced function at least once (on
     reject-oversize, every function on the refusal path), so a renamed
     import cannot silently drop a layer;
  3. with one golden count made wrong, run.py reports the failure and
     exits nonzero.
Prints each failed check and exits 1 if there is one.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=HERE.parent, capture_output=True, text=True, timeout=170
    )


def bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return run(str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra)


def check_metrics(workload: str, trace: int) -> list[str]:
    proc = bench(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        if not any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines):
            problems.append(f"{where}: no readable line for {m['name']} in {m['unit']}")
    if not trace and not any(line.split()[:1] == ["failed_frac"] for line in lines):
        problems.append(f"{where}: no readable failed_frac line")
    return problems


def check_layers_reached(workload: str) -> list[str]:
    proc = run(str(HERE / "child.py"), "--workload", workload, "--seed", "1",
               "--trace", "1", "--size", "tiny")
    if proc.returncode != 0:
        return [f"{workload}: traced pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    calls = json.loads(proc.stdout)["trace"]["calls"]
    expected = tracer.REFUSAL_PATH if workload == "reject-oversize" else tracer.TARGETS
    return [f"{workload}: {name} was never called" for name in expected if not calls[name]]


def check_wrong_golden(workload: str) -> list[str]:
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    entry = golden[workload]["tiny"][0]
    entry["elements" if "elements" in entry else "congruences"] += 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"wrong-golden-{workload}.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    proc = bench(workload, 0, "--golden", str(path))
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode == 0 or result.get("correct", True) or not result.get("failed"):
        return [f"{workload}: a wrong golden count was not reported as a failure"]
    return []


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_metrics(workload, trace)
        problems += check_layers_reached(workload)
        problems += check_wrong_golden(workload)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
