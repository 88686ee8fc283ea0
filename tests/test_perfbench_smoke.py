"""One tiny pass of each benchmark workload matches the golden file.

``perfbench/child.py`` checks every operation's report (``ok``, the
congruence and ideal counts, the computed properties) against
``perfbench/golden.json``, so drift shows here before a benchmark run.
The pass only reads ``perfbench/``: it writes no bytecode there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_matches_the_golden_file(workload):
    done = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1", "--size", "tiny"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["attempted"] > 0
    assert result["failures"] == []
