"""Smoke test of ``tools/bench_bijection.py``, which no command runs."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_bijection.py"


def test_time_loop_runs_verdict_1s_loop_on_a_star(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the repo root on it
    spec = importlib.util.spec_from_file_location("bench_bijection", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.time_loop(bench.star(2))
    assert row["congruences"] == 13
    assert row["us_per_congruence"] > 0
