"""Smoke test of ``tools/bench_bijection.py``, which no command runs."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_bijection.py"


def load_bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the repo root on it
    spec = importlib.util.spec_from_file_location("bench_bijection", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_time_loop_runs_verdict_1s_loop_on_a_star(monkeypatch):
    bench = load_bench(monkeypatch)
    row = bench.time_loop(bench.star(2))
    assert row["congruences"] == 13
    assert row["us_per_congruence"] > 0


def test_run_record_names_its_commit(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    row = {"congruences": 1, "us_per_congruence": 1.0, "q1_q3_us": [1.0, 1.0]}
    monkeypatch.setattr(bench, "time_loop", lambda q: row)
    out = tmp_path / "bench.json"
    assert bench.main(["--label", "change", "--out", str(out)]) == 0
    run = json.loads(out.read_text())["runs"]["change"]
    assert {"git_commit", "dirty"} <= set(run)
    assert run["inputs"] == dict.fromkeys(bench.INPUTS, row)
