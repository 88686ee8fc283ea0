"""Smoke test of ``tools/bench_lattice.py``, which no command runs."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_lattice.py"


def load_bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the repo root on it
    spec = importlib.util.spec_from_file_location("bench_lattice", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_lattice_stage_runs_on_a_star(monkeypatch):
    bench = load_bench(monkeypatch)
    row = bench.lattice_milliseconds(bench.quiver("star(2)"))
    assert row["congruences"] == 13
    assert row["ms"] > 0
    wide = bench.quiver("wide")
    assert (len(wide.vertices), len(wide.arrows)) == (3, 5)


def test_closure_stage_counts_the_joins_each_route_forms(monkeypatch):
    bench = load_bench(monkeypatch)
    for route in bench.ROUTES:
        row = bench.closure_run(bench.quiver("star(2)"), route)
        assert (row["elements"], row["joins"]) == (13, 12)
        assert row["ms"] > 0
