"""Smoke test of ``tools/bench_lattice.py``, which no command runs."""

import importlib.util
import json
import re
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


def test_three_plus_three_is_a_checked_input(monkeypatch):
    bench = load_bench(monkeypatch)
    assert "3+3" in bench.CHECK_INPUTS
    q = bench.quiver("3+3")
    assert q.vertices == ("u", "v", "w")
    assert sorted((a.source, a.target) for a in q.arrows) == [("u", "v")] * 3 + [("v", "w")] * 3


def test_match_stage_runs_on_a_star(monkeypatch):
    bench = load_bench(monkeypatch)
    row = bench.match_microseconds(bench.quiver("star(2)"))
    assert row["congruences"] == 13
    assert row["us"] > 0


def test_closure_stage_counts_the_joins_each_route_forms(monkeypatch):
    bench = load_bench(monkeypatch)
    for route in bench.ROUTES:
        row = bench.closure_run(bench.quiver("star(2)"), route)
        assert (row["elements"], row["joins"]) == (13, 12)
        assert row["ms"] > 0


def test_git_state_names_the_commit_or_nothing(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    assert bench.git_state(tmp_path) == {"git_commit": None, "dirty": None}
    state = bench.git_state(SCRIPT.parent)
    if state["git_commit"] is not None:  # a git work tree
        assert re.fullmatch("[0-9a-f]{40}", state["git_commit"])
        assert isinstance(state["dirty"], bool)


# one row of each timed stage, so main writes a record without timing anything
FAKE_ROWS = {
    "import_seconds": 0.01,
    "closure_run": {"elements": 1, "joins": 0, "ms": 0.1, "q1_q3_ms": [0.1, 0.1]},
    "lattice_milliseconds": {"congruences": 1, "ms": 0.1, "q1_q3_ms": [0.1, 0.1]},
    "match_microseconds": {"congruences": 1, "us": 1.0, "q1_q3_us": [1.0, 1.0]},
    "check_run": {"s": 0.1, "peak_rss_mb": 1.0},
    "suite_run": {"checks": 2, "distinct": 1, "ms": 0.1, "q1_q3_ms": [0.1, 0.1], "peak_rss_mb": 1.0},
}


def test_every_run_record_names_its_commit(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    for stage, row in FAKE_ROWS.items():
        monkeypatch.setattr(bench, stage, lambda *args, row=row: row)
    out = tmp_path / "bench.json"
    for _ in range(2):
        assert bench.main(["--label", "change", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "host" not in doc  # each run names its own
    runs = doc["runs"]["change"]
    assert len(runs) == 2
    fields = {"git_commit", "dirty", "machine", "cpus", "python", "match_us", "suite"}
    assert all(fields <= set(run) for run in runs)
    assert all(run["suite"] == FAKE_ROWS["suite_run"] for run in runs)
    match = dict.fromkeys(bench.LATTICE_INPUTS, FAKE_ROWS["match_microseconds"])
    assert all(run["match_us"] == match for run in runs)


def test_fresh_process_stages_report_their_own_peak_not_the_harness(monkeypatch):
    # Linux carries ru_maxrss across fork and exec, so a child of a large
    # process read that process's size; a check of star(2) peaks far lower
    bench = load_bench(monkeypatch)
    held = b"x" * (120 << 20)  # written, so resident
    assert bench.check_run("star(2)")["peak_rss_mb"] < 60
    assert bench.child(bench.SUITE_CHILD)[3] < 60
    del held


def test_main_compiles_the_package_before_it_times_anything(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    calls = []
    for stage, row in FAKE_ROWS.items():
        stub = lambda *args, row=row, stage=stage: calls.append(stage) or row  # noqa: E731
        monkeypatch.setattr(bench, stage, stub)
    compile_package = bench.compile_package
    monkeypatch.setattr(bench, "compile_package", lambda p: calls.append(p) or compile_package(p))
    assert bench.main(["--label", "change", "--out", str(tmp_path / "bench.json")]) == 0
    assert calls[0] == Path(bench.pathcong.__file__).resolve().parent
    assert "import_seconds" in calls[1:]
