import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathcong import check_theorems, parse_quiver
from pathcong.cli import EXIT_DOMAIN, main

SRC = Path(__file__).resolve().parent.parent / "src"

SINGLE = "vertices: 1 2\narrow alpha: 1 -> 2\n"
KRONECKER = "vertices: 1 2\narrow alpha: 1 -> 2\narrow beta: 1 -> 2\n"
TRIPLE = (
    "vertices: 1 2\n"
    "arrow alpha: 1 -> 2\narrow beta: 1 -> 2\narrow gamma: 1 -> 2\n"
)
LOOP = "vertices: v\narrow a: v -> v\n"
CHAIN6 = "vertices: 1 2 3 4 5 6\n" + "".join(
    f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, 6)
)


@pytest.fixture
def qfile(tmp_path):
    def write(text, name="q.quiver"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_validate(qfile, capsys):
    assert main(["validate", qfile(SINGLE)]) == 0
    out = capsys.readouterr().out
    assert "2 vertices" in out and "1 arrows" in out and "acyclic: yes" in out


def test_validate_bad_file(qfile, capsys):
    assert main(["validate", qfile("vertices: 1\narrow a: 1 -> 9\n")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.quiver")]) == 1
    assert "error" in capsys.readouterr().err


def test_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.quiver"
    path.write_bytes(b"vertices: 1 \xe9\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    path = tmp_path / "bom.quiver"
    path.write_bytes(KRONECKER.encode("utf-8-sig"))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 2 vertices, 2 arrows, acyclic: yes\n"


def test_lattice_dot_unwritable(qfile, tmp_path, capsys):
    dot_path = tmp_path / "missing" / "out.dot"
    assert main(["lattice", qfile(SINGLE), "--dot", str(dot_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {dot_path}: ")


def test_paths(qfile, capsys):
    assert main(["paths", qfile(SINGLE)]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "2", "alpha"]


def test_paths_rejects_cyclic(qfile, capsys):
    assert main(["paths", qfile(LOOP)]) == 1
    assert "acyclic" in capsys.readouterr().err


def test_congruences_text(qfile, capsys):
    assert main(["congruences", qfile(SINGLE)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "5 congruences"
    assert "{0,alpha} {1} {2}" in lines


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices: 0 1\narrow a: 0 -> 1\n", "line 1: invalid vertex identifier '0'"),
        (
            "vertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow a.b: 1 -> 3\n",
            "line 4: invalid arrow name 'a.b'",
        ),
    ],
    ids=["zero vertex", "dotted arrow"],
)
def test_names_that_collide_with_element_names_exit_1(qfile, capsys, text, message):
    # printed, 0 and the path a.b would read like the zero element and the arrow a.b
    assert main(["congruences", qfile(text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_congruences_json(qfile, capsys):
    assert main(["congruences", "--json", qfile(SINGLE)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["count"] == 5
    assert {"blocks": [["0", "alpha"], ["1"], ["2"]]} in blob["congruences"]


def test_congruences_cap(qfile, capsys):
    assert main(["congruences", qfile(CHAIN6)]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["congruences", "--max-elements", "25", qfile(CHAIN6)]) == 0


def test_ideals_json(qfile, capsys):
    assert main(["ideals", "--json", qfile(TRIPLE)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["count"] == 18
    assert {"generators": [], "basis": []} in blob["ideals"]


def test_ideals_text(qfile, capsys):
    assert main(["ideals", qfile(SINGLE)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "5 special ideals"
    assert "span{1, alpha}" in out


def test_lattice_summary(qfile, capsys):
    assert main(["lattice", qfile(KRONECKER)]) == 0
    out = capsys.readouterr().out
    assert "elements: 8" in out
    assert "covers: 10" in out
    assert "modular: yes" in out
    assert "distributive: no" in out


def test_lattice_dot(qfile, tmp_path, capsys):
    dot_path = tmp_path / "out.dot"
    assert main(["lattice", qfile(TRIPLE), "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.count("label=") == 18
    assert dot.count(" -> ") == 35


def test_lattice_json_deterministic(qfile, capsys):
    path = qfile(TRIPLE)
    assert main(["lattice", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["lattice", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    blob = json.loads(first)
    assert len(blob["elements"]) == 18
    assert len(blob["covers"]) == 35
    assert blob["properties"]["strong_upper_semimodular"] is True
    assert blob["properties"]["lower_semimodular"] is False


def test_check_ok(qfile, capsys):
    assert main(["check", qfile(KRONECKER)]) == 0
    out = capsys.readouterr().out
    assert "modular" in out and "✓" in out and "✗" in out
    assert "VIOLATION" not in out


def test_check_cyclic_is_domain_error(qfile, capsys):
    assert main(["check", qfile(LOOP)]) == 1


def test_random_check(capsys):
    assert main(["random-check", "--trials", "3", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.count("trial ") == 3
    assert "VIOLATION" not in out


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_json_outputs_are_deterministic(qfile, capsys):
    path = qfile(KRONECKER)
    outs = []
    for _ in range(2):
        assert main(["congruences", path, "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "args",
    [
        ["--vertices", "0"],
        ["--vertices", "-2"],
        ["--arrows", "-1"],
        ["--trials", "-1"],
        ["--max-elements", "0"],
        ["--max-elements", "-3"],
        ["--max-elements", "1"],
    ],
)
def test_random_check_rejects_bad_arguments(args, capsys):
    assert main(["random-check", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "must be at least" in captured.err


def test_max_elements_must_be_positive(qfile, capsys):
    for command in ("congruences", "ideals", "lattice", "check"):
        assert main([command, "--max-elements", "0", qfile(SINGLE)]) == 2
        assert "must be at least 1" in capsys.readouterr().err


def test_predict_text(qfile, capsys):
    assert main(["predict", qfile(TRIPLE)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "elements: 6",
        "max parallel paths: 3",
        "distributive: no",
        "modular: no",
        "strong_upper_semimodular: yes",
        "strong_lower_semimodular: no",
        "upper_semimodular: yes",
        "lower_semimodular: no",
        "all_rees: no",
    ]


def test_predict_json_agrees_with_check(qfile, capsys):
    assert main(["predict", "--json", qfile(KRONECKER)]) == 0
    blob = json.loads(capsys.readouterr().out)
    report = check_theorems(parse_quiver(KRONECKER))
    assert blob == {
        "elements": report.quiver_summary["elements"],
        "max_parallel_paths": report.quiver_summary["max_parallel_paths"],
        "predicted": report.computed,
    }


def test_predict_cyclic_is_domain_error(qfile, capsys):
    assert main(["predict", qfile(LOOP)]) == 1
    assert "acyclic" in capsys.readouterr().err


def test_predict_cyclic_names_the_predictions(qfile, capsys):
    # the semigroup's path counts refuse the loop; predict says what needed them
    assert main(["predict", qfile(LOOP)]) == 1
    assert capsys.readouterr() == ("", "error: property predictions require an acyclic quiver\n")


def test_reader_closing_early_ends_quietly():
    # like `pathcong random-check --trials 3000 | head -1`: the reader stops
    # after one line, and the next write finds the pipe closed
    cmd = [sys.executable, "-m", "pathcong.cli", "random-check", "--trials", "3000"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        assert proc.stdout.readline().startswith("trial 1: ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_DOMAIN
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert stderr == ""
