"""Byte-for-byte CLI output on the shipped quivers.

The ``check`` and ``--json`` fixtures under ``tests/fixtures/cli`` were
captured from the all-``Fraction`` linear algebra; integer coefficients
must print exactly as integral ``Fraction``s did, in text and in JSON.
The plain-text listings and ``predict --json`` were captured before the
CLI took its block formatting from ``verify.congruence_label``.  The
``validate``, ``paths`` and ``predict`` text, the ``lattice --dot`` file
and the ``random-check`` run were captured before ``build_parser`` declared
the file commands from one table; so was the argument structure pinned in
``test_subcommand_arguments_are_pinned``.
"""

import argparse
from pathlib import Path

import pytest

from pathcong.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli"
QUIVERS = ("chain3", "kronecker", "single_arrow", "triple_arrow")
COMMANDS = {
    "check.txt": ["check"],
    "ideals.json": ["ideals", "--json"],
    "lattice.json": ["lattice", "--json"],
    "congruences.json": ["congruences", "--json"],
    "congruences.txt": ["congruences"],
    "ideals.txt": ["ideals"],
    "lattice.txt": ["lattice"],
    "predict.json": ["predict", "--json"],
    "validate.txt": ["validate"],
    "paths.txt": ["paths"],
    "predict.txt": ["predict"],
}


@pytest.mark.parametrize("suffix", sorted(COMMANDS))
@pytest.mark.parametrize("quiver", QUIVERS)
def test_cli_output_is_byte_identical(quiver, suffix, capsys):
    path = ROOT / "quivers" / f"{quiver}.quiver"
    assert main([*COMMANDS[suffix], str(path)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (FIXTURES / f"{quiver}.{suffix}").read_bytes()


@pytest.mark.parametrize("quiver", QUIVERS)
def test_lattice_dot_file_is_byte_identical(quiver, tmp_path, capsys):
    dot = tmp_path / "lattice.dot"
    assert main(["lattice", str(ROOT / "quivers" / f"{quiver}.quiver"), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == ""
    assert dot.read_bytes() == (FIXTURES / f"{quiver}.lattice.dot").read_bytes()


def test_random_check_output_is_byte_identical(capsys):
    assert main(["random-check", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (FIXTURES / "random-check.trials5-seed3.txt").read_bytes()


FILE = ((), "file", None, None, None, True)
JSON = (("--json",), "json", False, None, None, False)
MAX_ELEMENTS = (("--max-elements",), "max_elements", 20, None, None, False)
DOT = (("--dot",), "dot", None, "PATH", "write a DOT rendering to PATH", False)
# subcommand: (its help line, each argument's (option strings, dest,
# default, metavar, help, required)), in declaration order
ARGUMENTS = {
    "validate": ("parse a quiver file and report its shape", [FILE]),
    "paths": ("list all paths in canonical order", [FILE, MAX_ELEMENTS]),
    "congruences": ("enumerate all congruences", [FILE, JSON, MAX_ELEMENTS]),
    "ideals": ("enumerate all special ideals", [FILE, JSON, MAX_ELEMENTS]),
    "lattice": ("build the congruence lattice", [FILE, DOT, JSON, MAX_ELEMENTS]),
    "predict": ("predict lattice properties from path counts alone", [FILE, JSON]),
    "check": ("run the theorem-verification harness", [FILE, MAX_ELEMENTS]),
    "random-check": (
        "verify the theorems on random quivers",
        [
            (("--vertices",), "vertices", 4, None, None, False),
            (("--arrows",), "arrows", 5, None, None, False),
            (("--seed",), "seed", 0, None, None, False),
            (("--trials",), "trials", 10, None, None, False),
            MAX_ELEMENTS,
        ],
    ),
}


def test_subcommand_arguments_are_pinned():
    # the structure, not the --help text, whose wrapping depends on the
    # terminal width and the Python version
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        choice.dest: (
            choice.help,
            [
                (tuple(a.option_strings), a.dest, a.default, a.metavar, a.help, a.required)
                for a in sub.choices[choice.dest]._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for choice in sub._choices_actions
    }
    assert list(found) == list(ARGUMENTS)
    assert found == ARGUMENTS
