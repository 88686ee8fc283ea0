"""Byte-for-byte CLI output on the shipped quivers.

The ``check`` and ``--json`` fixtures under ``tests/fixtures/cli`` were
captured from the all-``Fraction`` linear algebra; integer coefficients
must print exactly as integral ``Fraction``s did, in text and in JSON.
The plain-text listings and ``predict --json`` were captured before the
CLI took its block formatting from ``verify.congruence_label``.
"""

from pathlib import Path

import pytest

from pathcong.cli import main

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
}


@pytest.mark.parametrize("suffix", sorted(COMMANDS))
@pytest.mark.parametrize("quiver", QUIVERS)
def test_cli_output_is_byte_identical(quiver, suffix, capsys):
    path = ROOT / "quivers" / f"{quiver}.quiver"
    assert main([*COMMANDS[suffix], str(path)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (FIXTURES / f"{quiver}.{suffix}").read_bytes()
