"""Print one SHA-256 over the program's outputs on a fixed set of 211 quivers.

    PYTHONPATH=src python3 tools/output_digest.py

The quivers are ``random_suite(200, 3, max_arrows=5, max_elements=16)``,
Kronecker(2-6), star(2-6) and ``wide`` (3 arrows u -> v, 2 arrows v -> w).
For each, the digest covers the text of ``check``, ``ideals --json`` and
``lattice --json``, the ideal route's join table, and each ideal of that
closure's generator mask and the display of its generators in bit order.
Run it with ``PYTHONPATH`` at two trees' ``src`` to see whether a change
leaves these outputs as they were.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from pathcong import quiver_to_text, random_suite
from pathcong.cli import main as cli_main
from pathcong.ideals import ideal_route
from pathcong.semigroup import join_closure

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_lattice import quiver  # noqa: E402

COMMANDS = (["check"], ["ideals", "--json"], ["lattice", "--json"])


def quivers() -> list:
    named = [f"{family}({k})" for family in ("kronecker", "star") for k in range(2, 7)]
    return [*random_suite(200, 3, max_arrows=5, max_elements=16), *map(quiver, [*named, "wide"])]


def outputs(q, path: Path):
    """Each output of q as text, the CLI commands reading q from ``path``."""
    path.write_text(quiver_to_text(q))
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main([*command, str(path)])
        yield f"{command} exit {code}\n{out.getvalue()}"
    ideals, table = join_closure(ideal_route(q))
    yield repr(table)
    for ideal in ideals:
        yield f"{ideal.mask} {ideal.to_json_dict()['generators']}"


def main() -> int:
    digest = hashlib.sha256()
    suite = quivers()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.quiver"
        for q in suite:
            for text in outputs(q, path):
                digest.update(text.encode() + b"\0")
    print(f"{digest.hexdigest()}  {len(suite)} quivers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
