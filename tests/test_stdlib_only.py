"""``pathcong`` runs on the standard library alone.

A fresh interpreter imports the package and checks the Kronecker quiver;
every top-level module this loads must be ``pathcong`` or part of the
standard library.  numpy in particular is for the tests only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
before = set(sys.modules)
import pathcong
q = pathcong.parse_quiver(open(sys.argv[1], encoding="utf-8").read())
assert pathcong.check_theorems(q).ok
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - sys.stdlib_module_names)))
print("numpy" in sys.modules)
"""


def test_import_and_check_load_no_third_party_module():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    quiver = ROOT / "quivers" / "kronecker.quiver"
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(quiver)], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["pathcong", "False"]
