"""Every module parses as Python 3.10, the floor ``pyproject.toml`` promises."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:  # a SyntaxError names the file and line
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
