"""The README's Library example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "congruences: 8" in result.stdout
