"""The CLI run as a module, the way README documents it: a new interpreter
with the source tree on its path."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args):
    # the source tree first, then the caller's path, where click may live
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "gradedorders.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_enumerate_through_the_module_entry():
    result = run_module("enumerate", "--d", "2", "--k", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0,0", "1,0", "0,1"]


def test_usage_error_through_the_module_entry():
    result = run_module("enumerate", "--d", "0", "--k", "1")
    assert result.returncode == 2
    assert "Error: --d must be >= 1, got 0" in result.stderr
