"""The demos the README points to run to completion and agree with themselves."""

import os
import subprocess
import sys

import pytest

import fqtcount

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fqtcount.__file__)))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs_without_mismatch(name):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert "MISMATCH" not in out.stdout
