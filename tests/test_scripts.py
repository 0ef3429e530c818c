"""Smoke tests: each experiment script in scripts/ runs to exit code 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("find_sharp_witnesses.py", []),
        ("run_gaussian_demo.py", ["--X", "100000"]),
        ("run_catalogue_sweep.py", ["--limit", "100000"]),
    ],
)
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
