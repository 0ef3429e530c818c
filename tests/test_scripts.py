"""Smoke tests: each experiment script in scripts/ runs to exit code 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(script, args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("find_sharp_witnesses.py", []),
        ("run_gaussian_demo.py", ["--X", "100000"]),
        ("run_catalogue_sweep.py", ["--limit", "100000"]),
        ("run_gaussian_demo.py", ["--moduli", "7"]),
    ],
)
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gaussian_family_counts_indeterminate_triples():
    # a tau above the density of (7, 0) leaves every pole cell undecided
    proc = run_script("run_gaussian_demo.py", ["--moduli", "7", "--X", "20000", "--tau", "0.9"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "432 triples" in proc.stdout
    assert "360 agree, 0 disagree, 72 indeterminate" in proc.stdout
