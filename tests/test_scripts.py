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


def test_gaussian_family_without_triples_fails():
    # neither modulus has a non-invariant ideal character: not a vacuous pass
    proc = run_script("run_gaussian_demo.py", ["--moduli", "3", "5", "--X", "20000"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "modulus (3, 0) has no non-invariant ideal character" in proc.stdout
    assert "modulus (5, 0) has no non-invariant ideal character" in proc.stdout
    assert "agree on every triple" not in proc.stdout


@pytest.mark.parametrize("m", [8, 1])
def test_gaussian_family_refuses_unsupported_modulus(m):
    proc = run_script("run_gaussian_demo.py", ["--moduli", "7", str(m), "--X", "20000"])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"modulus ({m}, 0) is not supported: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # refused before any family is checked
