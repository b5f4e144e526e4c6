"""Smoke tests of the command-line scripts in scripts/, run as subprocesses."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("q,t", [("2", "0.5"), ("3", "300")])
def test_tabulate_kernels_script(q, t):
    proc = run_script("tabulate_kernels.py", "--q", q, "--t", t, "--radius", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["k", "sphere", "heat"]
    rows = [line.split() for line in lines[1:14]]
    assert [int(r[0]) for r in rows] == list(range(13))
    for row in rows:
        heat, stable, wave = (float(v) for v in row[2:])
        assert all(math.isfinite(v) and v > 0.0 for v in (heat, stable, wave))
        # the script's defaults are alpha = 1 and nu = 1/2, and T^(1/2) = P^1
        assert wave == pytest.approx(stable, rel=1e-9, abs=0.0)
    assert lines[-1].startswith("total mass within radius 12:")


def test_run_verification_script():
    proc = run_script("run_verification.py", "semigroup-law")
    assert proc.returncode == 0, proc.stderr
    assert "semigroup-law" in proc.stdout and "PASS" in proc.stdout
