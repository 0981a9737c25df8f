"""Smoke runs of the command-line scripts in scripts/ at small sizes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("gauss_fuzz.py", ["--count", "20"]),
    ("lattice_demo.py", ["--n", "4", "--r", "4"]),
    ("long_time_scaling.py", ["--doublings", "1"]),
    ("short_time_sweep.py", ["--r", "2,4", "--bits", "6"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[name for name, _ in CASES])
def test_script_runs(script, args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
