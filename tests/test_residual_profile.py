"""scripts/residual_profile.py: check residual against approach angle."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_row_per_angle_below_the_main_tolerance():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "residual_profile.py"),
                          "--angles", "1.0,0.1"], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    assert [float(row[0]) for row in rows] == [1.0, 0.1]
    assert all(float(row[1]) < 1e-8 for row in rows), rows
