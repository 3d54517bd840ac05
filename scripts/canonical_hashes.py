#!/usr/bin/env python3
"""Print the sha256 of the stdout of the six canonical CLI runs.

Each run is one fresh interpreter with PYTHONHASHSEED=0, so the hashes are a
fingerprint of the program's output: a change that claims byte-identical
output must leave all six lines unchanged.  One line per run: the hash, then
the command.

    python3 scripts/canonical_hashes.py                 # this checkout
    python3 scripts/canonical_hashes.py --src OTHER/src # another checkout
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUNS = (
    ["sweep", "--theorem", "main", "--depth-max", "2", "--weight-max", "4",
     "--points", "20", "--seed", "0"],
    ["sweep", "--theorem", "main", "--depth-max", "4", "--weight-max", "6", "--points", "1"],
    ["sweep", "--theorem", "reg", "--region", "roots:2,4", "--depth-max", "3",
     "--weight-max", "4"],
    ["sweep", "--theorem", "hirose", "--depth-max", "4", "--weight-max", "7"],
    ["selftest"],
    ["eval", "k=2,1", "z=-1.5,2j"],
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="directory holding the mplparity package (default: this checkout)")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(args.src.resolve()))
    status = 0
    for argv in RUNS:
        cmd = [sys.executable, "-m", "mplparity.cli", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        note = "" if proc.returncode in (0, 1) else f"  (exit {proc.returncode})"
        print(f"{digest}  mplparity {' '.join(argv)}{note}", flush=True)
        if proc.returncode not in (0, 1):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
