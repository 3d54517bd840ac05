#!/usr/bin/env python3
"""Print the sha256 of the stdout of the seven canonical CLI runs.

Each run is one fresh interpreter with PYTHONHASHSEED=0, so the hashes are a
fingerprint of the program's output: a change that claims byte-identical
output must leave all seven lines unchanged.  One line per run: the hash, then
the command.

    python3 scripts/canonical_hashes.py                       # this checkout
    python3 scripts/canonical_hashes.py --src OTHER/src       # another checkout
    python3 scripts/canonical_hashes.py --against OTHER/src   # compare two

With --against, each line holds the hash of the --src checkout, then the hash
of OTHER.  For a run whose bytes differ, an indented line states the drift,
this checkout's figure first:

  sweep     the record count, the largest change of lhs and of rhs over the
            records, each as |delta| / max(1, |value|) with value the larger
            of the two sides, and the max residual of each checkout
  eval      the change of value, as for a sweep's sides, and of est_error,
            as |delta| / max(|a|, |b|)
  selftest  the invariants whose pass flag or case count differs

The exit status is 1 if a run exits with a code other than 0 or 1, or, with
--against, if the two checkouts print different bytes for any of the seven
runs; otherwise 0.
"""

import argparse
import hashlib
import json
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
    ["sweep", "--theorem", "reg", "--mode", "shuffle", "--region", "roots:2,4",
     "--depth-max", "3", "--weight-max", "4"],
    ["sweep", "--theorem", "hirose", "--depth-max", "4", "--weight-max", "7"],
    ["selftest"],
    ["eval", "k=2,1", "z=-1.5,2j"],
)


def run(src: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src.resolve()))
    return subprocess.run([sys.executable, "-m", "mplparity.cli", *argv],
                          env=env, capture_output=True)


def _rel_change(a: list[float], b: list[float]) -> float:
    za, zb = complex(*a), complex(*b)
    return abs(za - zb) / max(1.0, abs(za), abs(zb))


def sweep_drift(out: bytes, ref: bytes) -> str:
    """One line comparing two sweep reports record by record."""
    recs = json.loads(out)["records"]
    ref_recs = json.loads(ref)["records"]
    if len(recs) != len(ref_recs):
        return f"record counts differ: {len(recs)} vs {len(ref_recs)}"
    d_lhs = d_rhs = 0.0
    where = ("point", "k", "z", "branch", "mode")   # skip records carry no branch
    for r, q in zip(recs, ref_recs):
        if [r.get(f) for f in where] != [q.get(f) for f in where]:
            return f"record {r.get('point')} is at a different (point, k, z, branch, mode)"
        if "lhs" in r and "lhs" in q:
            d_lhs = max(d_lhs, _rel_change(r["lhs"], q["lhs"]))
            d_rhs = max(d_rhs, _rel_change(r["rhs"], q["rhs"]))
    res = max((r.get("residual", 0.0) for r in recs), default=0.0)
    ref_res = max((q.get("residual", 0.0) for q in ref_recs), default=0.0)
    return (f"{len(recs)} records, max rel change lhs {d_lhs:.3g} rhs {d_rhs:.3g}, "
            f"max residual {res:.3g} vs {ref_res:.3g}")


def eval_drift(out: bytes, ref: bytes) -> str:
    """One line comparing two eval reports."""
    rec, q = json.loads(out)["record"], json.loads(ref)["record"]
    a, b = rec["est_error"], q["est_error"]
    d_est = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    return (f"rel change value {_rel_change(rec['value'], q['value']):.3g}, "
            f"est_error {d_est:.3g} ({a:.3g} vs {b:.3g})")


def selftest_drift(out: bytes, ref: bytes) -> str:
    """One line naming the invariants whose pass flag or case count differs."""
    def table(report):
        return {f"{r['group']}/{r['invariant']}": (r["passed"], r["n_cases"])
                for r in json.loads(report)["records"]}
    got, want = table(out), table(ref)
    moved = [f"{name} passed {got.get(name, (None,))[0]} vs {want.get(name, (None,))[0]}, "
             f"cases {got.get(name, (None, 0))[1]} vs {want.get(name, (None, 0))[1]}"
             for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    return "invariants differing in pass flag or case count: " + ("; ".join(moved) or "none")


DRIFT = {"sweep": sweep_drift, "eval": eval_drift, "selftest": selftest_drift}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="directory holding the mplparity package (default: this checkout)")
    ap.add_argument("--against", type=Path, default=None,
                    help="a second package directory to hash and compare with --src")
    args = ap.parse_args()
    status = 0
    for argv in RUNS:
        procs = [run(args.src, argv)]
        if args.against is not None:
            procs.append(run(args.against, argv))
        digests = "  ".join(hashlib.sha256(p.stdout).hexdigest() for p in procs)
        codes = [p.returncode for p in procs]
        note = "" if all(c in (0, 1) for c in codes) else f"  (exit {'/'.join(map(str, codes))})"
        print(f"{digests}  mplparity {' '.join(argv)}{note}", flush=True)
        if note:
            status = 1
        elif len(procs) == 2 and procs[0].stdout != procs[1].stdout:
            status = 1
            print(f"    {DRIFT[argv[0]](procs[0].stdout, procs[1].stdout)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
