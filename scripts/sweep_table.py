#!/usr/bin/env python3
"""Tabulate a sweep report per index.

    mplparity sweep --theorem main --out main.json && python3 scripts/sweep_table.py main.json
    mplparity sweep --theorem reg --region roots:2,4 | python3 scripts/sweep_table.py -

One row per index: the record count, the max and median residual over the
records that carry one, the max branch gap when the records carry one (a reg
sweep that runs both log(-1) branches), and the skip and error records by
status.  The identity should hold uniformly in the index, so a single index
standing out usually means a sampler or branch problem rather than an
evaluator one.  The table ends with the report's summary line.
"""

import argparse
import json
import sys
from collections import defaultdict


def _num(v) -> str:
    return f"{v:.3e}" if isinstance(v, float) else str(v)


def table(payload: dict) -> list[str]:
    rows = defaultdict(lambda: {"n": 0, "residuals": [], "gaps": [], "skip": 0, "error": 0})
    for rec in payload["records"]:
        row = rows[tuple(rec["k"])]
        row["n"] += 1
        if rec["status"] in ("skip", "error"):
            row[rec["status"]] += 1
            continue
        row["residuals"].append(rec["residual"])
        if "branch_gap" in rec:
            row["gaps"].append(rec["branch_gap"])
    with_gap = any(row["gaps"] for row in rows.values())
    head = f"{'index':<14} {'records':>7} {'max residual':>13} {'median':>10}"
    head += f" {'max branch gap':>14}" * with_gap + f" {'skip':>5} {'error':>5}"
    lines = [head]
    for k in sorted(rows, key=lambda t: (len(t), t)):
        row = rows[k]
        rs = sorted(row["residuals"])
        worst, median = (f"{rs[-1]:.3e}", f"{rs[len(rs) // 2]:.3e}") if rs else ("-", "-")
        line = f"{str(k):<14} {row['n']:>7} {worst:>13} {median:>10}"
        if with_gap:
            gap = f"{max(row['gaps']):.3e}" if row["gaps"] else "-"
            line += f" {gap:>14}"
        lines.append(line + f" {row['skip']:>5} {row['error']:>5}")
    summary = payload["summary"]
    lines.append("\nsummary: " + ", ".join(f"{key} {_num(summary[key])}" for key in summary))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", metavar="REPORT|-", help="sweep JSON report, or - for stdin")
    args = ap.parse_args(argv)
    if args.report == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.report) as fh:
            payload = json.load(fh)
    print("\n".join(table(payload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
