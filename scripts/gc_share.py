#!/usr/bin/env python3
"""Time one benchmark batch and the cyclic garbage collections inside it.

    PYTHONPATH=src python3 scripts/gc_share.py selftest
    PYTHONPATH=src python3 scripts/gc_share.py reg --seed 0 --batch 3

Runs the items of one batch of a bench/workloads.py workload in this
interpreter, from empty caches, as a benchmark worker runs them, and prints
the item time, per invariant group on selftest and in total on the other
workloads, then the time the cyclic garbage collector ran while the items ran,
as seconds and as a share of the item time, and the number of collections of
each generation.  The collections are timed by a ``gc.callbacks`` hook that is
installed for the batch and removed after it; the collector's own settings
are left as they are.  Times are wall-clock seconds of this interpreter.
"""

import argparse
import gc
import importlib.util
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from mplparity import evaluate

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def collections_timed():
    """Yield {"seconds": s, "counts": [gen0, gen1, gen2]}, filled with the
    time and number of the cyclic collections that run while the block runs."""
    stats = {"seconds": 0.0, "counts": [0, 0, 0]}
    clock, started = time.perf_counter, [0.0]

    def hook(phase, info):
        if phase == "start":
            stats["counts"][info["generation"]] += 1
            started[0] = clock()
        else:
            stats["seconds"] += clock() - started[0]

    gc.callbacks.append(hook)
    try:
        yield stats
    finally:
        gc.callbacks.remove(hook)


def share(workload: str, seed: int, batch: int, sizes: dict | None = None):
    """(items, failed items, {row: item seconds}, collection stats) of one
    batch, at the benchmark's sizes unless sizes is given; a row is an
    invariant group on selftest and "items" otherwise."""
    wl = _workloads()
    items = wl.make_batch(workload, seed, batch, sizes or wl.FULL[workload])
    rows: dict[str, float] = {}
    failed = 0
    clock = time.perf_counter
    evaluate.clear_caches()
    with collections_timed() as stats:
        for item in items:
            row = item["group"] if workload == "selftest" else "items"
            t0 = clock()
            try:
                wl.run_item(workload, item)
            except Exception:   # a failed item is counted, as a benchmark worker counts it
                failed += 1
            rows[row] = rows.get(row, 0.0) + clock() - t0
    evaluate.clear_caches()
    return len(items), failed, rows, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=_workloads().WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batch", type=int, default=0)
    args = ap.parse_args(argv)
    n, failed, rows, stats = share(args.workload, args.seed, args.batch)
    total = sum(rows.values())
    print(f"{args.workload} seed {args.seed} batch {args.batch}: {n} items, {failed} failed")
    for row, seconds in rows.items():
        print(f"{row:<10} {seconds:8.3f} s")
    if len(rows) > 1:
        print(f"{'total':<10} {total:8.3f} s")
    gen0, gen1, gen2 = stats["counts"]
    print(f"cyclic collections: {stats['seconds']:.3f} s, {stats['seconds'] / total:.1%} of item time; "
          f"{gen0 + gen1 + gen2} collections (gen0 {gen0}, gen1 {gen1}, gen2 {gen2})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
