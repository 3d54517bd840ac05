#!/usr/bin/env python3
"""Count the panel-plan traffic of one benchmark batch.

    PYTHONPATH=src python3 scripts/plan_traffic.py reg
    PYTHONPATH=src python3 scripts/plan_traffic.py main --seed 0 --batch 3

Runs the items of one batch of a bench/workloads.py workload in this
interpreter, from empty caches, as a benchmark worker runs them, and prints how
many panel plans were built, how many kernel tables, and how many levels were
marched, each against the number of distinct keys among them, then the bytes
the plan store counts and its entries at the end of the batch, then the suffix
rows of split-point factors the identities read (parity.r_factors) against
those they computed.  A level keys on (plan key, prefix); every level holds
the interior panels, so the interior row counts them all, and the log final
row counts those that carry a log row, the levels from a word's first form at
1 on.  A count above its distinct keys is work done again: a plan, table or
level built anew after the plan store dropped it, or a plan admitted to the
store on a later word of its singularity set (its first word keeps nothing,
see evaluate._plan), with what its first word marched that a kept word
marches again.  A jet marches the word
of its value with a block end after every block, so its levels, block ends
included, are counted with those of the values.  Every identity reads one
suffix row per place of its index; a row read but not computed was found in
the rows memo, whose cache_info() gives both counts.

Like bench/spans.py, the counts come from outside the program: three methods
of evaluate._Plan are wrapped for the run and restored after it, and
bench/workloads.py is only imported.
"""

import argparse
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

from mplparity import evaluate, parity

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
ROWS = ("plans", "kernel tables", "interior levels", "log final levels")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def counting():
    """Yield {row: [key, ...]}, one key per plan, table or level built while
    the block runs: a plan's key, or a level's (plan key, prefix)."""
    built = {row: [] for row in ROWS}
    plan_cls = evaluate._Plan
    init, kernels, extend = plan_cls.__init__, plan_cls._kernels, plan_cls._extend

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built["plans"].append(self.key)

    def counted_kernels(self):
        if (self.key, "kernels") not in evaluate._STORE:
            built["kernel tables"].append(self.key)
        return kernels(self)

    def counted_extend(self, level, a, i, n, kern):
        keys = [(self.key, a[:j]) for j in range(i + 1, n + 1)]
        built["interior levels"] += keys
        # a log row from level i on, or from the first letter at 1 past it
        first = i if level[2] is not None else next(
            (j for j in range(i, n) if evaluate._at_one(a[j])), n)
        built["log final levels"] += keys[first - i:]
        return extend(self, level, a, i, n, kern)

    wrapped = {"__init__": counted_init, "_kernels": counted_kernels, "_extend": counted_extend}
    saved = {name: plan_cls.__dict__[name] for name in wrapped}
    for name, fn in wrapped.items():
        setattr(plan_cls, name, fn)
    try:
        yield built
    finally:
        for name, fn in saved.items():
            setattr(plan_cls, name, fn)


def traffic(workload: str, seed: int, batch: int, sizes: dict | None = None):
    """(items, failed items, {row: (built, distinct keys)}, (store bytes,
    store entries), (suffix rows read, suffix rows computed)) of one batch, at
    the benchmark's sizes unless sizes is given; the store as the batch left
    it."""
    wl = _workloads()
    items = wl.make_batch(workload, seed, batch, sizes or wl.FULL[workload])
    failed = 0
    evaluate.clear_caches()
    with counting() as built:
        for item in items:
            try:
                wl.run_item(workload, item)
            except Exception:   # a failed item is counted, as a benchmark worker counts it
                failed += 1
    store = evaluate._STORE.nbytes, len(evaluate._STORE)
    rows = parity._r_factors_cached.cache_info()
    evaluate.clear_caches()
    return (len(items), failed, {row: (len(keys), len(set(keys))) for row, keys in built.items()},
            store, (rows.hits + rows.misses, rows.misses))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=_workloads().WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batch", type=int, default=0)
    args = ap.parse_args(argv)
    n, failed, rows, (nbytes, entries), (read, computed) = traffic(args.workload, args.seed, args.batch)
    print(f"{args.workload} seed {args.seed} batch {args.batch}: {n} items, {failed} failed")
    print(f"{'':<16} {'built':>7} {'distinct':>9}")
    for row, (count, distinct) in rows.items():
        print(f"{row:<16} {count:>7} {distinct:>9}")
    print(f"store at the end: {nbytes} bytes in {entries} entries")
    print(f"suffix rows: {read} read, {computed} computed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
