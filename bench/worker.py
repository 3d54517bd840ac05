"""One fresh benchmark interpreter: a set-up probe or one batch of items.

    python3 bench/worker.py '<json spec>'

The spec names the checkout root, the workload and the mode.  A probe times
the import of the program (numpy included) and the workload's first call.
A batch generates its items, times each one, checks the results after the
loop and prints one JSON line.  With ``trace`` set, the spans of the timed
loop are recorded, written to ``span_path`` and summed into per-layer
tallies.

Calibration.  Small shared machines change CPU speed by tens of percent, in
phases from under a second to minutes, which swamps the differences the
benchmark exists to show.  So the worker interleaves calibration slices (a
fixed pure-Python loop of about a millisecond) with the work: one before the
first item, then one after every CAL_EVERY_S of item time, and one at the
end.  Each item time is reported with the mean of the two slices around it,
and run.py rescales it to a machine on which a slice takes CAL_REF_S.  Slices
are never inside a timed interval.  On a shared 2-vCPU VM, twelve runs of one
identical main batch gave a p90 item-time spread (quartile distance over
median) of 0.37 raw, 0.14 with one scale per batch and 0.02 with one scale
per item.  A probe runs CAL_PROBE_SLICES slices before its imports and after
its first call; process start-up is left out of set-up time, because
spawning does not scale with the slices (probe spreads of 0.2 remained after
rescaling).
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


CAL_REF_S = 1.0e-3      # slice time on the reference machine
CAL_EVERY_S = 0.02      # item time between slices
CAL_PROBE_SLICES = 10


def _cal_kernel(n: int = 3000) -> complex:
    acc, seen = 0j, {}
    for i in range(n):
        z = complex(i, 1.0) * 0.5
        acc += z * z / (1 + abs(z))
        seen[i & 255] = (acc, i)
    return acc


def cal_slice() -> float:
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    _cal_kernel()
    return time.perf_counter() - t0


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import mplparity

    if Path(mplparity.__file__).resolve().parent != (src / "mplparity").resolve():
        raise SystemExit(f"imported mplparity from {mplparity.__file__}, not from {src}")
    import workloads

    return workloads


def _record_key(item: dict) -> list:
    # sweep reports write arguments with signed zeros collapsed
    return [list(item["k"]), [[w.real + 0.0, w.imag + 0.0] for w in item["z"]],
            item.get("branch", 1)]


def run_batch(spec: dict, wl) -> dict:
    workload, seed, batch = spec["workload"], spec["seed"], spec["batch"]
    items = wl.make_batch(workload, seed, batch, spec["sizes"])
    tracer = None
    if spec.get("trace"):
        from spans import Tracer, cache_tallies

        tracer = Tracer()
        tracer.install()
    results, item_ms, cal, cal_before = [], [], [], []
    clock = time.perf_counter
    since_cal = CAL_EVERY_S
    for i, item in enumerate(items):
        if since_cal >= CAL_EVERY_S:
            cal.append(cal_slice())
            since_cal = 0.0
        cal_before.append(len(cal) - 1)
        if tracer:
            tracer.item = i
        t0 = clock()
        try:
            res = wl.run_item(workload, item)
        except Exception as e:  # a failed item is counted, not fatal
            res = e
        dt = clock() - t0
        since_cal += dt
        item_ms.append(dt * 1e3)
        results.append(res)
    cal.append(cal_slice())
    # each item is scaled by the mean of the two slices around it
    item_cal = [(cal[j] + cal[j + 1]) / 2 for j in cal_before]
    out = {"n": len(items), "loop_s": sum(item_ms) / 1e3, "item_ms": item_ms,
           "item_cal_s": item_cal, "cal_s": sum(cal) / len(cal)}
    if tracer:
        # tallied before the checks run, so check calls leave no spans in them
        out["layers"] = {**tracer.summary(), **cache_tallies()}
        if spec.get("span_path"):
            tracer.write(spec["span_path"])
    fails, worst, notes = wl.check_batch(workload, seed, batch, items, results)
    out["fails"] = fails
    out["notes"] = notes
    out["worst_residual"] = worst
    if workload in ("main", "reg"):
        out["records"] = [[_record_key(it), res.residual] for it, res in zip(items, results)
                          if not isinstance(res, BaseException) and it.get("theorem", "main") != "hirose"]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "probe":
        cal = [cal_slice() for _ in range(CAL_PROBE_SLICES)]
        t0 = time.perf_counter()
        wl = _import_program(Path(spec["root"]))
        wl.first_call(spec["workload"])
        setup_s = time.perf_counter() - t0
        cal += [cal_slice() for _ in range(CAL_PROBE_SLICES)]
        print(json.dumps({"setup_s": setup_s, "cal_s": sum(cal) / len(cal)}), flush=True)
        return
    wl = _import_program(Path(spec["root"]))
    print(json.dumps(run_batch(spec, wl)), flush=True)


if __name__ == "__main__":
    main()
