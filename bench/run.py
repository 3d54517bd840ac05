"""mplparity benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload main --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # the four workloads in turn

Run from anywhere; the program is imported from the ``src`` directory next to
this one, and a checkout without it is refused with exit code 2.

This process starts every measurement in a fresh single-threaded interpreter
(bench/worker.py), so caches start cold as they do for a CLI user:

  set-up   one untimed probe compiles bytecode, then SETUP_PROBES probes each
           time the import of the program and the workload's first call;
           ``setup_s`` is their median.
  batches  fresh interpreters run batches 0, 1, ... of the seeded item list
           until the timed loops add up to ``--seconds``.  Items are timed one
           by one; results are checked after each loop, outside the timing.
  sweep    on main and reg, the real ``sweep`` subcommand runs once, untimed.
           The sha256 of its canonical JSON and its summary are recorded, and
           each of its residuals must equal the benchmark's residual at the
           same point (batch 0 holds every sweep point).

End-to-end metrics (``--trace 0``), per workload:

  setup_s          import and first call in a fresh interpreter (median probe)
  items_per_s      items over the summed item times of the timed loops
  item_ms_p50/p90  percentiles of the item times
  peak_rss_mb      median over batch interpreters of each one's peak RSS
  pass_frac        1 - fail_frac: items that raised or failed a check, and
                   mismatched sweep records, over items attempted
  residual_digits  -log10 of the worst residual the checks measured

Every reported time is rescaled by the calibration slices run next to it
(see worker.py): raw time * CAL_REF_S / slice time, i.e. seconds on a
machine where a slice takes CAL_REF_S.  Raw figures and slice times are
kept in the record.

With ``--trace 1`` it instead runs TRACE_BATCHES batch pairs: each
batch once untraced and once traced.  It prints the per-layer metrics and the
tracing overhead.  The batch count is fixed, so every count repeats exactly
for a seed.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  A full record (environment, fingerprints, first failures) is
printed on the line before it and written to ``.bench_out/`` in the checkout.
Any failed item or mismatched sweep record makes the exit code 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_S

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
TRACE_BATCHES = 2
RUN_BUDGET_S = 170.0   # whole invocation, per workload

# end-to-end metrics: name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "residual_digits": "digits",
}


def sweep_args(workload: str, sizes: dict) -> list[str] | None:
    """The sweep whose canonical output is fingerprinted; its points all lie
    in batch 0 of the workload."""
    if workload not in ("main", "reg"):
        return None
    span = ["--depth-max", str(sizes["depth_max"]), "--weight-max", str(sizes["weight_max"])]
    if workload == "main":
        return ["--theorem", "main", *span, "--points", "1"]
    roots = ",".join(str(n) for n in sizes["roots"])
    return ["--theorem", "reg", "--region", f"roots:{roots}", *span]


CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """A child process failed outright; the run cannot report metrics."""


def _env() -> dict:
    return {**os.environ, **CHILD_ENV}


def _child(spec: dict, timeout: float) -> dict:
    """Run one worker interpreter and return its JSON result line."""
    argv = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=_env(),
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {spec['mode']} {spec['workload']}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(workload: str, timeout: float) -> dict:
    """Import plus first-call seconds of one fresh interpreter, with the mean
    calibration slice time around them."""
    return _child({"root": str(ROOT), "mode": "probe", "workload": workload}, timeout)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a nonempty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_at_start": _loadavg(),
            "git_commit": _git_commit()}


def _sweep_fingerprint(args: list[str], seed: int, batch0: dict, timeout: float) -> dict:
    """Run the real sweep once; hash it and hold its residuals against batch 0."""
    argv = [sys.executable, "-m", "mplparity.cli", "sweep", *args, "--seed", str(seed)]
    try:
        proc = subprocess.run(argv, capture_output=True, env=_env(),
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"sweep timed out: {args}")
    if proc.returncode not in (0, 1):
        raise BenchError(f"sweep exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    report = json.loads(proc.stdout)
    ours = {json.dumps(key): resid for key, resid in batch0["records"]}
    mismatches = []
    checked = 0
    for rec in report["records"]:
        if rec.get("status") == "skip":
            continue
        checked += 1
        key = json.dumps([rec["k"], rec["z"], rec["branch"]])
        if rec.get("status") != "pass":
            mismatches.append(f"sweep record {key} status {rec.get('status')}")
        elif ours.get(key) != rec["residual"]:
            mismatches.append(f"sweep record {key}: residual {rec['residual']!r}, "
                              f"benchmark {ours.get(key)!r}")
    return {"argv": argv[3:], "exit_code": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "summary": report["summary"], "records_checked": checked,
            "mismatches": mismatches}


def _ref_ms(batch: dict) -> list[float]:
    """Item times of a batch on the reference machine, each scaled by the
    calibration slices around it."""
    return [t * CAL_REF_S / c for t, c in zip(batch["item_ms"], batch["item_cal_s"])]


def _scale(batch: dict) -> float:
    """Factor taking the batch's summed times to the reference machine."""
    return sum(_ref_ms(batch)) / sum(batch["item_ms"])


def _rate(batches: list[dict]) -> float:
    """Items per reference second over the timed loops of the batches."""
    return sum(b["n"] for b in batches) / sum(sum(_ref_ms(b)) / 1e3 for b in batches)


def _batch_spec(workload, seed, batch, sizes, trace=False, span_path=None) -> dict:
    return {"root": str(ROOT), "mode": "batch", "workload": workload, "seed": seed,
            "batch": batch, "sizes": sizes, "trace": trace, "span_path": span_path}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    import spans

    deadline = time.monotonic() + RUN_BUDGET_S
    remaining = lambda: deadline - time.monotonic()  # noqa: E731
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "sizes": sizes, "env": environment()}
    batches: list[dict] = []
    if not trace:
        _probe(workload, remaining())   # compiles bytecode; not counted
        probes = [_probe(workload, remaining()) for _ in range(SETUP_PROBES)]
        record["setup_probes_raw_s"] = [p["setup_s"] for p in probes]
        setup = [p["setup_s"] * CAL_REF_S / p["cal_s"] for p in probes]
        # start another batch while that is expected to end nearer to
        # --seconds of timed loop than stopping now would
        measured = 0.0
        while not batches or (measured + 0.5 * measured / len(batches) < seconds
                              and remaining() > 0.25 * RUN_BUDGET_S):
            b = _child(_batch_spec(workload, seed, len(batches), sizes), remaining())
            batches.append(b)
            measured += b["loop_s"]
        timed = batches
    else:
        OUT.mkdir(exist_ok=True)
        timed, traced = [], []
        for b in range(TRACE_BATCHES):
            timed.append(_child(_batch_spec(workload, seed, b, sizes), remaining()))
            path = OUT / f"spans-{workload}-seed{seed}-batch{b}.csv"
            traced.append(_child(_batch_spec(workload, seed, b, sizes, True, str(path)),
                                 remaining()))
        batches = timed + traced

    # every time below is rescaled to the reference machine (see worker.py)
    item_ms = [x for b in timed for x in _ref_ms(b)]
    attempted = sum(b["n"] for b in batches)
    fails = [f for b in batches for f in b["fails"] if f]
    if not trace and sweep_args(workload, sizes):
        fp = _sweep_fingerprint(sweep_args(workload, sizes), seed, batches[0], remaining())
        record["sweep"] = fp
        fails += fp["mismatches"]
    failed = len(fails)
    notes = [n for b in batches for n in b["notes"]]
    record.update(batches=len(batches), items=attempted, failed=failed,
                  fail_frac=failed / attempted, first_failures=fails[:10],
                  rounding_floor_passes=len(notes), first_notes=notes[:10])

    if not trace:
        worst = max(b["worst_residual"] for b in batches)
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": _rate(timed),
            "item_ms_p50": percentile(item_ms, 0.5),
            "item_ms_p90": percentile(item_ms, 0.9),
            "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
            "pass_frac": 1.0 - min(failed, attempted) / attempted,
            "residual_digits": -math.log10(max(worst, 1e-300)),
        }
        record["worst_residual"] = worst
        record["raw_items_per_s"] = len(item_ms) / sum(b["loop_s"] for b in timed)
        record["raw_item_ms_p50"] = percentile([x for b in timed for x in b["item_ms"]], 0.5)
        record["cal_slice_s"] = [b["cal_s"] for b in timed]
        units = E2E_UNITS
    else:
        tallies: dict[str, float] = {}
        for b in traced:
            for k, v in b["layers"].items():
                tallies[k] = tallies.get(k, 0.0) + (v * _scale(b) if k.endswith("_s") else v)
        values = spans.layer_metrics(tallies)
        untraced, with_trace = _rate(timed), _rate(traced)
        values["trace.items_per_s_untraced"] = untraced
        values["trace.items_per_s_traced"] = with_trace
        values["trace.overhead_frac"] = untraced / with_trace - 1.0
        units = dict(spans.LAYER_METRICS)
        units.update({"trace.items_per_s_untraced": "1/s", "trace.items_per_s_traced": "1/s",
                      "trace.overhead_frac": "ratio"})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def _print_human(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{record['items']} items in {record['batches']} batches, "
          f"fail_frac={record['fail_frac']:.6g}")
    for name, m in record["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    for f in record["first_failures"]:
        print(f"#   FAIL {f}")


def run(names, seed: int, seconds: float, trace: bool, sizes: dict) -> int:
    """Measure each named workload, print its record and end with the result
    line; ``sizes`` maps workload name to batch sizes."""
    results = {}
    for name in names:
        try:
            result, record = run_workload(name, seed, seconds, trace, sizes[name])
        except BenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        (OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        _print_human(record)
        print(json.dumps({"record": record}))
        results[name] = result
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="main, reg, eval, selftest or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mplparity" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run(names, args.seed, args.seconds, bool(args.trace), workloads.FULL)


if __name__ == "__main__":
    sys.exit(main())
