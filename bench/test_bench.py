"""Tests of the benchmark itself: its checker must count known-bad results as
failures, and a small run must print every metric BENCHMARK.json declares,
with its unit.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from mplparity import numcore, parity, selftest  # noqa: E402
from mplparity.words import ArgVector, Index  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# small batches of the same shape as workloads.FULL
TINY = {
    "main": {"depth_max": 2, "weight_max": 3, "per_index": 1},
    "reg": {"roots": (2,), "depth_max": 2, "weight_max": 2,
            "mzv_depth_max": 2, "mzv_weight_max": 3},
    "eval": {"per_cell": 2, "route_checks": 2},
    "selftest": {"per_batch": 1, "pool": 2},
}


def _corrupted_zeta(k: int) -> float:
    return numcore.zeta(k) + (0.25 if k == 2 else 0.0)


def test_corrupted_zeta_selftest_is_a_failure():
    results = selftest.run_selftest(seed=0, zeta_fn=_corrupted_zeta)
    assert workloads.check_selftest(results)
    item = {"seed": 0, "group": "rho"}
    fails, _worst, _notes = workloads.check_batch("selftest", 0, 0, [item], [results])
    assert fails[0] is not None


def test_clean_selftest_passes():
    results = selftest.run_selftest(only=("rho",), seed=0)
    assert workloads.check_selftest(results) == []


@pytest.mark.parametrize("workload,theorem_tol", [("main", workloads.MAIN_TOL),
                                                  ("reg", workloads.REG_TOL)])
def test_residual_above_tolerance_is_a_failure(workload, theorem_tol):
    rep = parity.main_sides(Index((2,)), ArgVector.of((-2,)))
    assert workloads.check_record(rep, theorem_tol)[1] is None
    shifted = dataclasses.replace(rep, rhs=rep.rhs + 10 * theorem_tol * max(1.0, abs(rep.rhs)))
    # the residual is recomputed from the sides, so a stale field cannot hide it
    assert workloads.check_record(shifted, theorem_tol)[1] is not None
    item = {"k": (2,), "z": (-2 + 0j,)}
    fails, worst, _notes = workloads.check_batch(workload, 0, 0, [item, item], [rep, shifted])
    assert fails[0] is None and fails[1] is not None
    assert worst >= theorem_tol


def test_raised_item_is_a_failure():
    fails, _worst, _notes = workloads.check_batch(
        "eval", 0, 0, [{"k": (1,), "z": (2 + 0j,)}], [numcore.DomainError("x")])
    assert fails == ["DomainError: x"]


def test_batches_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.make_batch(name, 3, 1, TINY[name]) == \
            workloads.make_batch(name, 3, 1, TINY[name])
    for name in ("main", "eval"):
        assert workloads.make_batch(name, 3, 1, TINY[name]) != \
            workloads.make_batch(name, 4, 1, TINY[name])


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,declared", [(False, "end_to_end"), (True, "per_layer")])
def test_small_run_prints_every_declared_metric(capsys, trace, declared):
    want = {m["name"]: m["unit"] for m in SPEC[declared]}
    for name in workloads.WORKLOADS:
        code = run.run((name,), 0, 0.01, trace, TINY)
        result = _last_json(capsys.readouterr().out)
        assert code == 0, result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, name
        if not trace:
            assert all(v["value"] != 0 for v in result["metrics"].values()), name


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "main", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
