"""scripts/plan_traffic.py: panel-plan traffic of one benchmark batch."""

import importlib.util
from pathlib import Path

from mplparity import evaluate, parity

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "plan_traffic.py"
_spec = importlib.util.spec_from_file_location("plan_traffic", _PATH)
plan_traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_traffic)

# a reg batch of depth <= 2, weight <= 2 over roots:2 and the hirose indices of
# depth <= 2, weight <= 3: a few dozen items, forms at 1 and reused plans
TINY_REG = {"roots": (2,), "depth_max": 2, "weight_max": 2,
            "mzv_depth_max": 2, "mzv_weight_max": 3}
# a main batch of depth <= 2, weight <= 3: a dozen items, some of whose
# shifted families are panel jets
TINY_MAIN = {"depth_max": 2, "weight_max": 3, "per_index": 2}


def test_tiny_reg_batch_counts():
    methods = dict(vars(evaluate._Plan))
    workloads = plan_traffic._workloads()
    items = workloads.make_batch("reg", 0, 0, TINY_REG)
    evaluate.clear_caches()
    with plan_traffic.counting() as built:
        for item in items:
            workloads.run_item("reg", item)
    layouts = [value for key, (value, _) in evaluate._STORE.items() if key[1] == "layout"]
    admitted = {plan.key for plan in layouts if plan is not evaluate._SEEN}
    store = evaluate._STORE.nbytes, len(evaluate._STORE)
    rows_memo = parity._r_factors_cached.cache_info()
    evaluate.clear_caches()
    # each item reads one suffix row per place of its index, and rows recur
    # (both branches of a point, suffixes shared by indices)
    read = sum(len(item["k"]) for item in items)
    assert rows_memo.hits + rows_memo.misses == read
    assert 0 < rows_memo.misses == rows_memo.currsize < read
    assert admitted and len(admitted) < len(layouts)   # sets read again, and sets read once
    # everything fits in the store, so a plan and its kernel table are built
    # twice only when a later word admits the plan, and a level only when an
    # admitted plan's kept word marches what its first word marched
    for row, keys in built.items():
        again = {key for key in keys if keys.count(key) > 1}
        assert all(keys.count(key) == 2 for key in again), row
        if row in ("plans", "kernel tables"):
            assert again == admitted, row
        else:
            assert {key[0] for key in again} <= admitted, row
    # a level carries a log row exactly when its prefix holds a letter at 1
    logs = built["log final levels"]
    assert logs and logs == [key for key in built["interior levels"]
                             if any(map(evaluate._at_one, key[1]))]
    n, failed, rows, end, suffix = plan_traffic.traffic("reg", 0, 0, TINY_REG)
    assert (n, failed) == (len(items), 0) and end == store
    assert suffix == (read, rows_memo.misses)
    assert list(rows) == list(plan_traffic.ROWS)
    for row, keys in built.items():
        assert rows[row] == (len(keys), len(set(keys))) and keys, row
    assert rows["plans"][0] - rows["plans"][1] == len(admitted)
    # the wrappers are gone and the run left the caches empty
    assert dict(vars(evaluate._Plan)) == methods
    assert not evaluate._STORE


def test_tiny_main_batch_counts_jet_levels():
    workloads = plan_traffic._workloads()
    items = workloads.make_batch("main", 0, 0, TINY_MAIN)
    evaluate.clear_caches()
    with plan_traffic.counting() as built:
        for item in items:
            workloads.run_item("main", item)
    evaluate.clear_caches()
    levels = built["interior levels"]
    jets = [key for key in levels if any(type(s) is evaluate._BlockEnd for s in key[1])]
    assert jets and len(jets) < len(levels)   # jet levels, counted with the values'
    n, failed, rows, _, _ = plan_traffic.traffic("main", 0, 0, TINY_MAIN)
    assert (n, failed) == (len(items), 0)
    assert rows["interior levels"] == (len(levels), len(set(levels)))


def test_main_prints_one_line_per_row(monkeypatch, capsys):
    workloads = plan_traffic._workloads()
    monkeypatch.setitem(workloads.FULL, "main", {"depth_max": 1, "weight_max": 2, "per_index": 1})
    monkeypatch.setattr(plan_traffic, "_workloads", lambda: workloads)
    assert plan_traffic.main(["main", "--seed", "3", "--batch", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "main seed 3 batch 1: 2 items, 0 failed"
    assert lines[1].split() == ["built", "distinct"]
    assert [line[:16].strip() for line in lines[2:-2]] == list(plan_traffic.ROWS)
    built, distinct = map(int, lines[2].split()[1:])
    assert built == distinct == 2   # one plan per main item of depth 1
    # two plans read once: their markers, counted as plans of no panels
    nbytes = 2 * evaluate._layout_bytes(0)
    assert lines[-2] == f"store at the end: {nbytes} bytes in 2 entries"
    # two indices of depth 1, one suffix row each
    assert lines[-1] == "suffix rows: 2 read, 2 computed"
