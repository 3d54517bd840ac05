"""scripts/gc_share.py: item time and cyclic collections of one benchmark batch."""

import gc
import importlib.util
from pathlib import Path

from mplparity import selftest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "gc_share.py"
_spec = importlib.util.spec_from_file_location("gc_share", _PATH)
gc_share = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gc_share)

# one selftest seed: one item per invariant group
TINY_SELFTEST = {"per_batch": 1, "pool": 1}
TINY_EVAL = {"per_cell": 1, "route_checks": 0}


def test_collections_are_counted_and_the_hook_removed():
    hooks = list(gc.callbacks)
    with gc_share.collections_timed() as stats:
        gc.collect()
        gc.collect(0)
    assert gc.callbacks == hooks
    assert stats["counts"][2] >= 1 and stats["counts"][0] >= 1
    assert stats["seconds"] > 0
    counted = list(stats["counts"])
    gc.collect()
    assert stats["counts"] == counted   # nothing is counted after the block


def test_tiny_batches():
    n, failed, rows, stats = gc_share.share("selftest", 0, 0, TINY_SELFTEST)
    assert (n, failed) == (len(selftest.GROUPS), 0)
    assert list(rows) == list(selftest.GROUPS) and all(t > 0 for t in rows.values())
    assert 0 <= stats["seconds"] <= sum(rows.values()) and min(stats["counts"]) >= 0
    n, failed, rows, _ = gc_share.share("eval", 0, 0, TINY_EVAL)
    assert n > 0 and failed == 0 and list(rows) == ["items"]


def test_main_prints_the_share(capsys, monkeypatch):
    monkeypatch.setattr(gc_share, "share", lambda *args: (5, 0, {"wordalg": 0.3, "rho": 0.1},
                                                          {"seconds": 0.02, "counts": [7, 1, 0]}))
    assert gc_share.main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "selftest seed 0 batch 0: 5 items, 0 failed"
    assert out[-2].split() == ["total", "0.400", "s"]
    assert out[-1] == ("cyclic collections: 0.020 s, 5.0% of item time; "
                       "8 collections (gen0 7, gen1 1, gen2 0)")
