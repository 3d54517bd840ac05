"""The traced benchmark reads the package by module and attribute name.

bench/spans.py looks each lru cache up with getattr and reports zero calls for
a name that no longer resolves, so a renamed cache would read as a 0 hit
ratio without an error; a traced function that no longer resolves stops the
traced run.  These tests pin the names to the package, and run the traced
main_sides path, whose span keys read every integral's forms as complex."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_cache_names_resolve():
    spans = _spans_module()
    assert spans.CACHES
    for prefix, (mod_name, attr) in spans.CACHES.items():
        module = importlib.import_module(f"mplparity.{mod_name}")
        cached = getattr(module, attr, None)
        assert callable(getattr(cached, "cache_info", None)), (prefix, mod_name, attr)


def test_traced_names_resolve():
    # install() looks every traced function up with a bare getattr
    spans = _spans_module()
    for mod_name, fn_name in spans.TRACED:
        module = importlib.import_module(f"mplparity.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


# Runs in its own interpreter: install() rebinds module attributes for good.
TRACED_RUN = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
from mplparity import parity, selftest
from mplparity.words import ArgVector, Index
import spans

tracer = spans.Tracer()
tracer.install()
for parts, args in (((1, 2, 1), (-1.3 + 0.7j, 0.9 - 1.1j, -0.6 - 1.7j)), ((1,), (-2,))):
    parity.main_sides(Index(parts), ArgVector.of(args))
keys = [s[6] for s in tracer.spans if s[0] == "evaluate.iterated_integral"]
print(json.dumps({
    "failed": [s[0] for s in tracer.spans if s[7]],
    "star_spans": sum(s[0] == "evaluate.li_star_detail" for s in tracer.spans),
    "keys": len(keys),
    "flat": all(type(k) is tuple and all(type(f) is complex for f in k[1]) for k in keys),
}))
"""


def test_traced_main_sides_runs_clean():
    root = SPANS.parent.parent
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root / "src"), str(SPANS.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["failed"] == [] and got["star_spans"] == 2
    assert got["keys"] > 0 and got["flat"]
