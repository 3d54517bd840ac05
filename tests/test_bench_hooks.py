"""The traced benchmark reads cache statistics by module and attribute name.

bench/spans.py looks each lru cache up with getattr and reports zero calls for
a name that no longer resolves, so a renamed cache would read as a 0 hit
ratio without an error.  This test pins the names to the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_cache_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.CACHES
    for prefix, (mod_name, attr) in spans.CACHES.items():
        module = importlib.import_module(f"mplparity.{mod_name}")
        cached = getattr(module, attr, None)
        assert callable(getattr(cached, "cache_info", None)), (prefix, mod_name, attr)
