"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of each program module and rebinds the
name in every loaded ``mplparity`` module that holds it, because the modules
bind each other's functions with ``from .evaluate import ...``.  Each call
becomes a span (name, start, end, parent span, item id) kept in memory; the
spans are written out once, at the end of the batch, and reduced to the
per-layer metrics named ``<module>.<function>.<stat>``.

Self time of a span is its duration minus the durations of its direct child
spans.  Inclusive time counts only spans with no ancestor of the same name.
Nothing under ``src/`` is modified: only module attributes are rebound, in
the traced interpreter.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span, grouped by layer.  Small helpers
# called per term (logs, word constructors, residual) are left out: their
# spans would cost more than the work they time.
TRACED = (
    ("numcore", "bernoulli_factor"),
    ("numcore", "domain_check"),
    ("words", "stuffle"),
    ("words", "shuffle"),
    ("evaluate", "li"),
    ("evaluate", "li_series"),
    ("evaluate", "li_panels"),
    ("evaluate", "iterated_integral"),
    ("evaluate", "li_word"),
    ("evaluate", "li_star"),
    ("evaluate", "li_star_detail"),
    ("evaluate", "li_shift"),
    ("evaluate", "li_shift_blocks"),
    ("regularize", "reg_value"),
    ("regularize", "shuffle_poly"),
    ("regularize", "rho"),
    ("regularize", "rho_inv"),
    ("regularize", "decompose_shuffle"),
    ("regularize", "decompose_stuffle"),
    ("parity", "main_sides"),
    ("parity", "reg_sides"),
    ("parity", "mzv_sides"),
    ("parity", "r_factor"),
)

SELFTEST_GROUPS = ("wordalg", "rho", "oracle", "deriv", "probe")

# lru caches whose hit ratio is reported: metric prefix -> (module, attribute)
CACHES = {
    "evaluate.li": ("evaluate", "_li_cached"),
    "regularize.reg_value": ("regularize", "_reg_value_cached"),
    "words.stuffle": ("words", "_stuffle_words"),
    "words.shuffle": ("words", "_shuffle_words"),
}

# per-layer metric names and units, in report order
LAYER_METRICS = (
    [("evaluate.li_panels." + s, u) for s, u in (("calls", "count"), ("self_s", "s"), ("panels", "count"))]
    + [("evaluate.iterated_integral." + s, u) for s, u in (
        ("calls", "count"), ("self_s", "s"), ("final_panels", "count"), ("interior_panels", "count"))]
    + [("evaluate.li_series." + s, u) for s, u in (("calls", "count"), ("self_s", "s"), ("terms", "count"))]
    + [("evaluate.li." + s, u) for s, u in (("calls", "count"), ("hit_ratio", "ratio"), ("errors", "count"))]
    + [("evaluate.compute.unique_ratio", "ratio")]
    + [(f"evaluate.{f}.{s}", u)
       for f in ("li_word", "li_star", "li_star_detail", "li_shift", "li_shift_blocks")
       for s, u in (("calls", "count"), ("incl_s", "s"))]
    + [("regularize.reg_value.calls", "count"), ("regularize.reg_value.hit_ratio", "ratio")]
    + [(f"regularize.{f}.{s}", u)
       for f in ("shuffle_poly", "rho_inv", "rho", "decompose_shuffle", "decompose_stuffle")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"words.{f}.{s}", u)
       for f in ("stuffle", "shuffle")
       for s, u in (("calls", "count"), ("self_s", "s"), ("hit_ratio", "ratio"), ("terms_out", "count"))]
    + [(f"parity.{f}.incl_s", "s") for f in ("main_sides", "reg_sides", "mzv_sides")]
    + [("parity.assembly.self_s", "s"), ("parity.r_factor.calls", "count")]
    + [("numcore.bernoulli_factor.calls", "count"), ("numcore.domain_check.calls", "count")]
    + [(f"selftest.{g}.incl_s", "s") for g in SELFTEST_GROUPS]
)


def _work_of(name: str, result):
    """Work count of one call, or None: panels, series terms, product terms."""
    if name == "evaluate.li_series":
        return result.n_terms
    if name == "evaluate.li_panels":
        return result.n_panels
    if name == "evaluate.iterated_integral":
        return len(result[2].steps)
    if name in ("words.stuffle", "words.shuffle"):
        return len(result.terms)
    return None


def _compute_key(name: str, args):
    """Numeric identity of a computation: (route, k, z) or (word forms)."""
    if name in ("evaluate.li_series", "evaluate.li_panels"):
        k, z = args[0], args[1]
        return (name, k.parts, z.entries)
    if name == "evaluate.iterated_integral":
        return (name, tuple(complex(f) for f in args[0]))
    return None


class Tracer:
    """Records spans of wrapped calls; one tracer per traced interpreter."""

    def __init__(self) -> None:
        # span: [name, start, end, parent, item, work, key, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None,
                    _compute_key(name, args), False]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _work_of(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function and each selftest check group."""
        pkg = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "mplparity" or n.startswith("mplparity."))}
        for mod_name, fn_name in TRACED:
            orig = getattr(pkg[f"mplparity.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in pkg.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        st = pkg["mplparity.selftest"]
        st.CHECKS = tuple((group, inv, module, self.wrap(f"selftest.{group}", fn))
                          for group, inv, module, fn in st.CHECKS)

    def write(self, path) -> None:
        """Write spans as CSV: id, name, start, end, parent, item."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,item\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]}\n")

    def summary(self) -> dict:
        """Additive per-layer tallies of this tracer's spans.

        Values are sums (or numerator/denominator pairs for ratios) so that
        summaries of several batches can be added before ratios are formed."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        keys: set = set()
        n_keys = 0
        for sid, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - child_time[sid]
            if not _has_ancestor(spans, sid, name):
                out[name + ".incl_s"] += dur
            if s[7]:
                out[name + ".errors"] += 1
            if s[5] is not None:
                out[name + ".work"] += s[5]
                if name == "evaluate.iterated_integral" and s[5]:
                    out[name + ".final"] += 1
            if s[6] is not None and not (
                    name == "evaluate.iterated_integral" and s[3] >= 0
                    and spans[s[3]][0] == "evaluate.li_panels"):
                keys.add(s[6])
                n_keys += 1
            if name.startswith("parity."):
                out["parity.assembly.self_s"] += dur - child_time[sid]
        out["compute.unique"] = len(keys)
        out["compute.total"] = n_keys
        return dict(out)


def _has_ancestor(spans, sid: int, name: str) -> bool:
    p = spans[sid][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def cache_tallies() -> dict:
    """Hits and misses of each reported lru cache since the interpreter began.

    A cache that no longer exists under its name reports zero calls, so its
    hit ratio reads 0 until the benchmark is updated to the new cache."""
    out = {}
    for prefix, (mod_name, attr) in CACHES.items():
        fn = getattr(sys.modules.get(f"mplparity.{mod_name}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[prefix + ".hits"] = info.hits if info else 0
        out[prefix + ".misses"] = info.misses if info else 0
    return out


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics from tallies summed over the traced batches."""
    def get(key):
        return t.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, _unit in LAYER_METRICS:
        layer, fn, stat = name.split(".")
        base = f"{layer}.{fn}"
        if name == "evaluate.compute.unique_ratio":
            m[name] = ratio(get("compute.unique"), get("compute.total"))
        elif stat == "hit_ratio":
            hits = get(base + ".hits")
            m[name] = ratio(hits, hits + get(base + ".misses"))
        elif stat in ("panels", "terms", "terms_out"):
            m[name] = get(base + ".work")
        elif stat == "final_panels":
            m[name] = get(base + ".final")
        elif stat == "interior_panels":
            m[name] = get(base + ".work") - get(base + ".final")
        else:
            m[name] = get(name)
    return m
