"""Benchmark workloads: seeded input generation, one item runner per workload,
and the correctness checks applied to a batch after its timed loop.

An item is one ``*_sides`` call (main, reg), one ``li`` call (eval) or one
``run_selftest`` call for one invariant group (selftest).  A batch is the
list of items one fresh interpreter runs; batch ``b`` of seed ``s`` is
always the same list.

Why these four workloads (each stresses a different layer):

  main      the headline theorem; time goes to interior-panel marching, with
            the series route on the 1/z side, and values are reused heavily
            inside one item.
  reg       forms at 1 make the log-enhanced final panel dominate; exercises
            the regularize layer, and both branches recompute every value
            today, so a cache-key fix shows here and nowhere else.
  eval      independent library calls with no reuse in three tail-modulus
            bands; isolates the cost of one call and predicts no change from
            cache or march-sharing work.
  selftest  word algebra does almost all the work and panels almost none.

This module imports the program; callers put its ``src`` directory first on
``sys.path`` beforehand.  Program functions are looked up as module
attributes at call time, so a tracer that rebinds them sees every call.
"""
from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import replace

from mplparity import evaluate, numcore, parity, regularize, selftest, words

WORKLOADS = ("main", "reg", "eval", "selftest")

MAIN_TOL = 1e-8   # theorem tolerances, as the CLI applies them
REG_TOL = 1e-7
# Neither route's est_error counts floating-point rounding, so route gaps of a
# few ulps can exceed it.  The floor is the one the program's own honesty test
# (test_panels_est_error_honest) allows, taken relative to max(1, |value|).
ROUNDING_FLOOR = 1e-14

# Batch sizes.  FULL is what the benchmark runs; tests pass smaller sizes.
FULL = {
    # annulus points per index per batch, over depth <= 4, weight <= 6
    "main": {"depth_max": 4, "weight_max": 6, "per_index": 2},
    # roots pool and index range of the reg sweep, then the hirose shape
    "reg": {"roots": (2, 4), "depth_max": 3, "weight_max": 4,
            "mzv_depth_max": 5, "mzv_weight_max": 8},
    # points per (band, depth) cell; cross-checked series points per batch
    "eval": {"per_cell": 600, "route_checks": 48},
    # selftest seeds per batch, drawn from a pool of seeds 0 .. pool-1
    "selftest": {"per_batch": 6, "pool": 36},
}

ANNULUS = (1.3, 3.0)
EVAL_BANDS = {"deep": (0.2, 0.5), "near": (0.8, 0.95), "outside": (1.3, 3.0)}
_ANGLE_MARGIN = 0.15   # same sampler geometry as the CLI sweep
_RAY_MARGIN = 0.1


# --- input generation -------------------------------------------------------


def enumerate_indices(depth_max: int, weight_max: int) -> list[tuple[int, ...]]:
    """Every index of depth <= depth_max and weight <= weight_max, in the
    order the CLI sweep enumerates them."""
    out = []
    for d in range(1, depth_max + 1):
        for parts in itertools.product(range(1, weight_max + 1), repeat=d):
            if sum(parts) <= weight_max:
                out.append(parts)
    return out


def _near_nonneg_axis(entries, margin: float, exact_one_ok: bool) -> bool:
    """True when some consecutive product z_i..z_j lies within margin of the
    nonnegative reals (exactly 1 excepted when exact_one_ok)."""
    for i in range(len(entries)):
        prod = 1 + 0j
        for j in range(i, len(entries)):
            prod *= entries[j]
            if exact_one_ok and prod == 1:
                continue
            if abs(prod - max(prod.real, 0.0)) <= margin:
                return True
    return False


def _tails_to_entries(tails: list[complex]) -> tuple[complex, ...]:
    d = len(tails)
    return tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)


def _random_tails(rng: random.Random, d: int, lo: float, hi: float) -> list[complex]:
    return [cmath.rect(rng.uniform(lo, hi),
                       rng.uniform(_ANGLE_MARGIN, 2 * math.pi - _ANGLE_MARGIN))
            for _ in range(d)]


def sample_annulus(d: int, rng: random.Random, lo: float, hi: float) -> tuple[complex, ...]:
    """Annulus point drawn as the CLI sampler draws it: tail products with
    moduli in [lo, hi] and angles off the positive ray, redrawn while a
    consecutive product comes near the nonnegative axis."""
    for _ in range(1000):
        entries = _tails_to_entries(_random_tails(rng, d, lo, hi))
        if not _near_nonneg_axis(entries, _RAY_MARGIN, exact_one_ok=False):
            return entries
    raise RuntimeError(f"annulus sampler did not converge for depth {d}")


def _roots_pool(orders) -> list[complex]:
    exact = (1 + 0j, 1j, -1 + 0j, -1j)
    pool: list[complex] = []
    for n in orders:
        for j in range(n):
            w = exact[4 * j // n] if (4 * j) % n == 0 else cmath.exp(2j * math.pi * j / n)
            if w not in pool:
                pool.append(w)
    return pool


def make_batch(workload: str, seed: int, batch: int, sizes: dict) -> list[dict]:
    """Items of one batch; the same (seed, batch, sizes) gives the same list."""
    if workload == "main":
        per = sizes["per_index"]
        items = []
        for parts in enumerate_indices(sizes["depth_max"], sizes["weight_max"]):
            for p in range(batch * per, (batch + 1) * per):
                # the CLI sweep seeds point p of an index the same way, so
                # batch 0 holds exactly the points of `sweep --points per`
                rng = random.Random(f"{seed}:{parts}:{p}")
                items.append({"k": parts, "z": sample_annulus(len(parts), rng, *ANNULUS)})
        return items
    if workload == "reg":
        pool = _roots_pool(sizes["roots"])
        points = [(parts, combo)
                  for parts in enumerate_indices(sizes["depth_max"], sizes["weight_max"])
                  for combo in itertools.product(pool, repeat=len(parts))
                  if not _near_nonneg_axis(combo, 0.0, exact_one_ok=True)]
        mzv = enumerate_indices(sizes["mzv_depth_max"], sizes["mzv_weight_max"])
        rng = random.Random(f"reg:{seed}:{batch}")
        rng.shuffle(points)
        rng.shuffle(mzv)
        # both branches of a point run back to back, as the CLI sweep runs them
        items = [{"k": parts, "z": combo, "branch": branch, "theorem": "reg"}
                 for parts, combo in points for branch in (1, -1)]
        items += [{"k": parts, "z": (1 + 0j,) * len(parts), "branch": 1, "theorem": "hirose"}
                  for parts in mzv]
        return items
    if workload == "eval":
        rng = random.Random(f"eval:{seed}:{batch}")
        items = []
        for band, (lo, hi) in EVAL_BANDS.items():
            for d in range(1, 5):
                for _ in range(sizes["per_cell"]):
                    parts = tuple(rng.randint(1, 2) for _ in range(d))
                    entries = _tails_to_entries(_random_tails(rng, d, lo, hi))
                    items.append({"k": parts, "z": entries, "band": band})
        rng.shuffle(items)
        series = [i for i, it in enumerate(items) if it["band"] != "outside"]
        for i in rng.sample(series, min(sizes["route_checks"], len(series))):
            items[i]["route_check"] = True
        return items
    if workload == "selftest":
        # The cost of one selftest seed varies about threefold, so windows of
        # consecutive seeds at different benchmark seeds differed by 0.15-0.20
        # in items_per_s.  The seed permutes a fixed pool instead, and batches
        # cycle through it.  Each seed runs as one run_selftest call per
        # invariant group: the same checks as one unfiltered call, in enough
        # items for a p90 resting on 100 or more.
        pool = list(range(sizes["pool"]))
        random.Random(f"selftest:{seed}").shuffle(pool)
        per = sizes["per_batch"]
        return [{"seed": pool[(batch * per + i) % len(pool)], "group": group}
                for i in range(per) for group in selftest.GROUPS]
    raise ValueError(f"unknown workload {workload!r}")


# --- running items ----------------------------------------------------------


def run_item(workload: str, item: dict):
    """Run one item through the program and return its raw result."""
    if workload == "main":
        z = item["z"]
        if numcore.domain_check(z, "consecutive", "nonneg"):
            raise numcore.DomainError(f"main point outside the identity domain: {z}")
        return parity.main_sides(words.Index(item["k"]), words.ArgVector.of(z))
    if workload == "reg":
        if item["theorem"] == "hirose":
            return parity.mzv_sides(words.Index(item["k"]))
        z = item["z"]
        if numcore.domain_check(z, "consecutive", "nonneg_not_one"):
            raise numcore.DomainError(f"reg point outside the identity domain: {z}")
        cfg = replace(numcore.DEFAULT_CONFIG, branch_at_one=item["branch"])
        return parity.reg_sides(words.Index(item["k"]), words.ArgVector.of(z), "stuffle", cfg)
    if workload == "eval":
        return evaluate.li(words.Index(item["k"]), words.ArgVector.of(item["z"]))
    if workload == "selftest":
        return selftest.run_selftest(only=(item["group"],), seed=item["seed"])
    raise ValueError(f"unknown workload {workload!r}")


def first_call(workload: str) -> None:
    """Fixed small call of the workload's kind; counted in set-up time."""
    if workload == "main":
        parity.main_sides(words.Index((1,)), words.ArgVector.of((-2,)))
    elif workload == "reg":
        parity.reg_sides(words.Index((1, 1)), words.ArgVector.of((-1, 1)), "stuffle")
    elif workload == "eval":
        evaluate.li(words.Index((2,)), words.ArgVector.of((0.5j,)))
        evaluate.li(words.Index((2,)), words.ArgVector.of((2j,)))
    elif workload == "selftest":
        selftest.run_selftest(only=("rho",), seed=0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --- correctness --------------------------------------------------------------


def _finite(*values: complex) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


def record_residual(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|), recomputed from the two sides."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def check_record(rep, tol: float) -> tuple[float, str | None]:
    """Residual of one identity report and why it fails, or None if it passes.

    The residual is recomputed from the sides, and the larger of it and the
    reported one is held against the tolerance."""
    if not _finite(rep.lhs, rep.rhs):
        return math.inf, f"non-finite side k={rep.k}"
    resid = max(record_residual(rep.lhs, rep.rhs), rep.residual)
    if not resid < tol:
        return resid, f"{rep.theorem} k={rep.k} residual {resid:.3e} >= tol {tol:g}"
    return resid, None


def check_selftest(results) -> list[str]:
    """Witnessed or empty invariants of one run_selftest call."""
    if not results:
        return ["selftest ran no invariants"]
    bad = []
    for r in results:
        if r.n_cases < 1:
            bad.append(f"{r.group}/{r.name}: no cases")
        if not r.passed:
            bad.append(f"{r.group}/{r.name}: {len(r.witnesses)} witnesses")
    return bad


def route_gap(k, z) -> tuple[float, float, float]:
    """Series and panel values at one point: (|gap|, summed est_error, scale)."""
    a = evaluate.li(words.Index(k), words.ArgVector.of(z), route="series")
    b = evaluate.li(words.Index(k), words.ArgVector.of(z), route="panels")
    return abs(a.value - b.value), a.est_error + b.est_error, max(1.0, abs(a.value))


def rho_roundtrip_gap(seed: int, batch: int) -> float:
    """Worst |rho_inv(rho(p)) - p| over six seeded T-polynomials of degree <= 6."""
    rng = random.Random(f"rho:{seed}:{batch}")
    worst = 0.0
    for _ in range(6):
        p = regularize.TPoly(tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                   for _ in range(rng.randint(3, 7))))
        q = regularize.rho_inv(regularize.rho(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(q.padded(6), p.padded(6))))
    return worst


def check_batch(workload: str, seed: int, batch: int, items: list[dict], results: list):
    """Check a batch after its timed loop.

    ``results[i]`` is the return of item i, or an exception it raised.  Returns
    one failure message or None per item; the worst residual of the batch
    (the identity residual on main and reg, the relative series/panel gap of
    the cross-checked points on eval, and the transport round-trip gap on
    selftest); and notes on route gaps that only the rounding floor covers."""
    fails: list[str | None] = []
    notes: list[str] = []
    worst = 0.0
    for item, res in zip(items, results):
        if isinstance(res, BaseException):
            msg = f"{type(res).__name__}: {res}"
        elif workload in ("main", "reg"):
            tol = MAIN_TOL if workload == "main" else REG_TOL
            resid, msg = check_record(res, tol)
            worst = max(worst, resid)
        elif workload == "eval":
            msg = None if _finite(res.value) and math.isfinite(res.est_error) \
                else f"non-finite value k={item['k']} z={item['z']}"
            if msg is None and item.get("route_check"):
                try:
                    gap, budget, scale = route_gap(item["k"], item["z"])
                except Exception as e:  # a route that cannot evaluate is a miss
                    msg = f"route check raised {type(e).__name__}: {e}"
                else:
                    worst = max(worst, gap / scale)
                    if not gap <= max(budget, ROUNDING_FLOOR * scale):
                        msg = (f"routes disagree k={item['k']} z={item['z']}: "
                               f"gap {gap:.3e} > est_error sum {budget:.3e}")
                    elif gap > budget:
                        notes.append(f"route gap {gap:.3e} above est_error sum {budget:.3e} "
                                     f"but within the rounding floor, k={item['k']} z={item['z']}")
        else:
            bad = check_selftest(res)
            msg = f"seed {item['seed']} {item['group']}: " + "; ".join(bad) if bad else None
        fails.append(msg)
    if workload == "selftest":
        worst = rho_roundtrip_gap(seed, batch)
    return fails, worst, notes
