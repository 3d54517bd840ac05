"""Numerical evaluation of multiple polylogarithms and of arbitrary convergent
words, plus the star / weight-shifted variants assembled from them.

Two independent routes produce values:

  series  nested-sum recursion in the tail-product variables g_i = z_i...z_d,
          usable when every |g_i| <= SERIES_RADIUS.  The recursion never forms
          z_i^m directly (individual entries may be huge while every tail
          product is small), so it cannot overflow.

  panels  the iterated-integral representation, marched across [0, 1] in
          one direction.  Each panel re-expands every partial integral as a
          truncated series around the panel's left edge; the step is
          panel_safety times the distance to the nearest singularity.  The
          panels abutting t = 0 and t = 1 use expansions with log terms so
          that integrable endpoint singularities (forms at 0 and at 1) are
          exact rather than approached geometrically.  Log integration in
          the final panel applies a table of u^m log^q u coefficients that
          is built once per (order, number of forms at 1) and cached.

Route agreement on the overlap region is one of the standing invariants; the
dispatcher picks series strictly inside the polydisk and panels otherwise, and
every result reports which route produced it together with an error estimate
that is meant to be trusted (over-, never under-stated).

Value caches key on what the computation reads, never on provenance or on
branch_at_one.  A value at (k, z) reads k.parts, z.entries, z.tails and the
numeric knobs series_truncation, target_tol, panel_order and panel_safety, so
those (plus the route or regularization mode) are its key; a word value reads
the forms of its integral and the same knobs.  Both branches of a regularized
check and every ArgVector that carries the same numbers share one computed
value.  The tails are part of the key because equal entries do not imply equal
tail products: a contraction multiplies its base entries in slot order, which
can differ in the last bit from multiplying the fused entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .numcore import DEFAULT_CONFIG, DomainError, EvalConfig, EvaluationError, clear_caches, memo
from .words import ONE_SYMBOL, ArgVector, Index, LinComb, Word, index_of_word

SERIES_RADIUS = 0.95
PATH_CLEARANCE = 1e-9   # singularities this close to (0,1) make panels meaningless
MAX_PANELS = 4000


@dataclass(frozen=True)
class PanelPlan:
    """Subdivision used by one panel integration."""

    centers: tuple[float, ...]
    steps: tuple[float, ...]
    order: int


@dataclass(frozen=True)
class EvalResult:
    value: complex
    est_error: float
    method: str          # "series" or "panels"
    n_terms: int = 0
    n_panels: int = 0


# --- series route -----------------------------------------------------------


def _series_tail_bound(r: float, d: int, n: int) -> float:
    # sum_{M > n} C(M-1, d-1) r^M <= f(n+1) / (1 - q) with f geometric-ish
    if r >= 1:
        return math.inf
    f = (n + 1) ** (d - 1) / math.factorial(d - 1) * r ** (n + 1)
    q = r * (1 + 1 / (n + 1)) ** (d - 1)
    if q >= 1:
        return math.inf
    return f / (1 - q)


def li_series(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Nested sum over m_1 < ... < m_d of prod z_i^{m_i} / m_i^{k_i}."""
    d = k.depth
    if d != z.depth:
        raise ValueError("index and argument depth differ")
    if d == 0:
        return EvalResult(1 + 0j, 0.0, "series")
    entries = z.entries
    if any(e == 0 for e in entries):
        return EvalResult(0j, 0.0, "series")
    g = z.tails
    r = max(abs(gi) for gi in g)
    if r > SERIES_RADIUS:
        raise DomainError(f"tail product of modulus {r:.4f} outside series radius")
    goal = max(cfg.target_tol * 1e-2, 1e-17)
    n = 32
    while _series_tail_bound(r, d, n) > goal and n < cfg.series_truncation:
        n = min(cfg.series_truncation, max(n + 8, int(n * 1.4)))
    bound = _series_tail_bound(r, d, n)

    # level recursion in tail products: B_i[m] = m^{-k_i} * C[m],
    # C[m] = g_i * (C[m-1] + B_{i-1}[m-1]); B_0 = delta_{m,0}
    prev = [1 + 0j] + [0j] * n
    for i in range(1, d + 1):
        gi = g[i - 1]
        ki = k.parts[i - 1]
        cur = [0j] * (n + 1)
        c = 0j
        for m in range(1, n + 1):
            c = gi * (c + prev[m - 1])
            cur[m] = c / m ** ki
        prev = cur
    value = sum(prev)
    rounding = 8e-16 * sum(abs(t) for t in prev)
    return EvalResult(complex(value), bound + rounding, "series", n_terms=n)


# --- panel route ------------------------------------------------------------


def _seg_dist(s: complex) -> float:
    x = min(max(s.real, 0.0), 1.0)
    return abs(s - x)


@lru_cache(maxsize=None)
def _ramps(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent and divisor ramps of one panel order: 0..M, 1..M, 0..M-1 (float)."""
    ramps = (np.arange(order + 1), np.arange(1, order + 1), np.arange(order, dtype=float))
    for r in ramps:
        r.setflags(write=False)
    return ramps


@lru_cache(maxsize=None)
def _log_int_table(order: int, P: int) -> np.ndarray:
    """K[p, m - 1, q] in int u^{m-1} log^p u du = sum_q K[p, m - 1, q] u^m log^q u,
    for m = 1..order and q <= p <= P; entries with q > p are zero and never read."""
    K = np.zeros((P + 1, order, P + 1))
    for p in range(P + 1):
        for m in range(1, order + 1):
            for q in range(p + 1):
                K[p, m - 1, q] = (((-1) ** (p - q)) * (math.factorial(p) / math.factorial(q))
                                  / m ** (p - q + 1))
    K.setflags(write=False)
    return K


def _log_integrate(dst, src, K):
    """dst[m, q] += sum_p src[m, p] K[p, m, q].  The sum runs in ascending p, the
    order of the term-by-term loop kept in the tests, so results are bit-identical
    to it; one einsum or matmul would be free to reorder it."""
    for p in range(K.shape[0]):
        dst[:, : p + 1] += src[:, p : p + 1] * K[p, :, : p + 1]


def _interior_panel(F, t0, h, forms, order, safety):
    """Advance all partial integrals from t0 to t0 + h by plain Taylor series.

    A form exactly at the center is integrated by exponent shift, which
    requires the previous level to vanish there.  That center can only be
    t0 = 0, the first panel, since iterated_integral rejects forms on (0, 1).
    """
    M = order
    powers, divisors, geo_powers = _ramps(M)
    kernels: dict[complex, np.ndarray] = {}   # (1/w)(-1/w)^n per distinct w
    prev = np.zeros(M + 1, complex)
    prev[0] = 1.0
    newF = np.empty_like(F)
    newF[0] = 1.0
    spow = float(h) ** powers
    est = 0.0
    for j in range(1, len(F)):
        w = t0 - forms[j - 1]
        cur = np.zeros(M + 1, complex)
        if w == 0:
            scale = max(1.0, float(np.abs(prev).max()))
            if abs(prev[0]) > 1e-12 * scale:
                raise EvaluationError("nonvanishing integrand at singular panel center", 0, forms)
            cur[1:] = prev[1:] / divisors
        else:
            geo = kernels.get(w)
            if geo is None:
                geo = kernels[w] = (1.0 / w) * (-1.0 / w) ** geo_powers
            conv = np.convolve(prev[:M], geo)[:M]
            cur[1:] = conv / divisors
        cur[0] = F[j]
        newF[j] = cur @ spow
        tail = max(abs(cur[M]) * spow[M], abs(cur[M - 1]) * spow[M - 1])
        est += tail * safety / (1.0 - safety)
        prev = cur
    return newF, est


def _final_panel(F, t, forms, order, safety):
    """Close the integration at t = 1 with a log-enhanced expansion in u = 1 - t.

    Forms at 1 divide by u and raise the log degree; all other forms contribute
    analytic kernels.  The value of the last level at u = 0 is its (0, 0)
    coefficient; leftover (0, p >= 1) coefficients measure how far the input
    was from an honestly convergent word and are folded into the estimate.
    """
    M = order
    uj = 1.0 - t
    L = math.log(uj)
    P = sum(1 for s in forms if s == 1)
    K = _log_int_table(M, P)
    powers = _ramps(M)[0]
    prev = np.zeros((M + 1, P + 1), complex)
    prev[0, 0] = 1.0
    upow = uj ** powers
    lpow = np.array([L ** p for p in range(P + 1)])
    est = 0.0
    for j in range(1, len(F)):
        beta = 1.0 - forms[j - 1]
        cur = np.zeros_like(prev)
        if beta == 0:
            # integrand prev[m, p] u^{m-1} log^p u
            for p in range(P):
                cur[0, p + 1] += prev[0, p] / (p + 1)
            _log_integrate(cur[1:], prev[1:], K)
        else:
            kern = -(1.0 / beta) * (1.0 / beta) ** powers
            prod = np.empty_like(prev)
            for p in range(P + 1):
                prod[:, p] = np.convolve(prev[:, p], kern)[: M + 1]
            _log_integrate(cur[1:], prod[:M], K)
        partial = complex((cur @ lpow) @ upow)
        cur[0, 0] = F[j] - partial
        tail = max(np.abs(cur[M]).max() * upow[M], np.abs(cur[M - 1]).max() * upow[M - 1])
        est += tail * max(1.0, abs(L)) ** P * safety / (1.0 - safety)
        prev = cur
    resid = sum(abs(prev[0, p]) * abs(L) ** p for p in range(1, P + 1))
    return complex(prev[0, 0]), est + resid


def iterated_integral(forms, cfg: EvalConfig = DEFAULT_CONFIG):
    """int_0^1 of the composed forms dt/(t - a_1) ... dt/(t - a_n), the first
    form attached to the innermost variable.  Returns (value, est_error, plan).
    """
    a = [complex(s) for s in forms]
    n = len(a)
    if n == 0:
        return 1 + 0j, 0.0, PanelPlan((), (), cfg.panel_order)
    if a[0] == 0:
        raise DomainError("leading form at 0: integral diverges at the origin")
    if a[-1] == 1:
        raise DomainError("trailing form at 1: integral diverges at the endpoint")
    sing = sorted(set(a), key=lambda s: (s.real, s.imag))
    for s in sing:
        if s not in (0, 1) and _seg_dist(s) < PATH_CLEARANCE:
            raise DomainError(f"form singularity {s} lies on the integration path")
    safety = cfg.panel_safety
    order = cfg.panel_order
    r_right = min((abs(1 - s) for s in sing if s != 1), default=1.0)
    u_enter = safety * min(r_right, 1.0)
    r_zero = min(abs(s) for s in sing if s != 0)

    t = 0.0
    F = np.zeros(n + 1, complex)
    F[0] = 1.0
    centers: list[float] = []
    steps: list[float] = []
    est = 0.0
    while True:
        u_rem = 1.0 - t
        if u_rem <= 0.75 * u_enter:
            break
        R = r_zero if t == 0.0 else min(abs(t - s) for s in sing)
        h = safety * R
        if u_rem - h < 0.75 * u_enter:
            h = u_rem - 0.5 * u_enter
        F, e = _interior_panel(F, t, h, a, order, safety)
        est += e
        centers.append(t)
        steps.append(h)
        t += h
        if len(steps) > MAX_PANELS:
            raise EvaluationError("panel budget exhausted", len(steps), a)
    value, e = _final_panel(F, t, a, order, safety)
    est += e
    centers.append(1.0)
    steps.append(1.0 - t)
    return value, est * 4.0, PanelPlan(tuple(centers), tuple(steps), order)


def _check_tail_domain(k: Index, z: ArgVector) -> tuple[complex, ...]:
    """Panel-route legality: no tail product in (1, inf), no (k_d, z_d) = (1, 1)."""
    d = k.depth
    g = z.tails
    for gi in g:
        if gi.imag == 0 and gi.real > 1:
            raise DomainError(f"tail product {gi} lies in (1, inf)")
    if d and k.parts[-1] == 1 and z.symbols[-1].value == 1:
        raise DomainError("terminal pair (k_d, z_d) = (1, 1) diverges")
    return g


def li_panels(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Integral-representation route, valid outside the unit polydisk too."""
    d = k.depth
    if d != z.depth:
        raise ValueError("index and argument depth differ")
    if d == 0:
        return EvalResult(1 + 0j, 0.0, "panels")
    if any(e == 0 for e in z.entries):
        raise DomainError("panel route needs nonzero arguments")
    g = _check_tail_domain(k, z)
    forms: list[complex] = []
    for i in range(1, d + 1):
        forms.append(1 / g[i - 1])
        forms.extend([0j] * (k.parts[i - 1] - 1))
    val, err, plan = iterated_integral(forms, cfg)
    sign = -1.0 if d % 2 else 1.0
    return EvalResult(sign * val, err, "panels", n_panels=len(plan.steps))


# --- dispatch and caching ---------------------------------------------------


class CacheKey:
    """Key of a value cache.  It hashes and compares by `numbers`, the values the
    cached computation reads; `args`, the objects it computes from, take no part."""

    __slots__ = ("numbers", "args")

    def __init__(self, numbers: tuple, *args) -> None:
        self.numbers = numbers
        self.args = args

    def __hash__(self) -> int:
        return hash(self.numbers)

    def __eq__(self, other) -> bool:
        return isinstance(other, CacheKey) and self.numbers == other.numbers


def _knobs(cfg: EvalConfig) -> tuple:
    """The EvalConfig fields evaluation reads."""
    return (cfg.series_truncation, cfg.target_tol, cfg.panel_order, cfg.panel_safety)


def value_key(k: Index, z: ArgVector, cfg: EvalConfig, tag: str) -> CacheKey:
    """Key of the value at (k, z) by route or regularization mode `tag`; its
    args are (k, z, cfg, tag)."""
    return CacheKey((tag, k.parts, z.entries, z.tails) + _knobs(cfg), k, z, cfg, tag)


@memo(maxsize=400_000)
def _li_cached(key: CacheKey) -> EvalResult:
    k, z, cfg, route = key.args
    if route == "series":
        return li_series(k, z, cfg)
    if route == "panels":
        return li_panels(k, z, cfg)
    if any(e == 0 for e in z.entries):
        return EvalResult(0j, 0.0, "series")
    d = k.depth
    if d == 0:
        return EvalResult(1 + 0j, 0.0, "series")
    r = max(abs(g) for g in z.tails)
    if r <= SERIES_RADIUS:
        return li_series(k, z, cfg)
    return li_panels(k, z, cfg)


def li(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG, route: str = "auto") -> EvalResult:
    """Value of the multiple polylogarithm; route is 'auto', 'series' or 'panels'."""
    if route not in ("auto", "series", "panels"):
        raise ValueError(f"unknown route {route!r}")
    return _li_cached(value_key(k, z, cfg, route))


# --- word-level evaluation --------------------------------------------------


@memo(maxsize=400_000)
def _li_word_cached(key: CacheKey) -> complex:
    forms, cfg = key.args
    return iterated_integral(forms, cfg)[0]


def _word_value(w: Word, cfg: EvalConfig) -> complex:
    if not w.letters:
        return 1 + 0j
    if not w.in_h0:
        raise DomainError(f"word {w!r} is not evaluable (leading x or trailing y1)")
    last = w.letters[-1]
    if last.is_y and last.arg.value == 1:
        raise DomainError(f"word {w!r} ends in an argument equal to 1; integral diverges")
    forms: list[complex] = []
    for l in w.letters:
        if l.is_y:
            if l.arg.value == 0:
                raise DomainError("zero argument letter")
            forms.append(1 / l.arg.value)
        else:
            forms.append(0j)
    forms = tuple(forms)
    sign = -1.0 if w.depth % 2 else 1.0
    return sign * _li_word_cached(CacheKey((forms,) + _knobs(cfg), forms, cfg))


def li_word(w: Word | LinComb, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Evaluate a convergent word (or rational combination) by its integral."""
    if isinstance(w, Word):
        return _word_value(w, cfg)
    acc = 0j
    for word, c in w.items():
        acc += float(c) * _word_value(word, cfg)
    return acc


def li_word_series_encoding(w: Word, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Evaluate a word read in the series encoding: y_c x^{k-1} blocks give the
    exponent tuple directly and the y-arguments are the z_i themselves."""
    if not w.letters:
        return 1 + 0j
    k, syms = index_of_word(w)
    z = ArgVector(syms)
    return li(k, z, cfg).value


# --- contractions, compositions, variant sums -------------------------------


def enum_contractions(k: Index, z: ArgVector) -> list[tuple[Index, ArgVector]]:
    """All 2^(d-1) ways of fusing adjacent places: exponents add, arguments
    multiply.  Deterministic order; the identity contraction comes first."""
    d = k.depth
    if d != z.depth:
        raise ValueError("index and argument depth differ")
    if d <= 1:
        return [(k, z)]
    out: list[tuple[Index, ArgVector]] = []
    for mask in range(2 ** (d - 1)):
        parts: list[int] = [k.parts[0]]
        syms = [z.symbols[0]]
        for gap in range(d - 1):
            if mask & (1 << gap):
                parts[-1] += k.parts[gap + 1]
                merged = syms[-1] * z.symbols[gap + 1]
                syms[-1] = merged
            else:
                parts.append(k.parts[gap + 1])
                syms.append(z.symbols[gap + 1])
        syms = [ONE_SYMBOL if s.value == 1 else s for s in syms]
        out.append((Index(tuple(parts)), ArgVector(tuple(syms))))
    return out


def enum_compositions(d: int) -> list[tuple[int, ...]]:
    """Ordered partitions of d into contiguous nonempty blocks (2^(d-1) of them)."""
    if d == 0:
        return [()]
    out = []
    for cuts in range(2 ** (d - 1)):
        lens = []
        cur = 1
        for gap in range(d - 1):
            if cuts & (1 << gap):
                lens.append(cur)
                cur = 1
            else:
                cur += 1
        lens.append(cur)
        out.append(tuple(lens))
    return out


def compositions_of(total: int, parts: int) -> list[tuple[int, ...]]:
    """Weak compositions of total into a fixed number of parts, lexicographic."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(total + parts - 2 - prev)
        out.append(tuple(comp))
    return sorted(out)


def _value(k: Index, z: ArgVector, cfg: EvalConfig, mode: str) -> complex:
    if mode == "plain":
        return li(k, z, cfg).value
    if mode in ("stuffle", "shuffle"):
        from .regularize import reg_value

        return reg_value(k, z, mode, cfg)
    raise ValueError(f"unknown mode {mode!r}")


def li_star(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG, mode: str = "plain") -> complex:
    """Star variant: sum of the plain (or regularized) values over all
    contractions of adjacent places."""
    acc = 0j
    for kc, zc in enum_contractions(k, z):
        acc += _value(kc, zc, cfg, mode)
    return acc


def li_star_detail(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG):
    """Plain star value together with per-contraction routes and error sum."""
    acc = 0j
    est = 0.0
    methods = []
    for kc, zc in enum_contractions(k, z):
        r = li(kc, zc, cfg)
        acc += r.value
        est += r.est_error
        methods.append(r.method)
    return acc, est, tuple(methods)


def li_shift(a: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
             mode: str = "plain") -> complex:
    """Weight-raised alternating sum: (-1)^a times the binomial-weighted sum of
    values at indices k + l over compositions l of a.  Returns 0 for a < 0."""
    if a < 0:
        return 0j
    d = k.depth
    if d == 0:
        return (1 + 0j) if a == 0 else 0j
    acc = 0j
    for l in compositions_of(a, d):
        coef = 1
        for ki, li_ in zip(k.parts, l):
            coef *= math.comb(ki + li_ - 1, li_)
        shifted = Index(tuple(ki + li_ for ki, li_ in zip(k.parts, l)))
        acc += coef * _value(shifted, z, cfg, mode)
    return (-1) ** a * acc


def li_shift_blocks(a: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                    mode: str = "plain") -> complex:
    """Block-alternating companion of li_shift: the binomial-weighted sum runs
    over star values of contiguous block splittings with sign (-1)^(d+s).
    Under the stuffle product it equals li_shift at the reversed index and
    arguments; the two are kept separate so that identity can be tested."""
    if a < 0:
        return 0j
    d = k.depth
    if d == 0:
        return (1 + 0j) if a == 0 else 0j
    acc = 0j
    for l in compositions_of(a, d):
        coef = 1
        for ki, li_ in zip(k.parts, l):
            coef *= math.comb(ki + li_ - 1, li_)
        shifted = Index(tuple(ki + li_ for ki, li_ in zip(k.parts, l)))
        inner = 0j
        for blocks in enum_compositions(d):
            s = len(blocks)
            prodv = 1 + 0j
            pos = 1
            for blen in blocks:
                prodv *= li_star(shifted.cut(pos, pos + blen - 1),
                                 z.cut(pos, pos + blen - 1), cfg, mode)
                pos += blen
            inner += (-1) ** (d + s) * prodv
        acc += coef * inner
    return (-1) ** a * acc
