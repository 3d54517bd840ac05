"""Numerical evaluation of multiple polylogarithms and of arbitrary convergent
words, plus the star / weight-shifted variants assembled from them.

Two independent routes produce values:

  series  nested sum in the tail-product variables g_i = z_i...z_d, usable
          when every |g_i| <= SERIES_RADIUS.  Each depth level is one array
          over the summation index: level 1 is the powers g_1^m (a cumprod),
          and each later level is a prefix sum of the level below scaled by
          inverse powers of g_i and rescaled by its powers (a cumsum), then
          divided by a cached table of m^k.  A level sums in blocks short
          enough that no power of g_i nor its inverse passes 1e150, carrying
          its running value from block to block, so a tiny tail takes several
          blocks.  Only tail powers appear, never z_i^m (an entry may be huge
          while every tail product is small), so nothing overflows.

  panels  the iterated-integral representation, marched across [0, 1] in
          one direction.  Each panel re-expands every partial integral as a
          truncated series around the panel's left edge; the step is
          panel_safety times the distance to the nearest singularity.  The
          panels abutting t = 0 and t = 1 use expansions with log terms so
          that integrable endpoint singularities (forms at 0 and at 1) are
          exact rather than approached geometrically.  Log integration in
          the final panel applies a table of u^m log^q u coefficients that
          is built once per (order, number of forms at 1) and cached.

          The panels depend only on the set of singularities and the two
          panel knobs, so all words with one set are marched under one plan,
          one level at a time: level j of a word, the partial integral of its
          prefix forms[:j], is computed on every panel from level j - 1.  A
          word resumes from the longest prefix already marched under its plan.
          Every kernel is geometric, so a level is one prefix sum over all
          panels at once, the same blocked kernel as the series route's, in
          powers of each form's ratio that a plan builds for all its forms in
          one cumprod; one cumsum chains the panels' end values.  A level's
          float operations depend only on the plan and the level below, so a
          value is bit for bit the same whatever was marched before it.

Route agreement on the overlap region is one of the standing invariants; the
dispatcher picks series strictly inside the polydisk and panels otherwise, and
every result reports which route produced it together with an error estimate
that is meant to be trusted (over-, never under-stated).

Value caches key on what the computation reads, never on provenance or on
branch_at_one.  A value at (k, z) reads k.parts, z.entries, z.tails and the
numeric knobs series_truncation, panel_order and panel_safety, so those (plus
the route or regularization mode) are its key; a word value reads the forms of
its integral and the same knobs.  Both branches of a regularized check and
every ArgVector that carries the same numbers share one computed value.  The
tails are part of the key because equal entries do not imply equal tail
products: a contraction multiplies its base entries in slot order, which can
differ in the last bit from multiplying the fused entries.

Panel plans live in a memo of PLANS entries keyed on (sorted singularities,
panel_order, panel_safety).  From its first word on, a plan keeps its kernel
table (which holds its step powers) and the levels it marches (interior levels
under (None, prefix); final-panel levels under (P, prefix), P the number of
forms at 1 in the word) in one store, dropping the least recently used once
they exceed PLAN_BYTES.  clear_caches() empties it with the value memos.
"""
from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import add, mul

import numpy as np

from .numcore import DEFAULT_CONFIG, DomainError, EvalConfig, EvaluationError, clear_caches, memo
from .words import ONE_SYMBOL, ArgVector, Index, LinComb, Word, index_of_word

SERIES_RADIUS = 0.95
SERIES_GOAL = 1e-11 * 1e-2   # series tail bound to reach, cap permitting
PATH_CLEARANCE = 1e-9   # singularities this close to (0,1) make panels meaningless
MAX_PANELS = 4000
SCALE_LIMIT = 150 * math.log(10)   # ln 1e150: largest |g|^-j a series block forms
PLANS = 8               # singularity sets whose panel plans are kept
PLAN_BYTES = 1 << 16    # arrays one plan keeps: marched levels, kernel table


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


@lru_cache(maxsize=None)
def _m_powers(n: int, k: int) -> np.ndarray:
    """m^k for m = 1..n, each the float of the exact integer."""
    table = np.array([float(m ** k) for m in range(1, n + 1)])
    table.setflags(write=False)
    return table


def _next_level(prev: np.ndarray, pw: np.ndarray, block: int, out: np.ndarray) -> np.ndarray:
    """Prefix sums in powers of one ratio g per row, written to out and
    returned: out[:, t] = g (out[:, t-1] + prev[:, t]) with out[:, -1] = 0, for
    t below out's width.  pw[:, j] = g^j for j = 0..block; one row of pw may
    serve every row of prev.

    Unrolled, out[:, t] = g^(t+1) sum_{s<=t} g^-s prev[:, s]: one cumsum of
    prev scaled by inverse powers, rescaled by powers.  The sum restarts every
    `block` terms from the carried out value, so no power beyond g^block nor
    its inverse is formed; the caller picks block to keep those in range."""
    size = out.shape[1]
    if block >= size:   # the loop's slicing costs a 1-3-form word about 2.5%
        return np.multiply(pw[:, 1:size + 1], (prev[:, :size] / pw[:, :size]).cumsum(1), out=out)
    for p0 in range(0, size, block):
        q = min(block, size - p0)
        s = (prev[:, p0:p0 + q] / pw[:, :q]).cumsum(1)
        if p0:
            s += out[:, p0 - 1:p0]
        np.multiply(pw[:, 1:q + 1], s, out=out[:, p0:p0 + q])
    return out


def _series_level(prev: np.ndarray, g: complex) -> np.ndarray:
    """The series level above prev, one entry shorter (prev[0] sits at m = i,
    the result's first entry at m = i + 1), in blocks short enough that
    |g|^block and |g|^-block stay within e^SCALE_LIMIT; a tiny tail takes many
    short blocks."""
    size = max(len(prev) - 1, 0)
    block = max(1, min(size, int(SCALE_LIMIT / -math.log(abs(g)))))
    pw = np.full((1, block + 1), g)
    pw[0, 0] = 1
    return _next_level(prev[None], pw.cumprod(1), block, np.empty((1, size), complex))[0]


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
    n = min(32, cfg.series_truncation)
    while _series_tail_bound(r, d, n) > SERIES_GOAL and n < cfg.series_truncation:
        n = min(cfg.series_truncation, max(n + 8, int(n * 1.4)))
    bound = _series_tail_bound(r, d, n)

    # level recursion in tail products, one array per level over m = i..n:
    # B_i[m] = m^{-k_i} C_i[m], C_i[m] = g_i (C_i[m-1] + B_{i-1}[m-1]), so
    # C_1[m] = g_1^m and each later level is a prefix sum in powers of g_i
    # only (_series_level, blocked so no power passes 1e150); no z_i^m
    cur = np.full(n, g[0]).cumprod() / _m_powers(n, k.parts[0])
    for i in range(1, d):
        cur = _series_level(cur, g[i]) / _m_powers(n, k.parts[i])[i:]
    rounding = 8e-16 * float(abs(cur).sum())
    return EvalResult(complex(cur.sum()), bound + rounding, "series", n_terms=n)


# --- panel route ------------------------------------------------------------


def _seg_dist(s: complex) -> float:
    x = min(max(s.real, 0.0), 1.0)
    return abs(s - x)


@lru_cache(maxsize=None)
def _ramps(order: int) -> tuple[np.ndarray, ...]:
    """Exponent and divisor ramps of one panel order: 0..M, 1..M and -1..-M."""
    ramps = (np.arange(order + 1), np.arange(1, order + 1), -np.arange(1.0, order + 1))
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


def _log_integrate(dst, src, K, add=np.add):
    """dst[m, q] += sum_p src[m, p] K[p, m, q], or -= with add=np.subtract.  The
    sum runs in ascending p, the order of the term-by-term loop kept in the
    tests; one einsum or matmul would be free to reorder it."""
    for p in range(K.shape[0]):
        d = dst[:, : p + 1]
        add(d, src[:, p : p + 1] * K[p, :, : p + 1], out=d)


def _layout(sing, order: int, safety: float):
    """Panel centers and steps over [0, 1] for the sorted singularities sing.

    The step is safety times the distance to the nearest singularity, and the
    last interior panel stops short of t = 1 so that the final panel's
    expansion in u = 1 - t converges.  Returns (centers, steps, t) with t the
    start of the final panel.  Near a form at 0 or at 1 the steps shrink
    geometrically, so a march needs about ln(1/safety)/safety panels there;
    the budget is four times that, at least MAX_PANELS and at most ten times
    MAX_PANELS.
    """
    r_right = min((abs(1 - s) for s in sing if s != 1), default=1.0)
    u_enter = safety * min(r_right, 1.0)
    r_zero = min(abs(s) for s in sing if s != 0)
    budget = min(10 * MAX_PANELS, max(MAX_PANELS, math.ceil(4 * math.log(1 / safety) / safety)))
    t = 0.0
    centers: list[float] = []
    steps: list[float] = []
    while True:
        u_rem = 1.0 - t
        if u_rem <= 0.75 * u_enter:
            break
        R = r_zero if t == 0.0 else min(abs(t - s) for s in sing)
        h = safety * R
        if u_rem - h < 0.75 * u_enter:
            h = u_rem - 0.5 * u_enter
        centers.append(t)
        steps.append(h)
        t += h
        if len(steps) > budget:
            raise EvaluationError("panel budget exhausted", len(steps), sing)
    return centers, steps, t


def _blocks(lg: np.ndarray, M: int) -> list[int]:
    """Per singularity, the longest block _next_level may sum on every panel,
    from lg[k, p] = ln|g| of singularity k on panel p.

    A power g^j or g^-j beyond e^SCALE_LIMIT costs range or precision.  A far
    form (|g| < 1) also scales up the coefficients it sums, which may be as
    large as R^-M with R the distance from the panel to its nearest
    singularity, ln(1/R) = max_k lg[k, p]; its terms stay within
    e^(2 SCALE_LIMIT)."""
    room = np.minimum(SCALE_LIMIT, 2 * SCALE_LIMIT - M * np.maximum(lg.max(0), 0.0))
    b = np.where(lg > 0, SCALE_LIMIT / lg, np.where(lg < 0, room / -lg, np.inf))
    return np.clip(b.min(1), 1, M).astype(int).tolist()


class _Plan:
    """The panels of one singularity set at one (panel_order, panel_safety),
    and the levels marched under them.

    Level j of a word is the partial integral of its prefix forms[:j], so words
    that share a prefix share its levels.  An interior level holds, for every
    interior panel, the Taylor coefficients of the prefix integral around the
    panel's left edge; it is kept under the key (None, prefix).  A final-panel
    level also depends on P, the number of forms at 1 in the whole word, which
    sets its shape and log table; it is kept under (P, prefix).  Every form's
    kernel is geometric on every panel, so a level is one blocked prefix sum
    (_next_level) over all panels at once, in powers that the plan builds for
    all its singularities in one cumprod (_kernels).  Everything a plan holds,
    its kernel table and its levels, is one entry of _kept from the first word
    on; entries are dropped least recently used first once they exceed
    PLAN_BYTES, and an array larger than that is not kept, so a plan retains a
    fixed amount of memory.
    """

    def __init__(self, sing, centers, steps, t, order: int, safety: float) -> None:
        self.sing = sing
        self.centers = centers
        self.steps = steps
        self.t = t
        self.order = order
        self.safety = safety
        self.public = PanelPlan(tuple(centers) + (1.0,), tuple(steps) + (1.0 - t,), order)
        self._kept: OrderedDict = OrderedDict()
        self._nbytes = 0

    # --- kept arrays ---

    def _get(self, key):
        hit = self._kept.get(key)
        if hit is not None:
            self._kept.move_to_end(key)
            return hit[0]
        return None

    def _keep(self, key, value, nbytes: int) -> None:
        if nbytes > PLAN_BYTES:
            return
        self._kept[key] = (value, nbytes)
        self._nbytes += nbytes
        while self._nbytes > PLAN_BYTES:
            _, (_, dropped) = self._kept.popitem(last=False)
            self._nbytes -= dropped

    def _deepest(self, P, a, top: int):
        """(j, level) for the longest prefix a[:j], j <= top, kept under P."""
        for j in range(top, 0, -1):
            level = self._get((P, a[:j]))
            if level is not None:
                return j, level
        return 0, None

    def _kernels(self):
        """(pw, blocks, index, zero): the powers every level convolves with.

        pw[k, p, j] = g^j, j = 0..M, for singularity s = sing[k] (k = index[s])
        on panel p, the final panel last.  On an interior panel g = 1/(s - t0):
        the kernel (1/w)(-1/w)^n of 1/(t - s), w = t0 - s, is -g^(n+1).  On the
        final panel g = 1/(1 - s), and the kernel in u = 1 - t is -g^(n+1) too.
        The last row, k = len(sing), holds each panel's step powers h^j, the
        final panel's h being its length 1 - t.  The whole table is one
        cumprod.  blocks[k] is the block length _next_level sums for
        singularity k (_blocks); powers beyond it are never read.
        zero is index[0] if a form at 0 sits at the center t0 = 0 of the first
        panel, else None; the only form a panel center can carry, as
        iterated_integral keeps every other form off [0, 1].  It is integrated
        by exponent shift there; like a form at 1 on the final panel, its
        entry is a placeholder.
        """
        kern = self._get("kernels")
        if kern is not None:
            return kern
        M, sing, n = self.order, self.sing, len(self.steps)
        S = len(sing)
        ratio = np.empty((S + 1, n + 1), complex)
        den = ratio[:S]
        col = np.array(sing)[:, None]
        np.subtract(col, self.centers, out=den[:, :n])
        np.subtract(1.0, col, out=den[:, n:])
        index = {s: k for k, s in enumerate(sing)}
        zero = index.get(0) if self.centers[:1] == [0.0] else None
        if zero is not None:
            den[zero, 0] = 1.0
        if 1 in index:
            den[index[1], n] = 1.0
        dist = np.abs(den)
        np.reciprocal(den, out=den)
        ratio[S, :n] = self.steps
        ratio[S, n] = 1.0 - self.t
        pw = np.empty((S + 1, n + 1, M + 1), complex)
        pw[...] = ratio[..., None]
        pw[..., 0] = 1.0
        flat = dist.ravel().tolist()
        if M * math.log(max(max(flat), 1 / min(flat))) <= SCALE_LIMIT:
            # what _blocks returns here, without its dozen numpy calls,
            # which would add a quarter to a single-use plan on 1-2 panels
            blocks = [M] * S
            pw.cumprod(2, out=pw)
        else:   # lg = 0 at placeholders divides by zero; far powers may overflow
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                blocks = _blocks(-np.log(dist), M)
                pw.cumprod(2, out=pw)
        kern = (pw, blocks, index, zero)
        self._keep("kernels", kern, pw.nbytes)
        return kern

    # --- interior panels ---

    def _interior_root(self):
        """Level 0: the constant 1 on every panel."""
        coef = np.zeros((len(self.steps), self.order + 1), complex)
        coef[:, 0] = 1.0
        return coef, [0.0] * len(self.steps), (), ()

    def _interior(self, prev, a, j: int, coef, kern):
        """Coefficients of level j of a on every interior panel, written to
        coef, from those of level j - 1 in prev; returns the value of level j
        at the end of the last interior panel.

        With the form's kernel -g^(n+1) (see _kernels), coefficient n + 1 is
        -g^(n+1)/(n+1) times the prefix sum of prev[i] g^-i, i <= n: one
        _next_level over all panels at once.  A form at 0 on the t0 = 0 panel
        sits at the panel's center and is integrated by exponent shift there
        instead, which requires the previous level to vanish there.  Each
        panel's row summed against its step powers is the change of the
        level across the panel; one cumsum chains them into the values at
        the panels' ends, and each panel's constant term is the value at the
        end of the panel before it.
        """
        M = self.order
        pw, blocks, index, zero = kern
        k = index[a[j - 1]]
        out = coef[:, 1:]
        _next_level(prev, pw[k, :-1], blocks[k], out)
        out /= _ramps(M)[2]
        if k == zero:
            scale = max(1.0, float(np.abs(prev[0]).max()))
            if abs(prev[0, 0]) > 1e-12 * scale:
                raise EvaluationError("nonvanishing integrand at singular panel center", 0, a)
            coef[0, 1:] = prev[0, 1:] / _ramps(M)[1]
        ends = (out * pw[-1, :-1, 1:]).sum(1)
        coef[0, 0] = 0.0
        if len(ends) > 1:
            ends = ends.cumsum()
            coef[1:, 0] = ends[:-1]
        return ends[-1]

    def _extend(self, level, a, i: int, n: int, kern):
        """Levels i + 1..n of a from level i, each kept; returns level n.
        Each level is one _interior step over all panels, in the powers of
        kern, the plan's _kernels.

        A level is (coef, cum, ends, ests): coef[p] the coefficients on panel
        p; cum[p] panel p's error terms summed over levels 1..j; ends[l - 1] the
        value of level l at the end of the last interior panel; ests[l - 1] the
        sum of level l's cum over panels.  The error terms of the new levels,
        max(|c_{M-1}| h^{M-1}, |c_M| h^M) per panel scaled as in the
        panel-by-panel march, are formed together once their coefficients are
        known, then summed over levels and over panels in the same order.
        """
        M = self.order
        coefs = np.empty((n - i,) + level[0].shape, complex)
        prev, ends = level[0], level[2]
        for j, coef in zip(range(i + 1, n + 1), coefs):
            ends += (self._interior(prev, a, j, coef, kern),)
            prev = coef
        # |c_{M-1}| h^{M-1} and |c_M| h^M per level and panel.  np.abs of a
        # complex array may differ in the last bit from abs() of one entry;
        # np.hypot does not.
        top = coefs[:, :, M - 1:]
        tails = (np.hypot(top.real, top.imag) * kern[0][-1, :-1, M - 1:].real).tolist()
        safety, rest = self.safety, 1.0 - self.safety
        cum, ests = level[1], level[3]
        for j, coef, panels in zip(range(i + 1, n + 1), coefs, tails):
            cum = [c + max(t_top, t_below) * safety / rest
                   for c, (t_below, t_top) in zip(cum, panels)]
            ests += (reduce(add, cum),)
            level = (coef, cum, ends[:j], ests)
            self._keep((None, a[:j]), level, coef.nbytes + 8 * len(cum))
        return level

    # --- final panel ---

    def _final_consts(self, P: int, kern):
        """(K, upow, logf, complex upow, complex lpow) of the final panel for P
        forms at 1: upow[m] = u^m (a view of the kernel table) and lpow[p] =
        log(u)^p at the panel's far end, logf = max(1, |log u|)^P; the complex
        arrays are what the dot products cast them to."""
        L = math.log(1.0 - self.t)
        upow = kern[0][-1, -1]
        lpow = np.array([L ** p for p in range(P + 1)], complex)
        return _log_int_table(self.order, P), upow.real, max(1.0, abs(L)) ** P, upow, lpow

    def _final_root(self, P: int):
        cur = np.zeros((self.order + 1, P + 1), complex)
        cur[0, 0] = 1.0
        return cur, 0.0, 0.0

    def _final(self, level, s: complex, F, interior_est, fc, kern):
        """Level j of the final panel from level j - 1, in u = 1 - t.

        A level is (cur, est, interior_est): cur[m, p] the coefficient of
        u^m log^p u; est the error terms summed over levels 1..j; interior_est
        the estimate of the interior panels of the word forms[:j].  Forms at 1
        divide by u and raise the log degree; any other form convolves every
        log power at once with its kernel -g^(n+1) (see _kernels), one
        _next_level along u, before the log integration.  F is level j's
        value at the end of the last interior panel.
        """
        prev = level[0]
        M = self.order
        K, upow, logf, upow_c, lpow_c = fc
        P = len(lpow_c) - 1
        cur = np.zeros(prev.shape, complex)
        if s == 1:
            # integrand prev[m, p] u^{m-1} log^p u
            for p in range(P):
                cur[0, p + 1] += prev[0, p] / (p + 1)
            _log_integrate(cur[1:], prev[1:], K)
        else:
            pw, blocks, index, _ = kern
            k = index[s]
            prod = _next_level(prev.T, pw[k, -1:], blocks[k], np.empty((P + 1, M), complex))
            _log_integrate(cur[1:], prod.T, K, np.subtract)
        partial = complex(cur.dot(lpow_c).dot(upow_c))
        cur[0, 0] = F - partial
        below, top = np.maximum.reduce(np.abs(cur[M - 1:]), axis=1)
        tail = max(top * upow[M], below * upow[M - 1])
        return cur, level[1] + tail * logf * self.safety / (1.0 - self.safety), interior_est

    def _close(self, level):
        """(value, est) of the final panel: the value of the last level at u = 0
        is its (0, 0) coefficient; leftover (0, p >= 1) coefficients measure how
        far the input was from an honestly convergent word and are folded into
        the estimate."""
        cur, est, _ = level
        L = math.log(1.0 - self.t)
        resid = sum(abs(cur[0, p]) * abs(L) ** p for p in range(1, cur.shape[1]))
        return complex(cur[0, 0]), est + resid

    # --- one word ---

    def integrate(self, a: tuple) -> tuple[complex, float]:
        """(value, est) of the integral of the forms a, resuming from the
        longest prefix of a already marched under this plan."""
        n = len(a)
        P = a.count(1)
        f, final = self._deepest(P, a, n)
        if f < n:
            kern = self._kernels()
            fc = self._final_consts(P, kern)
            i, level = self._deepest(None, a, n)
            if i < n:
                level = self._extend(level or self._interior_root(), a, i, n, kern)
            ends, ests = level[2], level[3]
            final = final or self._final_root(P)
            for j in range(f + 1, n + 1):
                final = self._final(final, a[j - 1], ends[j - 1], ests[j - 1], fc, kern)
                self._keep((P, a[:j]), final, final[0].nbytes)
        value, est = self._close(final)
        return value, (final[2] + est) * 4.0


@memo(maxsize=PLANS)
def _plan(sing: tuple, order: int, safety: float) -> _Plan:
    """Plan of the sorted singularities sing at (panel_order, panel_safety)."""
    return _Plan(sing, *_layout(sing, order, safety), order, safety)


def iterated_integral(forms, cfg: EvalConfig = DEFAULT_CONFIG):
    """int_0^1 of the composed forms dt/(t - a_1) ... dt/(t - a_n), the first
    form attached to the innermost variable.  Returns (value, est_error, plan).
    """
    a = tuple(complex(s) for s in forms)
    n = len(a)
    if n == 0:
        return 1 + 0j, 0.0, PanelPlan((), (), cfg.panel_order)
    if a[0] == 0:
        raise DomainError("leading form at 0: integral diverges at the origin")
    if a[-1] == 1:
        raise DomainError("trailing form at 1: integral diverges at the endpoint")
    sing = tuple(sorted(set(a), key=lambda s: (s.real, s.imag)))
    for s in sing:
        if s not in (0, 1) and _seg_dist(s) < PATH_CLEARANCE:
            raise DomainError(f"form singularity {s} lies on the integration path")
    try:
        plan = _plan(sing, cfg.panel_order, cfg.panel_safety)
    except EvaluationError as e:   # the witness is this word's forms
        raise EvaluationError(e.args[0], e.panels, a) from None
    # a march that overflows next to a form is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, est = plan.integrate(a)
    if not (cmath.isfinite(value) and math.isfinite(est)):
        raise EvaluationError("non-finite panel value", len(plan.public.steps), a)
    return value, est, plan.public


def check_tails(z: ArgVector) -> tuple[complex, ...]:
    """The tail products of z; DomainError if one lies in (1, inf)."""
    g = z.tails
    for gi in g:
        if gi.imag == 0 and gi.real > 1:
            raise DomainError(f"tail product {gi} lies in (1, inf)")
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
    g = check_tails(z)
    if k.parts[-1] == 1 and z.symbols[-1].value == 1:
        raise DomainError("terminal pair (k_d, z_d) = (1, 1) diverges")
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
    return (cfg.series_truncation, cfg.panel_order, cfg.panel_safety)


def value_key(k: Index, z: ArgVector, cfg: EvalConfig, tag: str) -> CacheKey:
    """Key of the value at (k, z) by route or regularization mode `tag`; its
    args are (k, z, cfg, tag)."""
    return CacheKey((tag, k.parts, z.entries, z.tails) + _knobs(cfg), k, z, cfg, tag)


@memo(maxsize=400_000)
def _li_cached(key: CacheKey) -> EvalResult:
    k, z, cfg, route = key.args
    if route == "auto":   # li_series also takes a zero entry and the empty index
        inside = 0 in z.entries or max(map(abs, z.tails), default=0.0) <= SERIES_RADIUS
        route = "series" if inside else "panels"
    return li_series(k, z, cfg) if route == "series" else li_panels(k, z, cfg)


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
    if last is not None and last.value == 1:
        raise DomainError(f"word {w!r} ends in an argument equal to 1; integral diverges")
    forms: list[complex] = []
    for l in w.letters:
        if l is not None:
            if l.value == 0:
                raise DomainError("zero argument letter")
            forms.append(1 / l.value)
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
    multiply in slot order.  Deterministic order; the identity contraction
    comes first.  Contraction number m fuses the gaps whose bit is set in m,
    so it cuts the gaps of the complement: enum_compositions in reverse."""
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    out: list[tuple[Index, ArgVector]] = []
    for blocks in reversed(enum_compositions(k.depth)):
        parts, syms, pos = [], [], 0
        for blen in blocks:
            parts.append(sum(k.parts[pos:pos + blen]))
            s = reduce(mul, z.symbols[pos:pos + blen])
            syms.append(ONE_SYMBOL if s.value == 1 else s)
            pos += blen
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


def _shifted_indices(a: int, k: Index):
    """(coef, k + l) for each weak composition l of a into depth(k) parts, in
    lexicographic order of l; coef = prod_i binom(k_i + l_i - 1, l_i), an int."""
    for l in compositions_of(a, k.depth):
        coef = 1
        for ki, li_ in zip(k.parts, l):
            coef *= math.comb(ki + li_ - 1, li_)
        yield coef, Index(tuple(ki + li_ for ki, li_ in zip(k.parts, l)))


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
    for coef, shifted in _shifted_indices(a, k):
        acc += coef * _value(shifted, z, cfg, mode)
    return (-1) ** a * acc


def li_shift_blocks(a: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                    mode: str = "plain") -> complex:
    """Block-alternating companion of li_shift: the binomial-weighted sum runs
    over star values of contiguous block splittings with sign (-1)^(d+s).

    This is the quasi-shuffle antipode.  In plain and stuffle mode it equals
    li_shift at the reversed index and arguments, and parity.r_factor computes
    it that way; the tests keep this form as the reference for that identity.
    Under the shuffle regularization the identity fails at divergent all-ones
    words (k = (1, 1), z = (1, 1), a = 0 differ by zeta(2)), so r_factor runs
    this form in shuffle mode."""
    if a < 0:
        return 0j
    d = k.depth
    if d == 0:
        return (1 + 0j) if a == 0 else 0j
    acc = 0j
    for coef, shifted in _shifted_indices(a, k):
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
