"""Numerical evaluation of multiple polylogarithms and of arbitrary convergent
words, of their star values, and of the weight-shifted variants assembled from
them.

Two independent routes produce values, each with one kernel that computes
t-jets (see below); a value is the jet of length one, read off column 0:

  series  nested sum in the tail-product variables g_i = z_i...z_d, usable
          when every |g_i| <= SERIES_RADIUS (_series_jet).  Only tail powers
          appear, never z_i^m (an entry may be huge while every tail product
          is small), and each level sums in blocks short enough that no power
          of g_i nor its inverse passes 1e150, so nothing overflows.

  panels  the iterated-integral representation, marched across [0, 1] in
          one direction.  Each panel re-expands every partial integral as a
          truncated series around the panel's left edge (_layout).  The
          panels abutting t = 0 and t = 1 make integrable endpoint
          singularities exact rather than approached geometrically: a form at
          0 integrates by exponent shift at the first panel's center, and the
          final panel expands in u = 1 - t, one more Taylor row of the march.
          From a word's first form at 1 on, a level also carries a log row,
          the final panel in u^m log^q u, with one log column more at each
          form at 1; its u^0 row is the regularized value of a word that ends
          in forms at 1 (_reg_row).

          A letter of a word is a form, a form minus the form at 0,
          dt/(t - s) - dt/t (the plain star value is one word whose block
          starts after the first are such differences, see li_panels), or a
          jet's block end.

          The panels depend only on the set of singularities and the two
          panel knobs, so all words with one set are marched under one plan,
          one level at a time: level j of a word, the partial integral of its
          prefix forms[:j], is computed on every panel from level j - 1 in one
          pass, its log row and error terms too: a letter is one step
          (_Plan._step), a block end one mix of whole levels (_mix).  A word
          resumes from the longest prefix already marched under its plan.
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

The weight-shifted family li_shift(a, k, z), a = 0..A, is one t-jet
(li_shift_jet): entry a is the coefficient of t^a in the sum of
prod z_i^{m_i} (m_i + t)^-k_i.  A plain jet is computed in one pass, routed as
the value at (k, z) is (_route), every column with its own error estimate: a
series with a t-axis of A + 1 rows, or a march of the value's word with a
block end (k_i, A) after each block (_panel_jet), which mixes whole levels:
Taylor and log rows by the shift weights, error terms by their absolute values
(_mix).  A value's word has no block end, so up to its first block end a jet
shares the value's levels.

Value caches key on what the computation reads, never on provenance or on
branch_at_one.  A value at (k, z) reads k.parts, z.entries, z.tails and the
numeric knobs series_truncation, panel_order and panel_safety, so those (plus
the route or regularization mode, and whether it is the star value) are its
key; a jet's key is the same numbers with its mode and its length A; a word
value reads the forms of its integral and the same knobs.  A plain star is
cached with the plain values, a regularized star (the contraction sum) with
the regularized values.  Both branches of a regularized check and every
ArgVector that carries the same numbers share one computed value.  The
tails are part of the key because equal entries do not imply equal tail
products: a contraction multiplies its base entries in slot order, which can
differ in the last bit from multiplying the fused entries.  A vector's
entries and tails themselves come from a memo keyed on its symbols
(words._numbers), so a cut or a rebuilt vector computes none of them again.

Panel plans keep their layouts, kernel tables (step powers included) and
levels in one least-recently-used store, _STORE, under one byte budget for all
plans, STORE_BYTES.  A plan is admitted to the store on the second word of its
singularity set (_plan): the first word marches on a plan that keeps nothing
and leaves only a marker in the plan's layout slot, so a set read once, as on
workloads with no reuse, fills the store with markers, not with arrays nobody
reads again.  An entry keys on what its plan reads, (sorted singularities,
panel_order, panel_safety), then on "layout", "kernels" or a level's prefix.
A level depends on its prefix alone, so words that share a prefix share its
level, log row included, whatever forms at 1 follow.  A prefix holds the
letters, so a star word shares its leading plain prefix with plain words, and
a jet's levels past its first block end key on its length A.  A level counts
the bytes of its arrays.  clear_caches() empties the store with the value
memos.
"""
from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import mul

import numpy as np

from .numcore import _MEMOS, DEFAULT_CONFIG, DomainError, EvalConfig, EvaluationError, clear_caches, memo
from .words import _LETTERS, ONE_SYMBOL, ArgVector, Index, LinComb, Word, index_of_word

SERIES_RADIUS = 0.95
SERIES_GOAL = 1e-11 * 1e-2   # series tail bound to reach, cap permitting
PATH_CLEARANCE = 1e-9   # singularities this close to (0,1) make panels meaningless
MAX_PANELS = 4000
SCALE_LIMIT = 150 * math.log(10)   # ln 1e150: largest |g|^-j a series block forms
STORE_BYTES = 1 << 22   # all panel plans keep: layouts, kernel tables, levels


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


def _series_tail_bound(r: float, d: int, n: int, star: bool = False) -> float:
    # sum_{M > n} c(M) r^M <= f(n+1) / (1 - q) with f geometric-ish, c(M) the
    # number of index tuples whose largest index is M: C(M-1, d-1) for
    # m_1 < ... < m_d, C(M+d-2, d-1) for the star's m_1 <= ... <= m_d, whose
    # term ratio r (M+d-1)/M falls with M
    if r >= 1:
        return math.inf
    if star:
        f = math.comb(n + d - 1, d - 1) * r ** (n + 1)
        q = r * (n + d) / (n + 1)
    else:
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
    """Prefix sums in powers of one ratio g per row along the last axis,
    written to out and returned: out[..., t] = g (out[..., t-1] + prev[..., t])
    with out[..., -1] = 0, for t below out's width.  pw[..., j] = g^j for
    j = 0..block; pw broadcasts against prev, so one row of pw may serve every
    row of prev, or one panel's powers every column of a jet.

    Unrolled, out[..., t] = g^(t+1) sum_{s<=t} g^-s prev[..., s]: one cumsum of
    prev scaled by inverse powers, rescaled by powers.  The sum restarts every
    `block` terms from the carried out value, so no power beyond g^block nor
    its inverse is formed; the caller picks block to keep those in range."""
    size = out.shape[-1]
    if block >= size:   # the loop's slicing costs a 1-3-form word about 2.5%
        return np.multiply(pw[..., 1:size + 1], (prev[..., :size] / pw[..., :size]).cumsum(-1),
                           out=out)
    for p0 in range(0, size, block):
        q = min(block, size - p0)
        s = (prev[..., p0:p0 + q] / pw[..., :q]).cumsum(-1)
        if p0:
            s += out[..., p0 - 1:p0]
        np.multiply(pw[..., 1:q + 1], s, out=out[..., p0:p0 + q])
    return out


def _series_level(prev: np.ndarray, g: complex) -> np.ndarray:
    """The series level above the rows prev, one entry shorter (prev[:, 0]
    sits at m = i, the result's first entry at m = i + 1), in blocks short
    enough that |g|^block and |g|^-block stay within e^SCALE_LIMIT; a tiny
    tail takes many short blocks."""
    size = max(prev.shape[-1] - 1, 0)
    block = max(1, min(size, int(SCALE_LIMIT / -math.log(abs(g)))))
    pw = np.full((1, block + 1), g)
    pw[0, 0] = 1
    return _next_level(prev, pw.cumprod(1), block, np.empty((len(prev), size), complex))


def _series_terms(r: float, d: int, cfg: EvalConfig, star: bool = False) -> int:
    """Terms a series of depth d with largest tail modulus r sums: the fewest
    that reach SERIES_GOAL, from 32 up in steps of 40%, within the cap."""
    n = min(32, cfg.series_truncation)
    while _series_tail_bound(r, d, n, star) > SERIES_GOAL and n < cfg.series_truncation:
        n = min(cfg.series_truncation, max(n + 8, int(n * 1.4)))
    return n


def _series_jet(A: int, k: Index, z: ArgVector, cfg: EvalConfig,
                star: bool = False) -> tuple[list[complex], list[float], int]:
    """(columns, estimates, n_terms) of the t-jet of the nested sum over
    m_1 < ... < m_d of prod z_i^{m_i} (m_i + t)^-k_i, or with star over
    m_1 <= ... <= m_d: column a is the coefficient of t^a, column 0 the value.

    One array per level over m = i..n, with a leading t-axis of A + 1 rows:
    B_i[m] = m^{-k_i} C_i[m] (_shift_mix mixes the rows), C_1[m] = g_1^m and
    C_i[m] = g_i (C_i[m-1] + B_{i-1}[m-1]), one _series_level for all rows; a
    star level runs over m = 1..n and is inclusive, C_i[m] + B_{i-1}[m].
    Column a's estimate is the truncation bound times C(|k| + a - 1, a), the
    most the coefficient of t^a in prod (m_i + t)^-k_i reaches over
    prod m_i^-k_i, plus 8e-16 times the sum of its terms' moduli."""
    d = k.depth
    if d == 0 or any(e == 0 for e in z.entries):
        return [complex(d == 0)] + [0j] * A, [0.0] * (A + 1), 0
    g = z.tails
    r = max(abs(gi) for gi in g)
    for gi in g:
        if not abs(gi) <= SERIES_RADIUS:   # NaN included, which max may skip
            raise DomainError(f"tail product of modulus {abs(gi):.4f} outside series radius")
    n = _series_terms(r, d, cfg, star)
    bound = _series_tail_bound(r, d, n, star)
    cur = _shift_mix(np.full(n, g[0]).cumprod()[None], k.parts[0], A, n, 0)
    for i in range(1, d):
        if star:
            level = cur.copy()
            level[:, 1:] += _series_level(cur, g[i])
            cur = _shift_mix(level, k.parts[i], A, n, 0)
        else:
            cur = _shift_mix(_series_level(cur, g[i]), k.parts[i], A, n, i)
    w = sum(k.parts)
    ests = [bound * math.comb(w + a - 1, a) + 8e-16 * size
            for a, size in enumerate(abs(cur).sum(-1).tolist())]
    return cur.sum(-1).tolist(), ests, n


def li_series(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
              star: bool = False) -> EvalResult:
    """Nested sum over m_1 < ... < m_d of prod z_i^{m_i} / m_i^{k_i}, or with
    star over m_1 <= ... <= m_d: column 0 of _series_jet."""
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    cols, ests, n = _series_jet(0, k, z, cfg, star)
    return EvalResult(cols[0], ests[0], "series", n_terms=n)


def _shift_weight(k: int, l: int) -> int:
    """Coefficient of t^l in (m + t)^-k, over m^(-k-l): C(k+l-1, l) (-1)^l."""
    return (-1) ** l * math.comb(k + l - 1, l)


def _shift_mix(rows: np.ndarray, k: int, A: int, n: int, i: int) -> np.ndarray:
    """Rows c = 0..A of the t-jet of rows times (m + t)^-k, m = i+1..n along
    the last axis: row c + l takes rows[c] / m^(k+l) times _shift_weight(k, l).
    rows holds A + 1 rows, or one, the rest zero."""
    out = rows / _m_powers(n, k)[i:]   # l = 0
    if len(out) <= A:   # a jet's first level, one row so far
        out = np.concatenate((out, np.zeros((A + 1 - len(out), out.shape[1]), complex)))
    for l in range(1, A + 1):
        live = rows[:A + 1 - l]
        term = live / _m_powers(n, k + l)[i:]
        w = _shift_weight(k, l)
        if w != 1:
            term *= w
        out[l:l + len(live)] += term
    return out


# --- panel route ------------------------------------------------------------


@lru_cache(maxsize=None)
def _ramps(order: int) -> tuple[np.ndarray, ...]:
    """Divisor ramps of one panel order: 1..M and -1..-M."""
    ramps = (np.arange(1, order + 1), -np.arange(1.0, order + 1))
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
    """dst[..., m, q] += sum_p src[..., m, p] K[p, m, q], or -= with
    add=np.subtract, p over the columns of src.  The sum runs in ascending p,
    the order of the term-by-term loop kept in the tests; one einsum or
    matmul would be free to reorder it."""
    for p in range(src.shape[-1]):
        d = dst[..., : p + 1]
        add(d, src[..., p : p + 1] * K[p, :, : p + 1], out=d)


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


class _Store(OrderedDict):
    """What the panel plans keep, least recently used first: key -> (value,
    nbytes), nbytes > 0, the nbytes summing to self.nbytes <= STORE_BYTES.  An
    entry larger than STORE_BYTES is not kept.  Keeping a key again replaces
    its entry, which becomes the most recently used."""

    nbytes = 0

    def find(self, key):
        hit = self.get(key)
        if hit:
            self.move_to_end(key)
            return hit[0]

    def keep(self, key, value, nbytes: int) -> None:
        old = self.pop(key, None)
        if old:
            self.nbytes -= old[1]
        if nbytes <= STORE_BYTES:
            self[key] = value, nbytes
            self.nbytes += nbytes
            while self.nbytes > STORE_BYTES:
                self.nbytes -= self.popitem(last=False)[1][1]

    def cache_clear(self) -> None:
        self.clear()
        self.nbytes = 0


_STORE = _Store()
_MEMOS.append(_STORE)
_SEEN = object()   # a layout slot's marker: a word of the plan has marched, unkept


class _Plan:
    """The panels of one singularity set at one (panel_order, panel_safety),
    and the levels marched under them.

    A level (coef, cum, log) has a leading axis of columns: one for a value,
    A + 1 for a jet past its first block end.  coef holds the Taylor
    coefficients of every interior panel around its left edge, and one more
    row for the final panel in u = 1 - t around t = 1; cum[c, p] the error
    terms of panel p summed over the levels so far.  Up to the word's first
    letter at 1 (_at_one), log is None and coef's last row is the whole final
    panel.  From that letter on, log[c, m, q] is the coefficient of
    u^m log^q u in the final panel, with one log column more at each letter
    at 1, and cum's last column sums the log row's error terms instead of
    the final-panel row's, unscaled by the log powers (_close); that row is
    still stepped but never read.  A level is built from the one below in
    one pass (_extend): a letter is one _step, coefficients and error terms
    together, a block end one _mix of the whole level.

    A plan holds nothing itself.  An admitted plan (kept, see _plan) keeps
    its layout, kernel table and levels as entries of _STORE under its key
    (see the module docstring); a plan not admitted keeps nothing.  Either
    reads what is kept under its key, so a plan built again after its layout
    was dropped resumes from the levels still kept.
    """

    __slots__ = ("key", "sing", "order", "safety", "centers", "steps", "t", "kept")

    def __init__(self, sing, centers, steps, t, order: int, safety: float, kept: bool = False) -> None:
        self.key = (sing, order, safety)
        self.sing, self.order, self.safety = self.key
        self.centers = centers
        self.steps = steps
        self.t = t
        self.kept = kept

    @property
    def public(self) -> PanelPlan:
        """The subdivision, final panel included, built when asked for."""
        return PanelPlan(tuple(self.centers) + (1.0,), tuple(self.steps) + (1.0 - self.t,), self.order)

    def _kernels(self):
        """(pw, blocks, index, zero, hpow): the powers every level convolves with.

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
        entry is a placeholder.  hpow[p] = (h^(M-1), h^M) on panel p, the
        real copy _terms reads, is counted in the bytes a kept plan keeps.
        """
        kern = _STORE.find((self.key, "kernels"))
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
        hpow = pw[-1, :, M - 1:].real.copy()
        kern = (pw, blocks, index, zero, hpow)
        if self.kept:
            _STORE.keep((self.key, "kernels"), kern, pw.nbytes + hpow.nbytes)
        return kern

    def _root(self):
        """Level 0, one column: 1 on every panel, the final panel's row last,
        no error terms and no log row."""
        coef = np.zeros((1, len(self.steps) + 1, self.order + 1), complex)
        coef[..., 0] = 1.0
        return coef, np.zeros((1, len(self.steps) + 1)), None

    def _interior_step(self, prev, letter, coef, kern):
        """The integral of prev times the form letter on every panel and
        column: its coefficients written to coef, its values at the interior
        panels' ends returned.

        With the form's kernel -g^(n+1) (see _kernels), coefficient n + 1 is
        -g^(n+1)/(n+1) times the prefix sum of prev[i] g^-i, i <= n: one
        _next_level over all panels at once.  A pair letter (s, 0) subtracts
        a second such sum for the form at 0.  A form at 0 at the t0 = 0
        panel's center is integrated by exponent shift instead, coefficient n
        being prev[n] / n, which requires the previous level to vanish there.
        A row summed against its step powers is the level's change across the
        panel; one cumsum chains the interior panels' changes into their end
        values, each the next panel's constant term.  The final row's constant
        term is the last interior end value minus the row's change."""
        M = self.order
        pw, blocks, index, zero, _ = kern
        pair = type(letter) is tuple
        k = index[letter[0] if pair else letter]
        out = coef[..., 1:]
        _next_level(prev, pw[k], blocks[k], out)
        if pair:
            k = index[letter[1]]
            minus = _next_level(prev, pw[k], blocks[k], np.empty(out.shape, complex))
            if k == zero:
                minus[..., 0, :] = 0.0   # shifted below
            out -= minus
        out /= _ramps(M)[1]
        if k == zero:
            first = prev[..., 0, :]
            mags = np.abs(first)
            if mags[..., 0].max() > 1e-12 * max(1.0, float(mags.max())):   # the caller adds the forms
                raise EvaluationError("nonvanishing integrand at singular panel center", 0, ())
            shift = first[..., 1:] / _ramps(M)[0]
            if pair:
                coef[..., 0, 1:] -= shift
            else:
                coef[..., 0, 1:] = shift
        rise = (out * pw[-1, :, 1:]).sum(-1)
        ends = rise[..., :-1].cumsum(-1)
        coef[..., 0, 0] = 0.0
        coef[..., 1:, 0] = ends
        coef[..., -1, 0] -= rise[..., -1]
        return ends

    def _terms(self, top, kern):
        """Per column and panel, max(|c_{M-1}| h^{M-1}, |c_M| h^M) scaled as in
        the panel-by-panel march, top = coef[..., M - 1:], h^j from hpow.
        np.hypot, unlike np.abs, rounds as abs() of one entry does."""
        t = np.hypot(top.real, top.imag) * kern[4]
        return np.maximum(t[..., 0], t[..., 1]) * self.safety / (1.0 - self.safety)

    def _log_terms(self, top, kern):
        """Per column, the error term of a log row whose rows m = M - 1 and M
        are top, unscaled by the log powers (_close)."""
        M = self.order
        upow = kern[0][-1, -1].real
        below, top = np.abs(top).max(2).T
        return np.maximum(top * upow[M], below * upow[M - 1]) * self.safety / (1.0 - self.safety)

    def _step(self, level, letter, kern):
        """The level after a letter other than a block end: one _interior_step,
        its _terms added to cum, and on a level with a log row one _final_step
        from the step's interior end values, its _log_terms in place of the
        final-panel row's.  The first letter at 1 (see _at_one) starts the log
        row from the level's final-panel row, as one log column."""
        M = self.order
        coef, cum, log = level
        new = np.empty(coef.shape, complex)
        F = self._interior_step(coef, letter, new, kern)[:, -1]
        terms = self._terms(new[..., M - 1:], kern)
        if log is None and _at_one(letter):
            log = coef[:, -1, :, None]
        if log is not None:
            L = math.log(1.0 - self.t)
            lpow = np.array([L ** p for p in range(log.shape[-1] + _at_one(letter))], complex)
            log = self._final_step(log, letter, F, lpow, kern)
            terms[:, -1] = self._log_terms(log[:, M - 1:], kern)
        return new, cum + terms, log

    def _extend(self, level, a, i: int, n: int, kern):
        """Levels i + 1..n of a from level i, each kept if the plan is kept;
        returns level n.  A letter is one _step, a block end one _mix of the
        whole level by zero steps."""
        zero = lambda lv: self._step(lv, 0j, kern)
        for j, letter in enumerate(a[i:n], i + 1):
            if type(letter) is _BlockEnd:
                level = _mix(letter, level, zero)
            else:
                level = self._step(level, letter, kern)
            if self.kept:
                _STORE.keep((self.key, a[:j]), level, sum(x.nbytes for x in level if x is not None))
        return level

    @staticmethod
    def _interior_est(cum):
        """Per column, the interior panels' error terms cum, summed in order."""
        return np.add.accumulate(cum[:, :-1], 1)[:, -1]

    def _final_step(self, prev, s: complex, F, lpow, kern):
        """The final panel's coefficients of u^m log^q u, u = 1 - t, after the
        letter s, from those in prev, for every column of prev at once, as in
        _interior_step.  lpow[q] = log(u)^q at the panel's far end, one per
        log column of the result; prev has as many, or one fewer when s is at
        1 (see _at_one).

        Forms at 1 divide by u and raise the log degree; any other form
        convolves every log power at once with its kernel -g^(n+1) (see
        _kernels), one _next_level along u, before the log integration.  A
        pair letter (s, 0) does the first for s and subtracts the second for
        its form at 0.  F holds the new level's values at the end of the last
        interior panel, one per column, which fix the constant terms.
        """
        P = len(lpow) - 1
        K, upow = _log_int_table(self.order, P), kern[0][-1, -1]
        cur = np.zeros(prev.shape[:-1] + (P + 1,), complex)
        minus = None
        if type(s) is tuple:
            s, zero = s
            minus = self._along_u(prev, zero, kern)
        if s == 1:
            # integrand prev[m, p] u^{m-1} log^p u
            for p in range(P):
                cur[..., 0, p + 1] += prev[..., 0, p] / (p + 1)
            _log_integrate(cur[..., 1:, :], prev[..., 1:, :], K)
            if minus is not None:
                _log_integrate(cur[..., 1:, :], minus.swapaxes(-1, -2), K)
        else:
            prod = self._along_u(prev, s, kern)
            if minus is not None:
                prod -= minus
            _log_integrate(cur[..., 1:, :], prod.swapaxes(-1, -2), K, np.subtract)
        for col, f in zip(cur, F):   # one column at a time, as dot rounds a 2-D array
            col[0, 0] = f - col.dot(lpow).dot(upow)
        return cur

    def _along_u(self, prev, s: complex, kern):
        """prev, coefficients of u^m log^p u, convolved along u with the kernel
        of the form s on the final panel: one _next_level over every log power."""
        pw, blocks, index, _, _ = kern
        k = index[s]
        out = np.empty(prev.shape[:-2] + (prev.shape[-1], self.order), complex)
        return _next_level(prev.swapaxes(-1, -2), pw[k, -1:], blocks[k], out)

    def _close(self, level):
        """(values, ests) of a level's final panel, one per column, after the
        interior panels' estimates: the constant terms of coef's final-panel
        row, or with a log row its (0, 0) coefficients, its error terms then
        scaled by max(1, |log u|)^P, P the row's log columns but one.
        Leftover (0, q >= 1) coefficients measure how far the input was from
        an honestly convergent word, folded into the estimate."""
        coef, cum, log = level
        est = self._interior_est(cum)
        if log is None:
            return coef[:, -1, 0], est + cum[:, -1]
        L = abs(math.log(1.0 - self.t))
        resid = sum(np.hypot(c.real, c.imag) * L ** p for p, c in enumerate(log[:, 0].T) if p)
        return log[:, 0, 0], est + (cum[:, -1] * max(1.0, L) ** (log.shape[-1] - 1) + resid)

    # --- one word ---

    def march(self, a: tuple):
        """The last level of the letters a, resuming from the longest prefix
        of a already marched under this plan.  A letter is a form, a pair
        (s, 0) read as the form s minus the form at 0, or a _BlockEnd."""
        n = len(a)
        for i in range(n, 0, -1):
            level = _STORE.find((self.key, a[:i]))
            if level is not None:
                break
        else:
            i, level = 0, self._root()
        if i < n:
            level = self._extend(level, a, i, n, self._kernels())
        return level

    def integrate(self, a: tuple):
        """(values, ests) of the integral of the letters a, lists of one per
        column (_close)."""
        values, est = self._close(self.march(a))
        return values.tolist(), [e * 4.0 for e in est.tolist()]


def _at_one(letter) -> bool:
    """Whether the form of a letter, or the first form of a pair, is 1: the
    letters that start or extend a level's log row."""
    return (letter[0] if type(letter) is tuple else letter) == 1


class _BlockEnd(tuple):
    """The letter (k, A) that closes a block [s, 0^(k-1)] of a jet's word of
    A + 1 columns (_mix)."""

    __slots__ = ()


def _mix(letter: _BlockEnd, level, zero):
    """The level (coef, cum, log) after the block end letter = (k, A), of
    columns c = 0..A: column c sums, over l <= c, column c - l of level after
    l more zero steps, coef and log times _shift_weight(k, l), the error terms
    cum times its absolute value, so every zero step's error terms count.
    zero(level) is level after one zero step; level may hold fewer than A + 1
    columns, and log may be None."""
    k, A = letter
    mixed = tuple(x if x is None else np.zeros((A + 1,) + x.shape[1:], x.dtype) for x in level)
    for x, y in zip(mixed, level):
        if y is not None:
            x[:len(y)] = y
    for l in range(1, A + 1):
        level = zero(tuple(x if x is None else x[:A + 1 - l] for x in level))
        w = _shift_weight(k, l)
        for x, y, wl in zip(mixed, level, (w, abs(w), w)):
            if y is not None:
                x[l:l + len(y)] += wl * y
    return mixed


def _layout_bytes(panels: int) -> int:
    """About what a plan of so many panels holds: two lists of floats and the
    plan around them.  A marker counts as a plan of no panels."""
    return 256 + 64 * panels


def _plan(sing: tuple, order: int, safety: float) -> _Plan:
    """Plan of the sorted singularities sing at (panel_order, panel_safety),
    for one word.  The one admission rule of the store: the first word of a
    singularity set marches on a plan that keeps nothing and leaves a marker in
    the plan's layout slot; a later word that finds the marker builds the plan
    again, admitted, and keeps it, and from then on the plan keeps its kernel
    table and levels.  A plan read once keeps no arrays."""
    key = ((sing, order, safety), "layout")
    plan = _STORE.find(key)
    if plan is None or plan is _SEEN:
        plan = _Plan(sing, *_layout(sing, order, safety), order, safety, kept=plan is _SEEN)
        if plan.kept:
            _STORE.keep(key, plan, _layout_bytes(len(plan.steps)))
        else:
            _STORE.keep(key, _SEEN, _layout_bytes(0))
    return plan


def _on_plan(sing, forms: tuple, cfg: EvalConfig, read):
    """(plan, read(plan)), a tuple of lists of numbers, for the plan of the
    singularities sing.  A non-finite singularity, or one on the path other
    than 0 and 1, is a DomainError; a failed layout or march, or a non-finite
    number, is an EvaluationError whose witness is forms."""
    sing = tuple(sorted(sing, key=lambda s: (s.real, s.imag)))
    for s in sing:
        if not cmath.isfinite(s):
            raise DomainError(f"form singularity {s} is not finite")
        if s not in (0, 1) and abs(s - min(max(s.real, 0.0), 1.0)) < PATH_CLEARANCE:
            raise DomainError(f"form singularity {s} lies on the integration path")
    try:
        plan = _plan(sing, cfg.panel_order, cfg.panel_safety)
        # a march that overflows next to a form is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            row = read(plan)
    except EvaluationError as e:
        raise EvaluationError(e.args[0], e.panels, forms) from None
    if not all(map(cmath.isfinite, sum(row, []))):
        raise EvaluationError("non-finite panel value", len(plan.steps) + 1, forms)
    return plan, row


def iterated_integral(forms, cfg: EvalConfig = DEFAULT_CONFIG, star: bool = False):
    """int_0^1 of the composed forms dt/(t - a_1) ... dt/(t - a_n), the first
    form attached to the innermost variable.  Returns (value, est_error, plan).

    With star, every nonzero form after the first stands for that form minus
    the form at 0, dt/(t - a_i) - dt/t: the word of a plain star value.
    """
    a = tuple(complex(s) for s in forms)
    if not a:
        return 1 + 0j, 0.0, PanelPlan((), (), cfg.panel_order)
    if a[0] == 0:
        raise DomainError("leading form at 0: integral diverges at the origin")
    if a[-1] == 1:
        raise DomainError("trailing form at 1: integral diverges at the endpoint")
    letters, sing = a, set(a)
    if star:
        letters = a[:1] + tuple(s if s == 0 else (s, 0j) for s in a[1:])
        if letters != a:
            sing.add(0j)
    plan, (values, ests) = _on_plan(sing, a, cfg, lambda plan: plan.integrate(letters))
    return values[0], ests[0], plan.public


def check_tails(z: ArgVector) -> tuple[complex, ...]:
    """The tail products of z; DomainError if one is not finite or in (1, inf)."""
    g = z.tails
    for gi in g:
        if not cmath.isfinite(gi):
            raise DomainError(f"tail product {gi} is not finite")
        if gi.imag == 0 and gi.real > 1:
            raise DomainError(f"tail product {gi} lies in (1, inf)")
    return g


def li_panels(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
              star: bool = False) -> EvalResult:
    """Integral-representation route, valid outside the unit polydisk too.

    The word is [1/g_1, 0^(k_1-1), 1/g_2, 0^(k_2-1), ...] times (-1)^d.  The
    star value is the same word with each block start after the first read as
    1/g_i minus the form at 0: contracting places i-1 and i turns 1/g_i into
    the form at 0 and flips the sign, so the contraction sum is one integral."""
    d = k.depth
    if d != z.depth:
        raise ValueError("index and argument depth differ")
    if d == 0:
        return EvalResult(1 + 0j, 0.0, "panels")
    val, err, plan = iterated_integral(_panel_word(k, z), cfg, star=star)
    sign = -1.0 if d % 2 else 1.0
    return EvalResult(sign * val, err, "panels", n_panels=len(plan.steps))


def _panel_word(k: Index, z: ArgVector) -> tuple[complex, ...]:
    """The forms [1/g_1, 0^(k_1-1), 1/g_2, 0^(k_2-1), ...] of the value at
    (k, z); DomainError where the panel route cannot take (k, z), a tail
    product that underflows to 0 included."""
    if any(e == 0 for e in z.entries):
        raise DomainError("panel route needs nonzero arguments")
    g = check_tails(z)
    if 0 in g:
        raise DomainError(f"tail products {g} underflow to 0")
    if k.parts[-1] == 1 and z.symbols[-1].value == 1:
        raise DomainError("terminal pair (k_d, z_d) = (1, 1) diverges")
    return tuple(f for gi, ki in zip(g, k.parts) for f in (1 / gi,) + (0j,) * (ki - 1))


def _panel_jet(A: int, k: Index, z: ArgVector, cfg: EvalConfig):
    """(columns, estimates) of the t-jet of li_panels: one march of the value's
    word with a _BlockEnd (k_i, A) after each block, under the plan of the
    forms 1/g_i and, for A >= 1, the form at 0; it fails as the value fails.
    For A >= 1 the estimates also count rounding, which the per-panel terms
    do not: 8e-16 max(1, |column|) per panel and per letter."""
    forms = _panel_word(k, z)
    sing, letters = set(forms), forms
    if A:
        sing.add(0j)
        letters = sum(((1 / gi,) + (0j,) * (ki - 1) + (_BlockEnd((ki, A)),)
                       for gi, ki in zip(z.tails, k.parts)), ())
    plan, (cols, ests) = _on_plan(sing, forms, cfg, lambda plan: plan.integrate(letters))
    if A:
        size = 8e-16 * (len(plan.steps) + len(letters))
        ests = [e + size * max(1.0, abs(c)) for c, e in zip(cols, ests)]
    return ([-c for c in cols] if k.depth % 2 else cols), ests


def _reg_row(k: Index, z: ArgVector, h: int, cfg: EvalConfig) -> tuple[complex, ...]:
    """Coefficients of T^0..T^h of the shuffle-regularized polynomial at
    (k, z), whose last h < depth places are (1, 1), read off one march of the
    panel word with its trailing forms at 1: the u^0 row of the last level's
    log row, sum log[m, p] u^m log^p u, is the regularization at the
    tangential base point at 1, log u read as -T, so coefficient p is
    (-1)^(d+p) log[0, p]; a word with no form at 1 has no log row, and its
    h = 0 coefficient is the constant term of the final-panel row.  A failed
    march names the whole word."""
    d = k.depth
    forms = _panel_word(k.cut(1, d - h), z.cut(1, d - h)) + (1 + 0j,) * h

    def read(plan):
        coef, _, log = plan.march(forms)
        return ((coef[0, -1, :1] if log is None else log[0, 0, :h + 1]).tolist(),)

    _, (row,) = _on_plan(set(forms), forms, cfg, read)
    return tuple((-1) ** (d + p) * c for p, c in enumerate(row))


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


def value_key(k: Index, z: ArgVector, cfg: EvalConfig, tag: str, star: bool = False) -> CacheKey:
    """Key of the value at (k, z) by route or regularization mode `tag`, of
    the star value with star; its args are (k, z, cfg, tag, star)."""
    return CacheKey((tag, star, k.parts) + z.numbers + _knobs(cfg), k, z, cfg, tag, star)


def _route(z: ArgVector) -> str:
    """The route of a value or jet at z: series inside the polydisk of radius
    SERIES_RADIUS or with a zero entry (a value 0), panels otherwise."""
    inside = 0 in z.entries or max(map(abs, z.tails), default=0.0) <= SERIES_RADIUS
    return "series" if inside else "panels"


@memo(maxsize=400_000)
def _li_cached(key: CacheKey) -> EvalResult:
    k, z, cfg, route, star = key.args
    if route == "auto":
        route = _route(z)
    return li_series(k, z, cfg, star) if route == "series" else li_panels(k, z, cfg, star)


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
    if not w:
        return 1 + 0j
    if not w.in_h0:
        raise DomainError(f"word {w!r} is not evaluable (leading x or trailing y1)")
    if w[-1] and _LETTERS[w[-1]].value == 1:
        raise DomainError(f"word {w!r} ends in an argument equal to 1; integral diverges")
    forms: list[complex] = []
    for c in w:
        if c:
            value = _LETTERS[c].value
            if value == 0:
                raise DomainError("zero argument letter")
            forms.append(1 / value)
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
    if not w:
        return 1 + 0j
    k, syms = index_of_word(w)
    z = ArgVector(syms)
    return li(k, z, cfg).value


# --- contractions, compositions, variant sums -------------------------------


def enum_contractions(k: Index, z: ArgVector) -> list[tuple[Index, ArgVector]]:
    """All 2^(d-1) ways of fusing adjacent places: exponents add, arguments
    multiply in slot order.  Deterministic order; the identity contraction
    comes first.  Contraction number m fuses the gaps whose bit is set in m,
    so it cuts the gaps of the complement: enum_compositions in reverse.

    A regularized star value is the sum over these; a plain one is a single
    value (li_star), and the contraction sum serves only as its test
    reference."""
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


def _star(k: Index, z: ArgVector, cfg: EvalConfig) -> EvalResult:
    """The plain star value, routed as li routes and cached with its values;
    at depth 1 or less it is the plain value itself."""
    return _li_cached(value_key(k, z, cfg, "auto", k.depth > 1))


def li_star(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG, mode: str = "plain") -> complex:
    """Star variant: the sum over m_1 <= ... <= m_d, which is the sum of the
    values over all contractions of adjacent places.  A plain star is one
    value, a star series or one star word of the panel route; a regularized
    star is the contraction sum of regularized values, cached with them.  At
    depth 1 or less either star is the value itself, cached as the value."""
    if mode == "plain":
        return _star(k, z, cfg).value
    if mode not in ("stuffle", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    from .regularize import _reg_value_cached

    return _reg_value_cached(value_key(k, z, cfg, mode, k.depth > 1))


def li_star_detail(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG):
    """Plain star value, its error estimate and a one-tuple of its route."""
    r = _star(k, z, cfg)
    return r.value, r.est_error, (r.method,)


def _shifted_indices(a: int, k: Index):
    """(coef, k + l) for each weak composition l of a into depth(k) parts, in
    lexicographic order of l; coef = prod_i binom(k_i + l_i - 1, l_i), an int."""
    for l in compositions_of(a, k.depth):
        coef = 1
        for ki, li_ in zip(k.parts, l):
            coef *= math.comb(ki + li_ - 1, li_)
        yield coef, Index(tuple(ki + li_ for ki, li_ in zip(k.parts, l)))


@memo(maxsize=100_000)
def _jet_cached(key: CacheKey) -> tuple[complex, ...]:
    A, k, z, cfg, mode = key.args
    if mode != "plain":   # per-a sums over cached values, in _shifted_indices order
        jet = []
        for a in range(A + 1):
            acc = 0j
            for coef, shifted in _shifted_indices(a, k):
                acc += coef * _value(shifted, z, cfg, mode)
            jet.append((-1) ** a * acc)
        return tuple(jet)
    return tuple(_plain_jet(A, k, z, cfg)[0])


def _plain_jet(A: int, k: Index, z: ArgVector, cfg: EvalConfig):
    """(columns, estimates) of the plain t-jet of length A at (k, z), routed
    as li routes."""
    if _route(z) == "series":
        return _series_jet(A, k, z, cfg)[:2]
    return _panel_jet(A, k, z, cfg)


def li_shift_jet(A: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                 mode: str = "plain") -> tuple[complex, ...]:
    """(li_shift(a, k, z, cfg, mode) for a = 0..A), computed together and
    cached as one; A is a nonnegative int.

    Since (m + t)^-k = sum_l C(k+l-1, l) (-t)^l m^(-k-l), entry a is the
    coefficient of t^a in the sum over m_1 < ... < m_d of
    prod z_i^{m_i} (m_i + t)^-k_i.  A plain jet is one kernel read
    (_plain_jet), a regularized jet the per-a sums over cached regularized
    values.  A jet raises what computing its entries one by one would raise."""
    if not isinstance(A, int) or A < 0:
        raise ValueError(f"jet length A = {A!r} is not a nonnegative integer")
    if mode not in ("plain", "stuffle", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    if k.depth == 0:
        return (1 + 0j,) + (0j,) * A
    key = ("jet", mode, A, k.parts) + z.numbers + _knobs(cfg)
    return _jet_cached(CacheKey(key, A, k, z, cfg, mode))


def li_shift(a: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
             mode: str = "plain") -> complex:
    """Weight-raised alternating sum: (-1)^a times the binomial-weighted sum of
    values at indices k + l over compositions l of a, entry a of li_shift_jet.
    Returns 0 for a < 0."""
    if a < 0:
        return 0j
    return li_shift_jet(a, k, z, cfg, mode)[a]


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
