"""The depth-parity identities this package exists to verify numerically.

Each identity relates a star value at z and a plain value at 1/z to a finite
double sum whose inner factor mixes scaled Bernoulli polynomials of log(-z)
with weight-shifted values on both sides of a split point.  Three flavours:

  plain  convergent arguments off the nonnegative reals
  reg    regularized values (stuffle or shuffle), arguments off R>=0 \\ {1},
         with an extra correction term for all-ones trailing blocks
  mzv    Hirose's formula: the stuffle reg right-hand side at z = (1, ..., 1)
         with the odd powers of log(-1) dropped, so the Bernoulli factor is
         (-1)^(l/2) (2 pi)^l B_l / l! at even l and 0 at odd l (hirose_row)

The right-hand sides are assembled in a fixed lexicographic order over
(m, n, a, b, l); per-(m, n) summands are exposed so regrouping checks can
compare different bracketings.  Floating addition is not associative, so
regrouped totals agree to rounding (documented), while the summand lists
themselves are identical by construction.

Caching: the inner factor r_factor(n - m, k_{m+1..d}, z_{m+1..d}) depends
only on the suffix, so rhs_summands reads each suffix's factors for every
split point as one tuple, r_factors, from a value memo that clear_caches()
empties.  It keys on the numbers the factors read, with branch_at_one only
where log(-1) is read, so a suffix met again across indices, across the two
branches or in Hirose's formula is assembled once.  Within one r_factor the
B-factors are one bernoulli_row, computed once per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .evaluate import CacheKey, _knobs, _value, li, li_shift_blocks, li_shift_jet, li_star, li_star_detail
from .numcore import (
    DEFAULT_CONFIG,
    EvalConfig,
    bernoulli_number,
    bernoulli_row,
    log_minus,
    memo,
)
from .words import ArgVector, Index


def residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


@dataclass
class ParityReport:
    theorem: str
    mode: str
    branch: int
    k: tuple[int, ...]
    z: tuple[complex, ...]
    lhs: complex
    rhs: complex
    residual: float
    star_methods: tuple[str, ...] = ()
    inv_method: str = ""

    def to_record(self) -> dict:
        """Canonical record; deterministic, so no wall-clock fields.  A main
        record also says whether the star at z and the value at 1/z came by
        different routes."""
        rec = {
            "theorem": self.theorem,
            "mode": self.mode,
            "branch": self.branch,
            "k": list(self.k),
            "z": [[w.real, w.imag] for w in self.z],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "star_methods": list(self.star_methods),
            "inv_method": self.inv_method,
        }
        if self.theorem == "main":
            rec["routes_independent"] = self.inv_method not in self.star_methods
        return rec


def all_ones_delta(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """log(-z_d)^d / d! when every place is exactly (1, 1), else 0.

    The nonzero case takes log(-1); its sign is cfg.branch_at_one, and the
    identities hold for either choice."""
    d = k.depth
    if d == 0:
        return 1 + 0j
    for ki, sym in zip(k.parts, z.symbols):
        if ki != 1 or not sym.is_literal_one:
            return 0j
    return log_minus(z.symbols[-1].value, cfg) ** d / math.factorial(d)


def all_ones_delta_mzv(k: Index) -> complex:
    """(-1)^(d/2) pi^d / d! for the all-ones index of even depth, else 0."""
    d = k.depth
    if d == 0:
        return 1 + 0j
    if any(ki != 1 for ki in k.parts):
        return 0j
    if d % 2:
        return 0j
    return (-1) ** (d // 2) * math.pi ** d / math.factorial(d) + 0j


@lru_cache(maxsize=None)
def hirose_row(top: int) -> tuple[float, ...]:
    """The B-factors of Hirose's formula for l = 0..top: (-1)^(l/2) (2 pi)^l
    B_l / l! at even l, 0 at odd l.  This is bernoulli_row(top, 1) on either
    branch of log(-1) = +-i pi without its odd powers of log(-1), which leave
    only l = 1, where the row holds +-i pi."""
    return tuple(0.0 if l % 2 else
                 (-1) ** (l // 2) * (2 * math.pi) ** l * float(bernoulli_number(l))
                 / math.factorial(l)
                 for l in range(top + 1))


def r_factor(n: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
             mode: str = "plain", row: tuple[float, ...] | None = None) -> complex:
    """Inner right-hand-side factor for split point n (1-based, local).

    sum over a + b + l = k_n of
      (-1)^b F_l * blocks-shifted_a(front) * shifted_b(1/back)

    F_l is row[l]; without a given row, the row of B-factors
    bernoulli_row(k_n, z_1...z_d), computed once per call.  Terms whose
    front, back or F_l is 0 are skipped.  rhs_summands reads these factors
    through r_factors, one cached tuple per suffix.

    Each shifted family is read as one jet (li_shift_jet), all of a = 0..k_n
    or b = 0..k_n at once.  The block-alternating front factor is the
    quasi-shuffle antipode, so in plain and stuffle mode it is the jet at the
    reversed front index and arguments, instead of 2^(d-1) block splittings of
    star sums per shifted index.  Reversal keeps every consecutive product and
    its symbols, so the theorem domains are unchanged.  Shuffle mode keeps
    li_shift_blocks: under the shuffle regularization the antipode is not the
    reversed value at divergent all-ones words (k = (1, 1), z = (1, 1), a = 0
    differ by zeta(2)).
    """
    d = k.depth
    if not 1 <= n <= d:
        raise ValueError("split point out of range")
    kn = k.parts[n - 1]
    front_k, front_z = k.cut(1, n - 1), z.cut(1, n - 1)
    if mode == "shuffle":
        fronts = [li_shift_blocks(a, front_k, front_z, cfg, mode) for a in range(kn + 1)]
    else:
        fronts = li_shift_jet(kn, front_k.reversed(), front_z.reversed(), cfg, mode)
    backs = li_shift_jet(kn, k.cut(n + 1, d), z.cut(n + 1, d).reciprocal(), cfg, mode)
    if row is None:
        row = bernoulli_row(kn, z.tails[0], cfg)
    acc = 0j
    for a, front in enumerate(fronts):
        if front == 0:
            continue
        for b in range(kn - a + 1):
            back, factor = backs[b], row[kn - a - b]
            if back == 0 or factor == 0:
                continue
            acc += (-1) ** b * factor * front * back
    return acc


@memo(maxsize=100_000)
def _r_factors_cached(key: CacheKey) -> tuple[complex, ...]:
    k, z, cfg, mode, row = key.args
    return tuple(r_factor(n, k, z, cfg, mode, row) for n in range(1, k.depth + 1))


def r_factors(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
              mode: str = "plain", row: tuple[float, ...] | None = None) -> tuple[complex, ...]:
    """(r_factor(n, k, z, cfg, mode, row) for n = 1..depth), computed together
    and cached as one.  The key is what the factors read: mode, k.parts,
    z.numbers, the numeric knobs, the entries of a given row up to the
    largest part of k, and branch_at_one only where it is read, when no row
    is given and z_1...z_d is exactly 1 (log(-1)).  So a suffix met again,
    in another index, on the other branch (unless its product is 1) or among
    Hirose's indices, whatever their largest part, is assembled once.  Like
    the value keys it holds numbers, not provenance: the fronts read
    products of cuts of z, which a contracted vector may round differently
    in the last bit from a plain vector with its entries and tails."""
    if row is not None:
        row = row[:max(k.parts, default=0) + 1]
    key = ("r_factors", mode, k.parts) + z.numbers + _knobs(cfg) + (row,)
    if row is None and z.tails[0] == 1:
        key += (cfg.branch_at_one,)
    return _r_factors_cached(CacheKey(key, k, z, cfg, mode, row))


def rhs_summands(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                 mode: str = "plain", row: tuple[float, ...] | None = None):
    """Per-(m, n) contributions of the double sum, in lexicographic order;
    the inner factors of one m are the suffix's r_factors, with row."""
    d = k.depth
    for m in range(d):
        star_left = li_star(k.cut(1, m), z.cut(1, m), cfg, mode)
        inners = r_factors(k.cut(m + 1, d), z.cut(m + 1, d), cfg, mode, row)
        for n in range(m + 1, d + 1):
            sign = (-1) ** (m + sum(k.parts[n:]))
            yield (m, n), sign * star_left * inners[n - m - 1]


def _lhs(k: Index, z: ArgVector, cfg: EvalConfig, mode: str) -> complex:
    """Left side shared by every identity: (-1)^d star(z) - (-1)^{|k|} value(1/z),
    plain or regularized by mode."""
    star = li_star(k, z, cfg, mode)
    return (-1) ** k.depth * star - (-1) ** k.weight * _value(k, z.reciprocal(), cfg, mode)


def _rhs(k: Index, z: ArgVector, cfg: EvalConfig, mode: str, delta_of, row=None) -> complex:
    """Right side of a regularized identity: the all-ones correction (minus
    the sum over m of (-1)^m star(k_1..k_m) times delta_of(k_{m+1}..k_d,
    z_{m+1}..z_d)), then the double sum of rhs_summands with row."""
    d = k.depth
    acc = 0j
    for m in range(d):
        delta = delta_of(k.cut(m + 1, d), z.cut(m + 1, d))
        if delta:
            acc -= (-1) ** m * li_star(k.cut(1, m), z.cut(1, m), cfg, mode) * delta
    for _mn, term in rhs_summands(k, z, cfg, mode, row):
        acc += term
    return acc


def main_sides(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> ParityReport:
    """Plain-value identity: star at z against the value at 1/z.  The star
    is one cached value, and star_methods names its one route."""
    star_val, _star_est, star_methods = li_star_detail(k, z, cfg)
    inv = li(k, z.reciprocal(), cfg)
    lhs = (-1) ** k.depth * star_val - (-1) ** k.weight * inv.value
    rhs = q_value(k, z, cfg)
    return ParityReport(
        theorem="main", mode="plain", branch=cfg.branch_at_one,
        k=k.parts, z=z.entries, lhs=lhs, rhs=rhs, residual=residual(lhs, rhs),
        star_methods=star_methods, inv_method=inv.method,
    )


def reg_sides(k: Index, z: ArgVector, mode: str, cfg: EvalConfig = DEFAULT_CONFIG) -> ParityReport:
    """Regularized identity; mode picks the product structure of every factor."""
    if mode not in ("stuffle", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    lhs = _lhs(k, z, cfg, mode)
    rhs = _rhs(k, z, cfg, mode, lambda kt, zt: all_ones_delta(kt, zt, cfg))
    return ParityReport(
        theorem="reg", mode=mode, branch=cfg.branch_at_one,
        k=k.parts, z=z.entries, lhs=lhs, rhs=rhs, residual=residual(lhs, rhs),
    )


def mzv_sides(k: Index, cfg: EvalConfig = DEFAULT_CONFIG) -> ParityReport:
    """Hirose's formula: the stuffle reg identity at all-ones, with the
    Bernoulli factors of hirose_row and the all-ones correction in powers of pi."""
    ones = ArgVector.of((1,) * k.depth)
    lhs = _lhs(k, ones, cfg, "stuffle")
    rhs = _rhs(k, ones, cfg, "stuffle", lambda kt, _zt: all_ones_delta_mzv(kt),
               hirose_row(max(k.parts, default=0)))
    return ParityReport(
        theorem="hirose", mode="stuffle", branch=cfg.branch_at_one,
        k=k.parts, z=ones.entries, lhs=lhs, rhs=rhs, residual=residual(lhs, rhs),
    )


# --- derivative checks ------------------------------------------------------


def p_value(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Left side as a function; 0 on the empty index, where both terms are 1."""
    return _lhs(k, z, cfg, "plain")


def q_value(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Right side as a function; 0 on the empty index (empty double sum)."""
    acc = 0j
    for _mn, term in rhs_summands(k, z, cfg, "plain"):
        acc += term
    return acc


@dataclass
class DerivativeCheck:
    fd: complex
    closed: complex
    resid: float


def _central_diff(f, z: ArgVector, h: float) -> complex:
    entries = list(z.entries)
    zp = ArgVector.of([entries[0] + h] + entries[1:])
    zm = ArgVector.of([entries[0] - h] + entries[1:])
    return (f(zp) - f(zm)) / (2 * h)


def _first_arg_derivative_closed(func, k: Index, z: ArgVector, cfg: EvalConfig) -> complex:
    """Shared recursion shape for the z_1 derivative of either side."""
    d = k.depth
    z1 = z.entries[0]
    if k.parts[0] > 1:
        return func(k.dec_head(), z, cfg) / z1
    rest_k = k.cut(2, d)
    rest_z = z.cut(2, d)
    if d == 1:
        bracket = 0j  # both reduced terms vanish on the empty index
    else:
        bracket = func(rest_k, z.merged_head(), cfg) - func(rest_k, rest_z, cfg)
    tail = (-1) ** rest_k.weight * li(rest_k, rest_z.reciprocal(), cfg).value / z1
    return bracket / (1 - z1) + tail


def check_derivative(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                     h: float = 1e-5) -> tuple[DerivativeCheck, DerivativeCheck]:
    """Central finite difference in z_1 against the closed derivative formula,
    for the left side and the right side separately."""
    fd_p = _central_diff(lambda zz: p_value(k, zz, cfg), z, h)
    fd_q = _central_diff(lambda zz: q_value(k, zz, cfg), z, h)
    cl_p = _first_arg_derivative_closed(p_value, k, z, cfg)
    cl_q = _first_arg_derivative_closed(q_value, k, z, cfg)
    return (
        DerivativeCheck(fd_p, cl_p, residual(fd_p, cl_p)),
        DerivativeCheck(fd_q, cl_q, residual(fd_q, cl_q)),
    )


def check_derivative_r(n: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                       h: float = 1e-5) -> DerivativeCheck:
    """Same finite-difference test for the inner factor at split point n."""
    d = k.depth
    fd = _central_diff(lambda zz: r_factor(n, k, zz, cfg, "plain"), z, h)
    z1 = z.entries[0]
    if k.parts[0] > 1:
        closed = r_factor(n, k.dec_head(), z, cfg, "plain") / z1
    elif n == 1:
        rest_k = k.cut(2, d)
        closed = li(rest_k, z.cut(2, d).reciprocal(), cfg).value / z1
    else:
        closed = r_factor(n - 1, k.cut(2, d), z.merged_head(), cfg, "plain") / (1 - z1)
    return DerivativeCheck(fd, closed, residual(fd, closed))


def limit_probe(k: Index, z_rest: ArgVector, theta: float, ts,
                cfg: EvalConfig = DEFAULT_CONFIG) -> list[float]:
    """|Li_k(1/z) + (-1)^(k_1) r_factor(1, k, z)| at z = (t e^(i theta), z_rest),
    one magnitude per t in ts: the reciprocal side and the split-1 inner
    factor, which cancel as the first argument spirals into 0 (callers check
    decrease)."""
    out = []
    for t in ts:
        z = ArgVector.of((t * complex(math.cos(theta), math.sin(theta)),) + z_rest.entries)
        val = li(k, z.reciprocal(), cfg).value + (-1) ** k.parts[0] * r_factor(1, k, z, cfg)
        out.append(abs(val))
    return out
