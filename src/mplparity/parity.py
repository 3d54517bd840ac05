"""The depth-parity identities this package exists to verify numerically.

Each identity relates a star value at z and a plain value at 1/z to a finite
double sum whose inner factor mixes scaled Bernoulli polynomials of log(-z)
with weight-shifted values on both sides of a split point.  Three flavours:

  plain  convergent arguments off the nonnegative reals
  reg    regularized values (stuffle or shuffle), arguments off R>=0 \\ {1},
         with an extra correction term for all-ones trailing blocks
  mzv    the all-ones specialization, stuffle-regularized, with the log
         correction collapsing to powers of pi

The right-hand sides are assembled in a fixed lexicographic order over
(m, n, a, b, l); per-(m, n) summands are exposed so regrouping checks can
compare different bracketings.  Floating addition is not associative, so
regrouped totals agree to rounding (documented), while the summand lists
themselves are identical by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .evaluate import _value, li, li_shift, li_shift_blocks, li_star, li_star_detail
from .numcore import (
    DEFAULT_CONFIG,
    EvalConfig,
    bernoulli_factor,
    bernoulli_number,
    log_minus,
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
        """Canonical record; deterministic, so no wall-clock fields."""
        return {
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


def r_factor(n: int, k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
             mode: str = "plain") -> complex:
    """Inner right-hand-side factor for split point n (1-based, local).

    sum over a + b + l = k_n of
      (-1)^b B-factor_l(z_1...z_d) * blocks-shifted_a(front) * shifted_b(1/back)

    The block-alternating front factor is the quasi-shuffle antipode, so in
    plain and stuffle mode it is computed as li_shift at the reversed front
    index and arguments: one shifted value per composition of a instead of
    2^(d-1) block splittings of star sums.  Reversal keeps every consecutive
    product and its symbols, so the theorem domains are unchanged.  Shuffle
    mode keeps li_shift_blocks: under the shuffle regularization the antipode
    is not the reversed value at divergent all-ones words (k = (1, 1),
    z = (1, 1), a = 0 differ by zeta(2)).
    """
    d = k.depth
    if not 1 <= n <= d:
        raise ValueError("split point out of range")
    kn = k.parts[n - 1]
    front_k, front_z = k.cut(1, n - 1), z.cut(1, n - 1)
    if mode == "shuffle":
        front_shift = li_shift_blocks
    else:
        front_k, front_z, front_shift = front_k.reversed(), front_z.reversed(), li_shift
    back_k = k.cut(n + 1, d)
    back_z_inv = z.cut(n + 1, d).reciprocal()
    full_prod = z.tails[0]
    acc = 0j
    for a in range(kn + 1):
        front = front_shift(a, front_k, front_z, cfg, mode)
        if front == 0:
            continue
        for b in range(kn - a + 1):
            l = kn - a - b
            back = li_shift(b, back_k, back_z_inv, cfg, mode)
            if back == 0:
                continue
            term = (-1) ** b * bernoulli_factor(l, full_prod, cfg) * front * back
            acc += term
    return acc


def rhs_summands(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG,
                 mode: str = "plain"):
    """Per-(m, n) contributions of the double sum, in lexicographic order."""
    d = k.depth
    for m in range(d):
        star_left = li_star(k.cut(1, m), z.cut(1, m), cfg, mode)
        for n in range(m + 1, d + 1):
            sign = (-1) ** (m + k.cut(n + 1, d).weight)
            inner = r_factor(n - m, k.cut(m + 1, d), z.cut(m + 1, d), cfg, mode)
            yield (m, n), sign * star_left * inner


def _lhs(k: Index, z: ArgVector, cfg: EvalConfig, mode: str) -> complex:
    """Left side shared by every identity: (-1)^d star(z) - (-1)^{|k|} value(1/z),
    plain or regularized by mode."""
    star = li_star(k, z, cfg, mode)
    return (-1) ** k.depth * star - (-1) ** k.weight * _value(k, z.reciprocal(), cfg, mode)


def _delta_terms(k: Index, z: ArgVector, cfg: EvalConfig, mode: str, delta_of) -> complex:
    """All-ones correction: minus the sum over m of (-1)^m star(k_1..k_m) times
    delta_of(k_{m+1}..k_d, z_{m+1}..z_d)."""
    d = k.depth
    acc = 0j
    for m in range(d):
        delta = delta_of(k.cut(m + 1, d), z.cut(m + 1, d))
        if delta:
            acc -= (-1) ** m * li_star(k.cut(1, m), z.cut(1, m), cfg, mode) * delta
    return acc


def main_sides(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> ParityReport:
    """Plain-value identity: star at z against the value at 1/z."""
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
    rhs = _delta_terms(k, z, cfg, mode, lambda kt, zt: all_ones_delta(kt, zt, cfg))
    for _mn, term in rhs_summands(k, z, cfg, mode):
        rhs += term
    return ParityReport(
        theorem="reg", mode=mode, branch=cfg.branch_at_one,
        k=k.parts, z=z.entries, lhs=lhs, rhs=rhs, residual=residual(lhs, rhs),
    )


def mzv_sides(k: Index, cfg: EvalConfig = DEFAULT_CONFIG) -> ParityReport:
    """All-ones specialization, stuffle-regularized throughout."""
    d = k.depth
    ones = ArgVector.of((1,) * d)
    lhs = _lhs(k, ones, cfg, "stuffle")
    rhs = _delta_terms(k, ones, cfg, "stuffle", lambda kt, _zt: all_ones_delta_mzv(kt))
    for m in range(d):
        star_left = li_star(k.cut(1, m), ones.cut(1, m), cfg, "stuffle")
        for n in range(m + 1, d + 1):
            kn = k.parts[n - 1]
            mid_k = k.cut(m + 1, n - 1).reversed()
            mid_z = ones.cut(m + 1, n - 1)
            back_k = k.cut(n + 1, d)
            back_z = ones.cut(n + 1, d)
            for a in range(kn + 1):
                mid = li_shift(a, mid_k, mid_z, cfg, "stuffle")
                if mid == 0:
                    continue
                for b in range(kn - a + 1):
                    if (kn - a - b) % 2:
                        continue
                    l = (kn - a - b) // 2
                    back = li_shift(b, back_k, back_z, cfg, "stuffle")
                    if back == 0:
                        continue
                    coef = (2 * math.pi) ** (2 * l) * float(bernoulli_number(2 * l)) \
                        / math.factorial(2 * l)
                    sign = (-1) ** (m + back_k.weight + b + l)
                    rhs += sign * coef * star_left * mid * back
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
    """Magnitude of the reciprocal-side combination that must vanish as the
    first argument spirals into 0 along angle theta; returns one magnitude per
    t in ts (callers check decrease)."""
    d = z_rest.depth + 1
    k1 = k.parts[0]
    rest_k = k.cut(2, d)
    out = []
    for t in ts:
        z = ArgVector.of((t * complex(math.cos(theta), math.sin(theta)),) + z_rest.entries)
        val = li(k, z.reciprocal(), cfg).value
        for b in range(k1 + 1):
            l = k1 - b
            val += (-1) ** (k1 + b) * bernoulli_factor(l, z.tails[0], cfg) \
                * li_shift(b, rest_k, z_rest.reciprocal(), cfg, "plain")
        out.append(abs(val))
    return out
