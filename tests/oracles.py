"""Independent oracles for the test suite.

Deliberately written without touching the package internals: running prefix
sums instead of the tail-product recursion for the nested series, closed
logarithm forms, mpmath for classical polylogarithms, and scipy quadrature
for one genuinely independent integral evaluation.  Agreement between these
and the library is the substance of the numeric tests.

The reference kernels at the end are the exception: they are the kernels the
library ran before every value became column 0 of a jet, one per value route
and one per jet route.  They call the library's own primitives (blocked level
sums, panel steps, kernel tables) and keep only the old structure around
them, so the one kernel per route can be held to them bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import reduce
from operator import add

import mpmath
import numpy as np


def brute_li(parts, args, n_terms=2000) -> complex:
    """Nested sum via running prefixes; O(d * n_terms), no library code."""
    d = len(parts)
    if d == 0:
        return 1 + 0j
    if any(a == 0 for a in args):
        return 0j
    # prefix[m] = sum over m_1 < ... < m_i = m of the first i factors
    prefix = [0j] * (n_terms + 1)
    for m in range(1, n_terms + 1):
        prefix[m] = args[0] ** m / m ** parts[0]
    for i in range(1, d):
        running = 0j
        nxt = [0j] * (n_terms + 1)
        for m in range(1, n_terms + 1):
            running += prefix[m - 1]
            nxt[m] = running * args[i] ** m / m ** parts[i]
        prefix = nxt
    return sum(prefix)


def shift_reference(a, parts, value) -> complex:
    """The weight-shifted family entry by entry: (-1)^a times the sum, over the
    weak compositions l of a into len(parts) parts in lexicographic order, of
    the integer prod C(k_i + l_i - 1, l_i) times value(k + l), value a
    function of an exponent tuple.  This is the loop the library ran per a
    before its shifted families became one jet; in regularized modes the jet
    sums in the same order."""
    if a < 0:
        return 0j
    d = len(parts)
    if d == 0:
        return (1 + 0j) if a == 0 else 0j
    acc = 0j
    for l in sorted(c for c in itertools.product(range(a + 1), repeat=d) if sum(c) == a):
        coef = 1
        for ki, li_ in zip(parts, l):
            coef *= math.comb(ki + li_ - 1, li_)
        acc += coef * value(tuple(ki + li_ for ki, li_ in zip(parts, l)))
    return (-1) ** a * acc


def suffix_numbers(symbols) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """An argument vector's entries and tail products the way the library
    computed them before it memoized them: each tail is the product of the
    symbols from its place to the end, multiplied from the last place forward.
    Only the symbols' ``*`` and ``value`` are used."""
    tails, suffix = [], None
    for sym in reversed(symbols):
        suffix = sym if suffix is None else sym * suffix
        tails.append(suffix.value)
    return tuple(s.value for s in symbols), tuple(reversed(tails))


def contraction_sum(contractions, value) -> complex:
    """A star value as the sum of value(k, z) over its contractions (k, z), in
    the order given, starting from 0j: the loop a regularized star ran on
    every call before it was cached."""
    acc = 0j
    for k, z in contractions:
        acc += value(k, z)
    return acc


def mp_polylog(s: int, z: complex, dps: int = 30) -> complex:
    with mpmath.workdps(dps):
        return complex(mpmath.polylog(s, z))


def mp_nested_li(parts, args, n_terms: int, dps: int = 30) -> complex:
    """brute_li's running prefixes in mpmath at dps digits, powers by
    repeated multiplication; no float rounding until the result."""
    return _mp_nested(parts, args, n_terms, dps, 1)


def mp_nested_li_star(parts, args, n_terms: int, dps: int = 30) -> complex:
    """The star sum over m_1 <= ... <= m_d the same way: each running prefix
    takes in the level below at the same m, not only at the m before."""
    return _mp_nested(parts, args, n_terms, dps, 0)


def _mp_nested(parts, args, n_terms: int, dps: int, lag: int) -> complex:
    """Nested sum with m_{i-1} <= m_i - lag, every m_i <= n_terms."""
    with mpmath.workdps(dps):
        zs = [mpmath.mpc(a) for a in args]
        prefix = [mpmath.mpc(0)] * (n_terms + 1)
        power = mpmath.mpc(1)
        for m in range(1, n_terms + 1):
            power *= zs[0]
            prefix[m] = power / mpmath.mpf(m) ** parts[0]
        for i in range(1, len(parts)):
            running, power = mpmath.mpc(0), mpmath.mpc(1)
            nxt = [mpmath.mpc(0)] * (n_terms + 1)
            for m in range(1, n_terms + 1):
                running += prefix[m - lag]
                power *= zs[i]
                nxt[m] = running * power / mpmath.mpf(m) ** parts[i]
            prefix = nxt
        return complex(mpmath.fsum(prefix))


def mp_zeta(s: int, dps: int = 30) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.zeta(s))


def quad_iint_depth2(a1: complex, a2: complex) -> complex:
    """int_0^1 dt/(t - a2) int_0^t ds/(s - a1), inner integral in closed form.

    Valid when neither pole meets [0, 1] and the inner log argument stays in
    a cut-free half plane (poles with nonzero imaginary part).
    """
    from scipy.integrate import quad

    def integrand(t: float) -> complex:
        inner = cmath.log((t - a1) / (-a1))
        return inner / (t - a2)

    re = quad(lambda t: integrand(t).real, 0.0, 1.0, limit=200)[0]
    im = quad(lambda t: integrand(t).imag, 0.0, 1.0, limit=200)[0]
    return complex(re, im)


def closed_li1(z: complex) -> complex:
    return -cmath.log(1 - z)


def closed_dilog_inversion(z: complex, log_minus_z: complex) -> complex:
    """Value of Li_2(z) + Li_2(1/z) away from the positive real axis."""
    return -math.pi ** 2 / 6 - log_minus_z ** 2 / 2


# --- reference kernels --------------------------------------------------------


def ref_li_series(k, z, cfg, star=False):
    """(value, est_error, n_terms) of the series value kernel: one 1-D array
    per level, divided by m^k_i in place of any t-axis."""
    from mplparity import evaluate as E

    d = k.depth
    if d == 0:
        return 1 + 0j, 0.0, 0
    if any(e == 0 for e in z.entries):
        return 0j, 0.0, 0
    g = z.tails
    r = max(abs(gi) for gi in g)
    n = E._series_terms(r, d, cfg, star)
    bound = E._series_tail_bound(r, d, n, star)
    cur = np.full(n, g[0]).cumprod() / E._m_powers(n, k.parts[0])
    for i in range(1, d):
        if star:
            level = cur.copy()
            level[1:] += E._series_level(cur[None], g[i])[0]
            cur = level / E._m_powers(n, k.parts[i])
        else:
            cur = E._series_level(cur[None], g[i])[0] / E._m_powers(n, k.parts[i])[i:]
    return complex(cur.sum()), bound + 8e-16 * float(abs(cur).sum()), n


def _ref_shift_mix(rows, k, A, n, i):
    from mplparity import evaluate as E

    out = np.zeros((A + 1, rows.shape[1]), complex)
    for l in range(A + 1):
        live = rows[:A + 1 - l]
        term = live / E._m_powers(n, k + l)[i:]
        w = E._shift_weight(k, l)
        if w != 1:
            term *= w
        out[l:l + len(live)] += term
    return out


def ref_jet_series(A, k, z, cfg):
    """Columns 0..A of the series jet kernel that ran beside the value
    kernel: plain only, no estimates."""
    from mplparity import evaluate as E

    g = z.tails
    n = E._series_terms(max(abs(gi) for gi in g), k.depth, cfg)
    cur = _ref_shift_mix(np.full(n, g[0]).cumprod()[None], k.parts[0], A, n, 0)
    for i in range(1, k.depth):
        cur = _ref_shift_mix(E._series_level(cur, g[i]), k.parts[i], A, n, i)
    return cur.sum(1)


def _ref_final_consts(plan, P, kern):
    """(upow, logf, lpow) of the log final panel with P + 1 log columns, as the
    value and jet kernels built them: upow[m] = u^m (a view of the kernel
    table), logf = max(1, |log u|)^P and lpow[p] = log(u)^p at the panel's
    far end."""
    L = math.log(1.0 - plan.t)
    lpow = np.array([L ** p for p in range(P + 1)], complex)
    return kern[0][-1, -1].real, max(1.0, abs(L)) ** P, lpow


def ref_integrate(plan, letters, P, log_final=None):
    """(value, est) of the panel value kernel: one column of 2-D levels, the
    interior levels' error terms summed panel by panel in Python floats, then
    with log_final (by default P >= 1) the log final panel marched from the
    root with P + 1 log columns; nothing read from or kept in the store but
    the plan's kernel table."""
    log_final = P >= 1 if log_final is None else log_final
    kern = plan._kernels()
    M = plan.order
    coef = np.zeros((len(plan.steps) + 1, M + 1), complex)
    coef[:, 0] = 1.0
    ends, coefs = [], []
    for letter in letters:
        new = np.empty(coef.shape, complex)
        ends.append(plan._interior_step(coef, letter, new, kern)[-1])
        coefs.append(new)
        coef = new
    top = np.array(coefs)[:, :, M - 1:]
    tails = (np.hypot(top.real, top.imag) * kern[0][-1, :, M - 1:].real).tolist()
    safety, rest = plan.safety, 1.0 - plan.safety
    cum = [0.0] * (len(plan.steps) + 1)
    for panels in tails:
        cum = [c + max(t_top, t_below) * safety / rest for c, (t_below, t_top) in zip(cum, panels)]
    interior = reduce(add, cum[:-1])
    if not log_final:
        return complex(coef[-1, 0]), (interior + cum[-1]) * 4.0
    upow, logf, lpow = _ref_final_consts(plan, P, kern)
    cur = np.zeros((M + 1, P + 1), complex)
    cur[0, 0] = 1.0
    est = 0.0
    for letter, F in zip(letters, ends):
        cur = plan._final_step(cur[None], letter, [F], lpow, kern)[0]
        below, top = np.maximum.reduce(np.abs(cur[M - 1:]), axis=1)
        est = est + max(top * upow[M], below * upow[M - 1]) * logf * safety / (1.0 - safety)
    L = math.log(1.0 - plan.t)
    resid = sum(abs(cur[0, p]) * abs(L) ** p for p in range(1, P + 1))
    return complex(cur[0, 0]), (interior + (est + resid)) * 4.0


def ref_plan_jet(plan, blocks, A, P, log_final=None):
    """Columns 0..A of the panel jet kernel that ran beside the value kernel:
    the word whose blocks (s_i, k_i) are the form s_i then k_i - 1 forms at
    0, marched on a state of A + 1 columns that neither read nor kept levels,
    mixed after each block; no estimates.  The state holds the interior
    panels and, with log_final (by default P >= 1), the log final panel with
    P + 1 log columns from the root on."""
    from mplparity import evaluate as E

    log_final = P >= 1 if log_final is None else log_final
    kern = plan._kernels()
    lpow = _ref_final_consts(plan, P, kern)[2]

    def step(state, s):
        new = np.empty(state[0].shape, complex)
        ends = plan._interior_step(state[0], s, new, kern)
        return (new, plan._final_step(state[1], s, ends[:, -1], lpow, kern)) if log_final else (new,)

    coef = np.zeros((1, len(plan.steps) + 1, plan.order + 1), complex)
    coef[..., 0] = 1.0
    state = (coef,)
    if log_final:
        final = np.zeros((1, plan.order + 1, P + 1), complex)
        final[:, 0, 0] = 1.0
        state += (final,)
    for s, k in blocks:
        state = step(state, s)
        for _ in range(k - 1):
            state = step(state, 0j)
        mixed = tuple(np.zeros((A + 1,) + x.shape[1:], complex) for x in state)
        for x, y in zip(mixed, state):
            x[:len(y)] = y
        shifted = state
        for l in range(1, A + 1):
            shifted = step(tuple(x[:A + 1 - l] for x in shifted), 0j)
            w = E._shift_weight(k, l)
            for x, y in zip(mixed, shifted):
                x[l:l + len(y)] += w * y
        state = mixed
    return state[1][:, 0, 0] if log_final else state[0][:, -1, 0]
