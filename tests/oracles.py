"""Independent oracles for the test suite.

Deliberately written without touching the package internals: running prefix
sums instead of the tail-product recursion for the nested series, closed
logarithm forms, mpmath for classical polylogarithms, and scipy quadrature
for one genuinely independent integral evaluation.  Agreement between these
and the library is the substance of the numeric tests.
"""

from __future__ import annotations

import cmath
import itertools
import math

import mpmath


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
