"""Numeric evaluation: series route, panel route, variants, cross-oracles."""

import cmath
import functools
import itertools
import math
import operator
import random
from dataclasses import replace

import numpy as np
import pytest

from mplparity import evaluate, regularize, words
from mplparity.numcore import DEFAULT_CONFIG, DomainError, EvalConfig, EvaluationError, log_minus, zeta
from mplparity.words import ArgSymbol, ArgVector, EMPTY_WORD, Index, ONE_SYMBOL, Word, X
from mplparity.evaluate import (
    PanelPlan,
    _Plan,
    clear_caches,
    compositions_of,
    enum_compositions,
    enum_contractions,
    iterated_integral,
    li,
    li_panels,
    li_series,
    li_shift,
    li_shift_blocks,
    li_star,
    li_star_detail,
    li_word,
    li_word_series_encoding,
)
from mplparity.parity import reg_sides
from mplparity.selftest import run_selftest
from mplparity.words import word_from_index
from oracles import brute_li, closed_li1, mp_nested_li, mp_polylog, quad_iint_depth2

K = Index
V = ArgVector.of


def tails_args(tails):
    """The arguments whose tail products z_i...z_d are tails."""
    return tuple(tails[i] / tails[i + 1] for i in range(len(tails) - 1)) + (tails[-1],)


def sample_in_disk(rng, d, lo=0.2, hi=0.6):
    """Arguments whose tail products have moduli in [lo, hi], off the ray."""
    return tails_args([cmath.rect(rng.uniform(lo, hi), rng.uniform(0.3, 2 * math.pi - 0.3))
                       for _ in range(d)])


def sample_index(rng, max_depth=2, max_weight=4):
    d = rng.randint(1, max_depth)
    parts = []
    budget = max_weight
    for i in range(d):
        parts.append(rng.randint(1, budget - (d - i - 1)))
        budget -= parts[-1]
    return tuple(parts)


# --- series route -------------------------------------------------------------


def test_series_log_closed_form():
    res = li_series(K((1,)), V((0.5,)))
    assert res.value == pytest.approx(math.log(2), abs=1e-14)
    assert abs(res.value - math.log(2)) <= res.est_error


def test_series_dilog_half():
    want = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    res = li_series(K((2,)), V((0.5,)))
    assert res.value == pytest.approx(want, abs=1e-14)


def test_series_empty_and_zero():
    assert li_series(K(()), V(())).value == 1
    assert li_series(K((2, 1)), V((0.5, 0))).value == 0
    assert li(K((1,)), V((0,))).value == 0


def test_series_depth_mismatch():
    with pytest.raises(ValueError):
        li_series(K((1, 2)), V((0.5,)))


def test_series_radius_guard():
    with pytest.raises(DomainError):
        li_series(K((2,)), V((0.97,)))
    with pytest.raises(DomainError):
        li_series(K((1, 1)), V((4 + 0j, 0.3)))  # tail product 1.2


def test_series_against_brute_force():
    # entries sampled in the disk directly: the naive prefix oracle needs
    # every head product bounded, not just the tails
    rng = random.Random("series-brute")
    for _ in range(25):
        d = rng.randint(1, 3)
        parts = tuple(rng.randint(1, 3) for _ in range(d))
        args = tuple(cmath.rect(rng.uniform(0.2, 0.65), rng.uniform(0, 2 * math.pi))
                     for _ in range(d))
        got = li_series(K(parts), V(args))
        want = brute_li(parts, args)
        assert got.value == pytest.approx(want, abs=2e-13), (parts, args)


def test_series_truncation_is_honest():
    # coarse truncation must still cover the truth with its own estimate
    cfg = EvalConfig(series_truncation=64)
    res = li_series(K((1, 1)), V(sample_in_disk(random.Random(7), 2, 0.5, 0.7)), cfg)
    ref = li_series(K((1, 1)), V(sample_in_disk(random.Random(7), 2, 0.5, 0.7)))
    assert abs(res.value - ref.value) <= res.est_error


def _ref_li_series(k, z, cfg=DEFAULT_CONFIG):
    """The per-term loop li_series ran before its levels became array prefix
    sums: (value, n_terms), its truncation search starting at 32 terms."""
    d, g = k.depth, z.tails
    r = max(abs(gi) for gi in g)
    goal = evaluate.SERIES_GOAL
    n = 32
    while evaluate._series_tail_bound(r, d, n) > goal and n < cfg.series_truncation:
        n = min(cfg.series_truncation, max(n + 8, int(n * 1.4)))
    prev = [1 + 0j] + [0j] * n
    for i in range(1, d + 1):
        gi, ki = g[i - 1], k.parts[i - 1]
        cur = [0j] * (n + 1)
        c = 0j
        for m in range(1, n + 1):
            c = gi * (c + prev[m - 1])
            cur[m] = c / m ** ki
        prev = cur
    return complex(sum(prev)), n


def _kernel_cases():
    """(parts, args): tails in the bands 0.2-0.5 and 0.8-0.95; a tail down to
    1e-12 beside near-band tails; entries of modulus about 1e6."""
    rng = random.Random("series-kernel")

    def tail(lo, hi):
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))

    cases = []
    for d in range(1, 6):
        for lo, hi in ((0.2, 0.5), (0.8, 0.95)):
            cases += [sample_in_disk(rng, d, lo, hi) for _ in range(6)]
        for _ in range(3 if d > 1 else 0):
            tails = [tail(0.8, 0.95) for _ in range(d)]
            tails[rng.randrange(1, d)] *= 10 ** -rng.uniform(3, 12)
            cases.append(tails_args(tails))
            tails = [tail(0.5, 0.95) for _ in range(d)]
            i = rng.randrange(d - 1)   # z_i = g_i / g_{i+1} of modulus about 1e6
            tails[i + 1] = tails[i] * cmath.rect(10 ** -rng.uniform(5.8, 6.2), rng.uniform(0, 6.3))
            cases.append(tails_args(tails))
    return [(tuple(rng.randint(1, 6) for _ in args), args) for args in cases]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, EvalConfig(series_truncation=64)],
                         ids=["default", "cap64"])
def test_series_kernel_matches_loop_reference(cfg):
    several_blocks = huge_entry = 0
    for parts, args in _kernel_cases():
        k, z = K(parts), V(args)
        got = li_series(k, z, cfg)
        want, n = _ref_li_series(k, z, cfg)
        assert got.n_terms == n, (parts, args)
        assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want)), (parts, args)
        several_blocks += any(evaluate.SCALE_LIMIT / -math.log(abs(g)) < n - 2
                              for g in z.tails[1:])
        huge_entry += max(map(abs, args)) > 5e5
    assert several_blocks >= 10 and huge_entry >= 10


def test_series_est_error_covers_mpmath_polylog():
    # depth 1 in the near band, where the sums are longest
    rng = random.Random("series-est-depth1")
    misses = []
    for _ in range(400):
        s = rng.choice((1, 2))
        z = cmath.rect(rng.uniform(0.8, 0.95), rng.uniform(0, 2 * math.pi))
        res = li_series(K((s,)), V((z,)))
        err = abs(res.value - mp_polylog(s, z))
        if not err <= res.est_error:
            misses.append((s, z, err, res.est_error))
    assert not misses, misses[:5]


def test_series_est_error_covers_mpmath_nested_sum():
    rng = random.Random("series-est-nested")
    for _ in range(30):
        d = rng.randint(2, 4)
        parts = tuple(rng.randint(1, 3) for _ in range(d))
        args = sample_in_disk(rng, d, 0.8, 0.95)
        n = 64   # oracle terms: n^(d-1) 0.95^n below 1e-24 (1 - 0.95)
        while n ** (d - 1) * 0.95 ** n > 5e-26:
            n += 64
        res = li_series(K(parts), V(args))
        assert abs(res.value - mp_nested_li(parts, args, n)) <= res.est_error, (parts, args)


@pytest.mark.parametrize("cap", [8, 16, 31])
def test_series_truncation_caps_below_32(cap):
    z = V(sample_in_disk(random.Random(cap), 2, 0.3, 0.5))
    res = li_series(K((2, 1)), z, EvalConfig(series_truncation=cap))
    assert res.n_terms <= cap
    assert abs(res.value - li_series(K((2, 1)), z).value) <= res.est_error
    # a depth beyond the cap has no term left: the value is the empty sum
    deep = li_series(K((1,) * 9), V((0.5,) * 9), EvalConfig(series_truncation=8))
    assert deep.value == 0 and deep.n_terms == 8 and deep.est_error > 0


# --- panel route ----------------------------------------------------------------


def test_panels_classical_values():
    assert li_panels(K((2,)), V((-1,))).value == pytest.approx(-math.pi ** 2 / 12, abs=1e-13)
    assert li_panels(K((1,)), V((-3,))).value == pytest.approx(-math.log(4), abs=1e-13)


def test_panels_depth2_all_ones():
    # classical: sum over m1 < m2 of 1/(m1 m2^2) equals the weight-3 zeta value
    res = li_panels(K((1, 2)), V((1, 1)))
    assert res.value == pytest.approx(zeta(3), abs=1e-12)


def test_panels_match_series_in_disk():
    rng = random.Random("overlap")
    for _ in range(30):
        parts = sample_index(rng)
        args = sample_in_disk(rng, len(parts), 0.2, 0.7)
        a = li_series(K(parts), V(args))
        b = li_panels(K(parts), V(args))
        assert abs(a.value - b.value) < 1e-9, (parts, args)


def test_panels_against_mpmath_continuation():
    for s, z in ((2, -2), (2, 2.5j), (3, -4 + 0.5j), (4, -9)):
        got = li_panels(K((s,)), V((z,)))
        want = mp_polylog(s, z)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_panels_against_quadrature():
    for a1, a2 in ((2 + 1j, -0.5 + 1.5j), (-2 - 1j, 3 + 2j), (1.5 + 0.8j, 1.2 - 0.9j)):
        val, est, _plan = iterated_integral([a1, a2])
        want = quad_iint_depth2(a1, a2)
        assert val == pytest.approx(want, abs=1e-11)
        assert abs(val - want) <= max(est, 1e-13)


def test_panels_continuation_via_product_relation():
    # Li_{1,1}(a, b) for |b| > 1 re-expressed through convergent pieces only
    a, b = 0.3, 2.5j
    lhs = li_panels(K((1, 1)), V((a, b))).value
    rhs = (closed_li1(a) * closed_li1(b)
           - li_series(K((2,)), V((a * b,))).value
           - li_series(K((1, 1)), V((b, a))).value)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_panels_accepts_in_disk_points():
    # panel route is valid inside the disk too, not only for continuation
    li_panels(K((2,)), V((0.5,)))


def test_panels_domain_errors():
    with pytest.raises(DomainError):
        li_panels(K((2, 1)), V((3 + 0j, 0.5)))  # tail product 1.5 on the cut
    with pytest.raises(DomainError):
        li_panels(K((1, 1)), V((-1, 1)))  # terminal divergent pair
    with pytest.raises(DomainError):
        li_panels(K((1, 2)), V((0, 1)))  # zero argument


def test_panels_est_error_honest():
    rng = random.Random("honesty")
    tighter = EvalConfig(panel_order=64, panel_safety=0.25)
    for _ in range(12):
        parts = sample_index(rng)
        d = len(parts)
        tails = [cmath.rect(rng.uniform(1.3, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3))
                 for _ in range(d)]
        args = tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)
        res = li_panels(K(parts), V(args))
        ref = li_panels(K(parts), V(args), tighter)
        assert abs(res.value - ref.value) <= max(res.est_error, 1e-14), (parts, args)


# Loop versions of the panel kernels, kept as the reference for the array ones.
# The array march sums each convolution as a blocked prefix sum over all panels
# and chains the panel ends by one cumsum, so it rounds differently: values
# agree within 1e-14 max(1, |ref|) and error estimates within 1e-6 relative.


def _assert_near_ref(got, want, what, noise=False):
    """got and want are (value, est) pairs: the array march and the loop
    reference.  With noise, two estimates below 1e-16 max(1, |ref|), the
    value's own rounding, are top coefficients made of rounding noise: they
    need only stay below it."""
    scale = max(1.0, abs(want[0]))
    assert abs(got[0] - want[0]) <= 1e-14 * scale, (what, got, want)
    if noise and max(got[1], want[1]) < 1e-16 * scale:
        return
    assert abs(got[1] - want[1]) <= 1e-6 * want[1], (what, got, want)


def _ref_log_int_coeffs(mdiv, p):
    return tuple(
        ((-1) ** (p - q)) * (math.factorial(p) / math.factorial(q)) / mdiv ** (p - q + 1)
        for q in range(p + 1)
    )


def _ref_interior_panel(F, t0, h, forms, order, safety):
    M = order
    prev = np.zeros(M + 1, complex)
    prev[0] = 1.0
    newF = np.empty_like(F)
    newF[0] = 1.0
    spow = float(h) ** np.arange(M + 1)
    est = 0.0
    for j in range(1, len(F)):
        w = t0 - forms[j - 1]
        cur = np.zeros(M + 1, complex)
        if w == 0:
            scale = max(1.0, float(np.abs(prev).max()))
            if abs(prev[0]) > 1e-12 * scale:
                raise ArithmeticError("nonvanishing integrand at singular panel center")
            cur[1:] = prev[1:] / np.arange(1, M + 1)
        else:
            geo = (1.0 / w) * (-1.0 / w) ** np.arange(M, dtype=float)
            conv = np.convolve(prev[:M], geo)[:M]
            cur[1:] = conv / np.arange(1, M + 1)
        cur[0] = F[j]
        newF[j] = cur @ spow
        tail = max(abs(cur[M]) * spow[M], abs(cur[M - 1]) * spow[M - 1])
        est += tail * safety / (1.0 - safety)
        prev = cur
    return newF, est


def _ref_final_panel(F, t, forms, order, safety):
    M = order
    uj = 1.0 - t
    L = math.log(uj)
    P = sum(1 for s in forms if s == 1)
    prev = np.zeros((M + 1, P + 1), complex)
    prev[0, 0] = 1.0
    upow = uj ** np.arange(M + 1)
    lpow = np.array([L ** p for p in range(P + 1)])
    est = 0.0
    for j in range(1, len(F)):
        beta = 1.0 - forms[j - 1]
        cur = np.zeros_like(prev)
        if beta == 0:
            for p in range(P):
                cur[0, p + 1] += prev[0, p] / (p + 1)
            for m in range(1, M + 1):
                for p in range(P + 1):
                    c = prev[m, p]
                    if c == 0:
                        continue
                    for q, K in enumerate(_ref_log_int_coeffs(m, p)):
                        cur[m, q] += c * K
        else:
            kern = -(1.0 / beta) * (1.0 / beta) ** np.arange(M + 1)
            prod = np.empty_like(prev)
            for p in range(P + 1):
                prod[:, p] = np.convolve(prev[:, p], kern)[: M + 1]
            for m in range(M):
                for p in range(P + 1):
                    c = prod[m, p]
                    if c == 0:
                        continue
                    for q, K in enumerate(_ref_log_int_coeffs(m + 1, p)):
                        cur[m + 1, q] += c * K
        partial = complex((cur @ lpow) @ upow)
        cur[0, 0] = F[j] - partial
        tail = max(np.abs(cur[M]).max() * upow[M], np.abs(cur[M - 1]).max() * upow[M - 1])
        est += tail * max(1.0, abs(L)) ** P * safety / (1.0 - safety)
        prev = cur
    resid = sum(abs(prev[0, p]) * abs(L) ** p for p in range(1, P + 1))
    return complex(prev[0, 0]), est + resid


def _kernel_forms(rng, n_ones, n_zeros, n_other):
    """Shuffled forms with the given counts at 1 and at 0; the others lie off [0, 1]."""
    forms = [1 + 0j] * n_ones + [0j] * n_zeros
    for _ in range(n_other):
        forms.append(cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3)))
    rng.shuffle(forms)
    return forms


def _kernel_F(rng, n):
    return np.array([1.0] + [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])


def _ref_iterated_integral(forms, cfg=DEFAULT_CONFIG):
    """The panel-by-panel march: each panel advances every level of one word,
    chained from the loop references above."""
    a = [complex(s) for s in forms]
    sing = sorted(set(a), key=lambda s: (s.real, s.imag))
    safety, order = cfg.panel_safety, cfg.panel_order
    r_right = min((abs(1 - s) for s in sing if s != 1), default=1.0)
    u_enter = safety * min(r_right, 1.0)
    r_zero = min(abs(s) for s in sing if s != 0)
    t = 0.0
    F = np.zeros(len(a) + 1, complex)
    F[0] = 1.0
    centers, steps, est = [], [], 0.0
    while 1.0 - t > 0.75 * u_enter:
        R = r_zero if t == 0.0 else min(abs(t - s) for s in sing)
        h = safety * R
        if 1.0 - t - h < 0.75 * u_enter:
            h = 1.0 - t - 0.5 * u_enter
        F, e = _ref_interior_panel(F, t, h, a, order, safety)
        est += e
        centers.append(t)
        steps.append(h)
        t += h
    value, e = _ref_final_panel(F, t, a, order, safety)
    est += e
    return value, est * 4.0, PanelPlan(tuple(centers) + (1.0,), tuple(steps) + (1.0 - t,), order)


@pytest.mark.parametrize("order", [8, 48])
def test_final_panel_matches_loop_reference(order):
    # one final-panel level at a time, from arbitrary values F at the panel's start
    rng = random.Random(f"final-panel-{order}")
    for P in (0, 1, 2, 3):
        for _ in range(4):
            forms = _kernel_forms(rng, P, rng.randint(0, 2), rng.randint(1, 3))
            F = _kernel_F(rng, len(forms))
            t = rng.uniform(0.3, 0.95)
            plan = _Plan(_sorted_set(forms), [], [], t, order, 0.5)
            kern = plan._kernels()
            fc = plan._final_consts(P, kern)
            level = plan._final_root(P)
            for j in range(1, len(forms) + 1):
                level = plan._final(level, forms[j - 1], F[j], 0.0, fc, kern)
            got = plan._close(level)
            want = _ref_final_panel(F, t, forms, order, 0.5)
            _assert_near_ref(got, want, (P, forms, t))


def _sorted_set(forms):
    return tuple(sorted(set(map(complex, forms)), key=lambda s: (s.real, s.imag)))


def _march_interior(plan, forms):
    return plan._extend(plan._interior_root(), tuple(forms), 0, len(forms), plan._kernels())


def _assert_interior_near_ref(got, want, forms):
    """got is an interior level (coef, cum, ends, ests), want the reference
    chain's (F, per-panel estimates)."""
    _, cum, ends, ests = got
    want_F, want_est = want
    for l, (e, w) in enumerate(zip(ends, want_F[1:])):
        _assert_near_ref((e, 1.0), (w, 1.0), (forms, "level", l + 1))
    for c, w in zip(cum, want_est):
        _assert_near_ref((0.0, c), (0.0, w), (forms, "estimate"), noise=True)
    _assert_near_ref((0.0, ests[-1]), (0.0, functools.reduce(operator.add, want_est)), forms)


def _ref_interior_chain(centers, steps, forms, order):
    F = np.zeros(len(forms) + 1, complex)
    F[0] = 1.0
    ests = []
    for t0, h in zip(centers, steps):
        F, e = _ref_interior_panel(F, t0, h, forms, order, 0.5)
        ests.append(e)
    return F, ests


@pytest.mark.parametrize("order", [8, 48])
def test_interior_panel_matches_loop_reference(order):
    # one level on every panel of a run of panels against one panel at a time
    rng = random.Random(f"interior-panel-{order}")
    for _ in range(8):
        forms = _kernel_forms(rng, rng.randint(0, 2), rng.randint(0, 3), rng.randint(1, 3))
        steps = [rng.uniform(0.02, 0.3) for _ in range(rng.randint(1, 4))]
        centers = [rng.uniform(0.05, 0.6)]
        for h in steps[:-1]:
            centers.append(centers[-1] + h)
        plan = _Plan(_sorted_set(forms), centers, steps, centers[-1] + steps[-1], order, 0.5)
        _assert_interior_near_ref(_march_interior(plan, forms),
                                  _ref_interior_chain(centers, steps, forms, order), forms)
    # the t0 = 0 panel: F vanishes above level 0 and forms at 0 integrate by
    # exponent shift (the first form is never at 0)
    for _ in range(4):
        first = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3))
        forms = [first] + _kernel_forms(rng, rng.randint(0, 1), rng.randint(1, 3), 1)
        h = 0.5 * min(abs(s) for s in forms if s != 0)
        centers, steps = [0.0, h], [h, 0.5 * h]
        plan = _Plan(_sorted_set(forms), centers, steps, 1.5 * h, order, 0.5)
        _assert_interior_near_ref(_march_interior(plan, forms),
                                  _ref_interior_chain(centers, steps, forms, order), forms)


# Words whose powers g^48 or g^-48 pass e^SCALE_LIMIT, so their levels sum in
# blocks: (forms, s, rel) with the integral equal to -Li_s(1/forms[0]) when s
# is given, checked against mpmath within rel.  Near the path the panel
# route's true error is far above its estimate (about 7e-13 at 1e-4), so that
# comparison is loose; the loop reference is held to the usual bound.  A tiny
# tail's estimate (about 1e-58) is rounding noise on both sides.
BLOCKED = {
    "near-path-li1": ([0.5 + 1e-4j], 1, 1e-11),         # |g| up to 1e4
    "near-path-li2": ([0.5 + 1e-4j, 0j], 2, 1e-11),
    "tiny-tail-li2": ([2e4 + 1e4j, 0j], 2, 1e-14),      # |g| about 4e-5
    "tiny-tail-li3": ([1e5j, 0j, 0j], 3, 1e-14),
    # a far form summing coefficients as large as 1e5^n: its blocks also
    # keep R^-M |g|^-block within range, R the distance to the nearest form
    "near-path-then-far": ([0.5 + 1e-5j, -1e3 + 1e3j, 0j], None, None),
    "far-then-near-path": ([3e4j, 0.5 - 1e-4j], None, None),
}


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_kernels_match_loop_reference(name):
    forms, s, rel = BLOCKED[name]
    clear_caches()
    got = iterated_integral(forms)
    assert min(_plan_of(forms)._kernels()[1]) < DEFAULT_CONFIG.panel_order
    _assert_near_ref(got[:2], _ref_iterated_integral(forms)[:2], name,
                     noise=name.startswith("tiny-tail"))
    if s is not None:
        want = mp_polylog(s, 1 / forms[0])
        assert abs(-got[0] - want) <= rel * abs(want), (name, got[0], want)


# --- the shared march ---------------------------------------------------------------
#
# Words with one singularity set share a plan, and words that share a prefix
# share its levels.  Each word must get what the panel-by-panel reference gives
# it, within rounding, and whatever was marched before, bit for bit the same.


def _outside_args(rng, d):
    tails = [cmath.rect(rng.uniform(1.3, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3))
             for _ in range(d)]
    return tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)


def _composition_family(rng):
    """The integrals of li_shift: Li_{k+l}(z) over every composition l of a <= 3."""
    words = []
    for d in (1, 2, 3):
        z = V(_outside_args(rng, d))
        k = tuple(rng.randint(1, 2) for _ in range(d))
        for a in range(4):
            for l in compositions_of(a, d):
                forms = []
                for g, ki, li_ in zip(z.tails, k, l):
                    forms += [1 / g] + [0j] * (ki + li_ - 1)
                words.append(tuple(forms))
    return words


def _prefix_family(rng):
    """Words over {s1, s2, 0, 1} that branch off each other's prefixes, with
    P = 0..3 forms at 1; most contain every form, so they share one plan."""
    alphabet = [cmath.rect(rng.uniform(0.6, 2.5), rng.uniform(0.4, 2 * math.pi - 0.4))
                for _ in range(2)] + [0j, 1 + 0j]
    words = [(alphabet[0],)]
    while len(words) < 24 or len({w.count(1) for w in words}) < 4:
        base = rng.choice(words)
        word = list(base[: rng.randint(1, len(base))])
        word += [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        missing = [s for s in alphabet if s not in word]
        rng.shuffle(missing)
        if rng.random() < 0.8:
            word += missing
        if word[-1] == 1:
            word.append(rng.choice(alphabet[:3]))
        if word.count(1) <= 3 and tuple(word) not in words:
            words.append(tuple(word))
    return words


FAMILIES = {"compositions": _composition_family, "prefixes": _prefix_family}


@pytest.mark.parametrize("order", [8, 48])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shared_march_matches_panel_by_panel_reference(family, order):
    rng = random.Random(f"{family}-{order}")
    words = FAMILIES[family](rng)
    cfg = replace(DEFAULT_CONFIG, panel_order=order)
    want = {w: _ref_iterated_integral(w, cfg) for w in words}
    if family == "prefixes":
        assert {w.count(1) for w in words} == {0, 1, 2, 3}
        assert any(0 in w for w in words)
    shuffled = list(words)
    rng.shuffle(shuffled)
    first = {}
    for run, (sequence, cold) in enumerate(((words, True), (words, False),
                                            (shuffled, True), (shuffled, False))):
        if cold:
            clear_caches()
        for w in sequence:
            got = iterated_integral(w, cfg)
            ref = first.setdefault(w, got)
            assert got == ref and repr(got[:2]) == repr(ref[:2]), (run, w)
            _assert_near_ref(got[:2], want[w][:2], (run, w))
            assert got[2] == want[w][2], (run, w)
    assert evaluate._plan.cache_info().hits > 0


def _plan_of(forms, cfg=DEFAULT_CONFIG):
    a = tuple(complex(s) for s in forms)
    sing = tuple(sorted(set(a), key=lambda s: (s.real, s.imag)))
    return evaluate._plan(sing, cfg.panel_order, cfg.panel_safety)


def test_words_sharing_a_plan_reuse_its_levels():
    words = _prefix_family(random.Random("reuse"))
    clear_caches()
    for w in words:
        iterated_integral(w)
    info = evaluate._plan.cache_info()
    assert info.misses < len(words) and info.currsize <= evaluate.PLANS
    plan = _plan_of(words[-1])
    assert plan.public == iterated_integral(words[-1])[2]
    assert any(key[0] is None for key in plan._kept)      # interior levels
    assert any(type(key[0]) is int for key in plan._kept)  # final-panel levels
    assert 0 < plan._nbytes <= evaluate.PLAN_BYTES
    assert plan._nbytes == sum(b for _, b in plan._kept.values())


def test_a_plan_keeps_from_its_first_word(monkeypatch):
    # everything a plan holds is in its byte-bounded store from the first word
    # on: a word sharing a prefix reuses the kernel table and marches only the
    # interior levels past that prefix
    clear_caches()
    first = (-0.5 + 2j, 0j, 0.4 + 0.7j, 0j)
    second = first[:2] + (-0.5 + 2j, 0.4 + 0.7j)   # same forms, shares first[:2]
    iterated_integral(first)
    plan = _plan_of(first)
    kern = plan._get("kernels")
    assert kern is not None
    assert all(plan._get((P, first[:j])) is not None for P in (None, 0) for j in (1, 2, 3, 4))
    assert 0 < plan._nbytes <= evaluate.PLAN_BYTES
    assert plan._nbytes == sum(b for _, b in plan._kept.values())
    marched = []
    interior = evaluate._Plan._interior

    def counted(self, prev, a, j, coef, kern):
        marched.append(j)
        return interior(self, prev, a, j, coef, kern)

    monkeypatch.setattr(evaluate._Plan, "_interior", counted)
    iterated_integral(second)
    assert _plan_of(second) is plan and plan._get("kernels") is kern
    assert marched == [3, 4]


def test_plan_keeps_no_more_than_its_budget(monkeypatch):
    # a budget smaller than any kept array keeps nothing; the values do not change
    words = _composition_family(random.Random("budget"))
    want = [iterated_integral(w) for w in words]
    monkeypatch.setattr(evaluate, "PLAN_BYTES", 100)
    clear_caches()
    assert [iterated_integral(w) for w in words] == want
    plan = _plan_of(words[-1])
    assert plan._nbytes == 0 and not plan._kept


@pytest.mark.parametrize("offset", [1e-7, 1e-8])
def test_nonfinite_march_is_an_evaluation_error(offset):
    # a Taylor coefficient c_n around a panel at distance |w| from the form
    # grows like |w|^-n, so c_48 overflows once |w| falls below about 1e-6.4,
    # well above PATH_CLEARANCE: the march turns non-finite and must not
    # return it as a value
    form = 0.5 + offset * 1j
    with pytest.raises(EvaluationError, match="non-finite") as info:
        iterated_integral([form])
    assert info.value.forms == (form,) and info.value.panels > 1
    with pytest.raises(EvaluationError):
        li_panels(K((2,)), V((1 / form,)))


def test_dispatch_routes():
    assert li(K((1, 1)), V((0.3, 0.4))).method == "series"
    assert li(K((1, 1)), V((2j, -3))).method == "panels"
    # boundary modulus 1 points route to panels even in auto mode
    assert li(K((2,)), V((1j,))).method == "panels"


def test_dispatch_agreement_on_overlap():
    rng = random.Random("dispatch")
    for _ in range(10):
        parts = sample_index(rng)
        args = sample_in_disk(rng, len(parts), 0.3, 0.7)
        a = li(K(parts), V(args), route="series")
        b = li(K(parts), V(args), route="panels")
        assert abs(a.value - b.value) < 1e-9


def test_auto_route_is_the_route_it_reports():
    # auto picks series or panels; the value is that route's value, including
    # a zero entry, the empty index and tails on either side of SERIES_RADIUS
    r = evaluate.SERIES_RADIUS
    cases = [((), ()), ((2, 1), (0, 3)), ((1, 2), (2j, 0)), ((2,), (0.5 * r,)),
             ((2,), (r,)), ((2,), (r + 1e-3,)), ((1, 1), (-1, r * 1j)),
             ((1, 2), (-1, (r + 0.02) * 1j)), ((2, 1), (2j, -3))]
    for parts, args in cases:
        auto = li(K(parts), V(args))
        assert auto == li(K(parts), V(args), route=auto.method), (parts, args)
    methods = {li(K(parts), V(args)).method for parts, args in cases}
    assert methods == {"series", "panels"}


def test_li_rejects_unknown_route():
    with pytest.raises(ValueError):
        li(K((2,)), V((0.5,)), route="fastest")


# --- word-level evaluation -------------------------------------------------------


def test_li_word_values():
    assert li_word(EMPTY_WORD) == 1
    base = (-2 + 0j,)
    w = Word((ArgSymbol(base, (0,)),))
    assert li_word(w) == pytest.approx(-math.log(3), abs=1e-13)
    ones = ArgVector.of((1,))
    w2 = word_from_index(Index((2,)), ones)  # y_1 x
    assert li_word(w2) == pytest.approx(zeta(2), abs=1e-12)


def test_li_word_guards():
    ya = ArgSymbol((0.5 + 0j,), (0,))
    with pytest.raises(DomainError):
        li_word(Word((X, ya)))  # leading x
    with pytest.raises(DomainError):
        li_word(word_from_index(Index((1,)), ArgVector.of((1,))))  # trailing one


def test_li_word_series_encoding_matches_li():
    z = V((0.5, -2))
    w = word_from_index(K((2, 1)), z)
    assert li_word_series_encoding(w) == pytest.approx(li(K((2, 1)), z).value, abs=1e-13)


# --- contractions and compositions -----------------------------------------------


def test_enum_contractions_counts_and_order():
    z3 = V((2j, -1, 0.5))
    out = enum_contractions(K((1, 2, 1)), z3)
    assert len(out) == 4
    assert out[0][0].parts == (1, 2, 1)  # identity first
    merged_all = [item for item in out if item[0].depth == 1]
    assert len(merged_all) == 1
    assert merged_all[0][0].parts == (4,)
    assert merged_all[0][1].entries[0] == pytest.approx(-1j)
    # contraction m fuses the gaps whose bit is set in m
    z4 = V((2j, -1, 0.5, 3))
    assert [kc.parts for kc, _ in enum_contractions(K((1, 2, 4, 8)), z4)] == [
        (1, 2, 4, 8), (3, 4, 8), (1, 6, 8), (7, 8), (1, 2, 12), (3, 12), (1, 14), (15,)]


def test_enum_contractions_merge_to_literal_one():
    out = enum_contractions(K((1, 1)), V((2, 0.5)))
    merged = out[1]
    assert merged[0].parts == (2,)
    assert merged[1].symbols[0] is ONE_SYMBOL


def test_enum_compositions():
    assert enum_compositions(1) == [(1,)]
    assert sorted(enum_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(enum_compositions(4)) == 8


def test_compositions_of():
    assert compositions_of(0, 2) == [(0, 0)]
    assert compositions_of(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(compositions_of(3, 3)) == 10  # stars and bars


# --- star and shifted variants ----------------------------------------------------


def test_star_depth1_is_plain():
    z = V((-2,))
    assert li_star(K((2,)), z) == li(K((2,)), z).value


def test_star_depth2_expansion():
    a, b = 0.3, 0.5j
    got = li_star(K((1, 1)), V((a, b)))
    want = li(K((1, 1)), V((a, b))).value + li(K((2,)), V((a * b,))).value
    assert got == pytest.approx(want, abs=1e-14)


def test_star_empty():
    assert li_star(K(()), V(())) == 1


def test_star_detail_reports_methods():
    z = V((2j, 1.5j))  # tail products -3 and 1.5j, both off (1, inf)
    val, est, methods = li_star_detail(K((1, 1)), z)
    assert methods == ("panels", "panels")
    assert est >= 0 and val == pytest.approx(li_star(K((1, 1)), z))


def test_shift_zero_is_plain():
    z = V((0.4,))
    assert li_shift(0, K((2,)), z) == pytest.approx(li(K((2,)), z).value)


def test_shift_one_on_dilog():
    # single weight-shift composition: binomial C(2,1) = 2 on the raised index
    z = V((0.4,))
    assert li_shift(1, K((2,)), z) == pytest.approx(-2 * li(K((3,)), z).value, abs=1e-14)


def test_shift_empty_conventions():
    assert li_shift(0, K(()), V(())) == 1
    assert li_shift(1, K(()), V(())) == 0
    assert li_shift_blocks(-1, K((2,)), V((0.5,))) == 0


def test_shift_depth2_composition_sum():
    # a = 1 over depth 2 splits as (1,0) and (0,1)
    k, z = K((1, 2)), V((0.3, 0.4))
    want = -(1 * li(K((2, 2)), z).value + 2 * li(K((1, 3)), z).value)
    assert li_shift(1, k, z) == pytest.approx(want, abs=1e-14)


def test_shifted_indices_order_and_coefficients():
    # li_shift and li_shift_blocks both sum in this order with these exact ints
    got = list(evaluate._shifted_indices(2, K((1, 2))))
    assert got == [(3, K((1, 4))), (2, K((2, 3))), (1, K((3, 2)))]
    assert all(type(coef) is int for coef, _ in got)


def test_blocks_depth1_is_star():
    z = V((-2,))
    assert li_shift_blocks(0, K((2,)), z) == pytest.approx(li_star(K((2,)), z))


def test_blocks_depth2_expansion():
    a, b = 0.3, 0.5j
    k, z = K((1, 1)), V((a, b))
    want = -li_star(k, z) + li_star(K((1,)), V((a,))) * li_star(K((1,)), V((b,)))
    assert li_shift_blocks(0, k, z) == pytest.approx(want, abs=1e-14)


def _args_off_ray(rng, d, lo, hi):
    """Arguments with moduli in [lo, hi] whose every consecutive product keeps
    off the nonnegative real axis, so the vector and its reverse both lie in
    the plain domain."""
    while True:
        args = tuple(cmath.rect(rng.uniform(lo, hi), rng.uniform(0.3, 2 * math.pi - 0.3))
                     for _ in range(d))
        if all(not (p.real > 0 and abs(p.imag) < 0.1 * abs(p))
               for i in range(d) for p in itertools.accumulate(args[i:], operator.mul)):
            return args


def test_blocks_reversal_identity():
    # the block sum is the quasi-shuffle antipode: in plain and stuffle mode it
    # is the shifted value at reversed index and arguments
    cases = [
        ((1, 1), (0.3, 0.4)),
        ((2, 1), (0.5j, -0.6)),
        ((1, 3), (-0.7, 0.2 + 0.3j)),
        ((1, 2, 1), (0.3, -0.5, 0.4j)),
    ]
    for parts, args in cases:
        lhs = li_shift_blocks(0, K(parts), V(args))
        rhs = li(K(parts[::-1]), V(args[::-1])).value
        assert lhs == pytest.approx(rhs, abs=1e-12), (parts, args)
    rng = random.Random("blocks-reversal")
    for lo, hi in ((0.2, 0.7), (1.3, 3.0)):   # inside and outside the unit polydisk
        for d in (1, 2, 3):
            k = K(tuple(rng.randint(1, 2) for _ in range(d)))
            z = V(_args_off_ray(rng, d, lo, hi))
            for a in range(3):
                lhs = li_shift_blocks(a, k, z)
                rhs = li_shift(a, k.reversed(), z.reversed())
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (k, z, a)
    # stuffle at depth 3 with trailing exact ones, both branches at log(-1)
    pool = (1, -1, 1j, -1j)
    for parts in ((1, 1, 1), (2, 1, 1), (1, 2, 1)):
        for head in itertools.product(pool, repeat=2):
            k, z = K(parts), V(head + (1,))
            for cfg in (DEFAULT_CONFIG, EvalConfig(branch_at_one=-1)):
                for a in range(3):
                    lhs = li_shift_blocks(a, k, z, cfg, "stuffle")
                    rhs = li_shift(a, k.reversed(), z.reversed(), cfg, "stuffle")
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (k, z, a, cfg)


def test_blocks_reversal_fails_under_shuffle():
    # pinned non-identity: at the divergent all-ones word the shuffle-regularized
    # block sum and the reversed value differ by zeta(2), which is why
    # r_factor keeps the block form in shuffle mode
    k, z = K((1, 1)), V((1, 1))
    for cfg in (DEFAULT_CONFIG, EvalConfig(branch_at_one=-1)):
        gap = li_shift_blocks(0, k, z, cfg, "shuffle") - li_shift(0, k, z, cfg, "shuffle")
        assert gap == pytest.approx(-zeta(2), abs=1e-12)


def test_stuffle_homomorphism_numeric():
    rng = random.Random("homomorphism")
    for _ in range(10):
        a = cmath.rect(rng.uniform(0.2, 0.7), rng.uniform(0.3, 6.0))
        b = cmath.rect(rng.uniform(0.2, 0.7), rng.uniform(0.3, 6.0))
        lhs = li(K((1,)), V((a,))).value * li(K((1,)), V((b,))).value
        rhs = (li(K((1, 1)), V((a, b))).value
               + li(K((1, 1)), V((b, a))).value
               + li(K((2,)), V((a * b,))).value)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# --- value caches ---------------------------------------------------------------
#
# The caches key on the numbers a value is computed from (index, entries, tail
# products, numeric knobs), never on ArgVector provenance or on branch_at_one.

WITNESS = (-1.3 + 0.7j, 0.9 - 1.1j, -0.6 - 1.7j)
REG_POINT = (K((1, 2, 1)), (1j, -1, 1))   # trailing (1, 1): goes through reg_poly


def _misses():
    return evaluate._li_cached.cache_info().misses, regularize._reg_value_cached.cache_info().misses


def test_reg_second_branch_adds_no_misses():
    k, args = REG_POINT
    clear_caches()
    reg_sides(k, V(args), "stuffle", replace(DEFAULT_CONFIG, branch_at_one=1))
    after_first = _misses()
    assert all(after_first)
    rep = reg_sides(k, V(args), "stuffle", replace(DEFAULT_CONFIG, branch_at_one=-1))
    assert _misses() == after_first
    assert rep.branch == -1 and rep.residual < 1e-7


def test_branch_minus_values_match_a_fresh_computation():
    k, args = REG_POINT
    clear_caches()
    reg_sides(k, V(args), "stuffle", replace(DEFAULT_CONFIG, branch_at_one=1))
    cached = reg_sides(k, V(args), "stuffle", replace(DEFAULT_CONFIG, branch_at_one=-1))
    clear_caches()
    fresh = reg_sides(k, V(args), "stuffle", replace(DEFAULT_CONFIG, branch_at_one=-1))
    assert repr((cached.lhs, cached.rhs, cached.residual)) == \
        repr((fresh.lhs, fresh.rhs, fresh.residual))


def test_cut_and_fresh_vector_share_one_entry():
    z = V(WITNESS)
    cut, fresh = z.cut(2, 3), V(z.entries[1:])
    assert cut != fresh   # different provenance, same numbers
    clear_caches()
    a = li(K((2, 1)), cut)
    b = li(K((2, 1)), fresh)
    info = evaluate._li_cached.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    assert b is a


def test_contraction_with_different_tails_gets_its_own_entry():
    k3 = K((1, 1, 1))
    kc, zc = enum_contractions(k3, V(WITNESS))[2]   # places 2 and 3 merged
    fresh = V(zc.entries)
    assert kc == K((1, 2)) and zc.entries == fresh.entries
    assert zc.tails[0] == 3.742 - 0.5559999999999998j
    assert fresh.tails[0] == 3.7420000000000004 - 0.556j
    clear_caches()
    values = [li(kc, zc), li(kc, fresh)]
    assert evaluate._li_cached.cache_info().currsize == 2
    for z, res in zip((zc, fresh), values):
        assert res.method == "panels"
        assert res == li_panels(kc, z)


def test_panel_orders_never_share_an_entry():
    z = V((-1.5, 2j))
    clear_caches()
    results = {}
    for order in (48, 8, 48, 8):
        cfg = replace(DEFAULT_CONFIG, panel_order=order)
        results.setdefault(order, li(K((2, 1)), z, cfg))
        assert results[order] == li_panels(K((2, 1)), z, cfg)
    info = evaluate._li_cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
    assert results[8] != results[48]


def test_tails_equal_prod():
    z = V(WITNESS)
    contractions = [zc for _, zc in enum_contractions(K((1, 1, 1)), z)]
    for v in (z, z.cut(2, 3), z.reversed(), V((1, -1j, 1)), *contractions):
        assert v.tails == tuple(functools.reduce(operator.mul, v.symbols[i - 1:]).value
                                for i in range(1, v.depth + 1))


def test_clear_caches_empties_every_value_memo():
    memos = (evaluate._li_cached, evaluate._li_word_cached, evaluate._plan,
             regularize._reg_value_cached, regularize._decompose_stuffle_word,
             words._stuffle_words, words._shuffle_words)
    k, args = REG_POINT
    reg_sides(k, V(args), "stuffle")
    run_selftest(only=("rho",), seed=0)
    assert all(m.cache_info().currsize > 0 for m in memos)
    clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
