"""Numeric evaluation: series route, panel route, variants, cross-oracles."""

import cmath
import functools
import itertools
import math
import operator
import random
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mplparity import evaluate, numcore, regularize, words
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
    li_shift_jet,
    li_star,
    li_star_detail,
    li_word,
    li_word_series_encoding,
)
from mplparity.parity import reg_sides
from mplparity.selftest import run_selftest
from mplparity.words import word_from_index
from oracles import (brute_li, closed_li1, contraction_sum, mp_nested_li, mp_nested_li_star,
                     mp_polylog, quad_iint_depth2, ref_integrate, ref_jet_series, ref_li_series,
                     ref_plan_jet, shift_reference)

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


# Words with forms at 1 (P of them) whose values are zeta values: the estimate
# counts the log row's error terms scaled by max(1, |log u|)^P.
MZV_WORDS = [((2,), lambda: mpmath.zeta(2)), ((3,), lambda: mpmath.zeta(3)),
             ((1, 2), lambda: mpmath.zeta(3)), ((1, 3), lambda: mpmath.zeta(4) / 4),
             ((2, 2), lambda: mpmath.pi ** 4 / 120), ((1, 1, 2), lambda: mpmath.zeta(4))]


@pytest.mark.parametrize("parts,exact", MZV_WORDS)
def test_panels_est_error_covers_zeta_values(parts, exact):
    k, z = K(parts), V((1,) * len(parts))
    assert evaluate._panel_word(k, z).count(1) == len(parts)
    res = li_panels(k, z)
    with mpmath.workdps(40):
        want = complex(exact())
    assert res.est_error >= abs(res.value - want), (parts, res, want)


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
    # one log row step at a time from the root, from arbitrary values F at the
    # panel's start, one log column more at each form at 1; the reference
    # carries P + 1 log columns throughout
    rng = random.Random(f"final-panel-{order}")
    for P in (0, 1, 2, 3):
        for _ in range(4):
            forms = _kernel_forms(rng, P, rng.randint(0, 2), rng.randint(1, 3))
            F = _kernel_F(rng, len(forms))
            t = rng.uniform(0.3, 0.95)
            plan = _own_plan(forms, [], [], t, order)
            kern = plan._kernels()
            L = math.log(1.0 - t)
            log = np.zeros((1, order + 1, 1), complex)
            log[0, 0, 0] = 1.0
            est = 0.0
            for j in range(1, len(forms) + 1):
                lpow = np.array([L ** p for p in range(log.shape[-1] + (forms[j - 1] == 1))], complex)
                log = plan._final_step(log, forms[j - 1], F[j:j + 1], lpow, kern)
                est = est + plan._log_terms(log[:, order - 1:], kern)
            assert log.shape == (1, order + 1, P + 1)
            # one interior panel with no error terms: the estimate is the log row's
            level = (None, np.array([[0.0, est[0]]]), log)
            got = [x[0] for x in plan._close(level)]
            want = _ref_final_panel(F, t, forms, order, 0.5)
            _assert_near_ref(got, want, (P, forms, t))


def _sorted_set(forms):
    return tuple(sorted(set(map(complex, forms)), key=lambda s: (s.real, s.imag)))


def _own_plan(forms, centers, steps, t, order):
    """A plan on a layout of the test's own, under a key that holds the
    layout, so it reads nothing a plan of _layout's kept; not admitted to the
    store, it keeps nothing itself."""
    plan = _Plan(_sorted_set(forms), centers, steps, t, order, 0.5)
    plan.key = (plan.key, tuple(centers), tuple(steps), t)
    return plan


def _march_interior(plan, forms):
    """(level, ends): the last level of forms marched from the root, and the
    values of each level at the end of the last interior panel, as
    _interior_step returns them."""
    ends = []
    with pytest.MonkeyPatch.context() as m:
        step = _Plan._interior_step

        def recorded(self, *args):
            out = step(self, *args)
            ends.append(out[:, -1])
            return out

        m.setattr(_Plan, "_interior_step", recorded)
        level = plan._extend(plan._root(), tuple(forms), 0, len(forms), plan._kernels())
    return level, ends


def _assert_interior_near_ref(got, want, forms):
    """got is (level, ends) of one column (_march_interior), want the
    reference chain's (F, per-panel estimates)."""
    (_, cum, _), ends = got
    want_F, want_est = want
    assert len(ends) == len(want_F) - 1
    for l, (e, w) in enumerate(zip(ends, want_F[1:])):
        _assert_near_ref((e[0], 1.0), (w, 1.0), (forms, "level", l + 1))
    for c, w in zip(cum[0], want_est):
        _assert_near_ref((0.0, c), (0.0, w), (forms, "estimate"), noise=True)
    _assert_near_ref((0.0, _Plan._interior_est(cum)[0]),
                     (0.0, functools.reduce(operator.add, want_est)), forms)


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
        plan = _own_plan(forms, centers, steps, centers[-1] + steps[-1], order)
        _assert_interior_near_ref(_march_interior(plan, forms),
                                  _ref_interior_chain(centers, steps, forms, order), forms)
    # the t0 = 0 panel: F vanishes above level 0 and forms at 0 integrate by
    # exponent shift (the first form is never at 0)
    for _ in range(4):
        first = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3))
        forms = [first] + _kernel_forms(rng, rng.randint(0, 1), rng.randint(1, 3), 1)
        h = 0.5 * min(abs(s) for s in forms if s != 0)
        centers, steps = [0.0, h], [h, 0.5 * h]
        plan = _own_plan(forms, centers, steps, 1.5 * h, order)
        _assert_interior_near_ref(_march_interior(plan, forms),
                                  _ref_interior_chain(centers, steps, forms, order), forms)


# --- the final panel of a word with no form at 1 ------------------------------
#
# With no form at 1 the final panel is the last row of the interior level, a
# Taylor row in u = 1 - t.  Its reference is the log final-panel chain at
# P = 0 run from the same interior ends (ref_integrate, the log final panel
# itself held to the loop reference above).  The two sum a row against its
# step powers in different orders: values agree within 1e-14 relative,
# estimates within 1e-12 relative.  As in _assert_near_ref, two estimates
# below 1e-16 max(1, |value|) are top coefficients made of rounding noise and
# need only stay below it.  A word with forms at 1 starts its log row from
# this row, so its values and estimates keep to the same bounds against the
# log chain run from the root (test_value_reads_equal_the_value_kernels).


def _far_forms(rng, n_zeros, n_other):
    """Forms for a layout of the test's own: n_zeros at 0 and n_other at
    least 1.2 from [0, 1], shuffled with a nonzero form first."""
    forms = [0j] * n_zeros + [cmath.rect(rng.uniform(2.2, 3.0), rng.uniform(0.5, 2 * math.pi - 0.5))
                              for _ in range(n_other)]
    rng.shuffle(forms)
    first = next(i for i, s in enumerate(forms) if s != 0)
    return [forms.pop(first)] + forms


def _own_layout(rng):
    """(centers, steps, t) from the t0 = 0 panel on, each later step at most
    half its distance to 0, so a form at 0 converges on every panel; the final
    panel is at least 0.1 and at most half of [0, 1]."""
    centers, steps, t = [0.0], [rng.uniform(0.1, 0.3)], 0.0
    end = rng.uniform(0.5, 0.8)
    while True:
        t += steps[-1]
        if t >= end:
            return centers, steps, t
        centers.append(t)
        steps.append(min(rng.uniform(0.3, 0.5) * t, 0.9 - t))


def _star_letters(forms):
    """The letters of the star word of forms (see iterated_integral)."""
    return tuple(forms[:1]) + tuple(s if s == 0 else (s, 0j) for s in forms[1:])


def _p0_plans(rng, order):
    """(plan, letters) of words with no form at 1: plain and star words, with
    and without forms at 0, on _layout's layouts and on the test's own."""
    out = []
    for own in (False, True):
        for n_zeros in (0, 1, 2, 0, 1, 2):
            if own:
                forms = _far_forms(rng, n_zeros, rng.randint(1, 3))
            else:
                forms = _kernel_forms(rng, 0, n_zeros, rng.randint(1, 3))
                forms.insert(0, forms.pop(next(i for i, s in enumerate(forms) if s != 0)))
            for letters in (tuple(forms), _star_letters(forms)):
                sing = set(forms) | ({0j} if letters != tuple(forms) else set())
                if own:
                    plan = _own_plan(sing, *_own_layout(rng), order)
                else:
                    plan = evaluate._plan(_sorted_set(sing), order, 0.5)
                out.append((plan, letters))
    return out


def _assert_rel(got, want, rel, what):
    assert abs(got - want) <= rel * abs(want), (what, got, want)


@pytest.mark.parametrize("order", [8, 48])
def test_p0_final_row_matches_log_final_panel(order):
    rng = random.Random(f"p0-final-row-{order}")
    clear_caches()
    cases = _p0_plans(rng, order)
    assert any(p.centers[:1] == [0.0] and 0j in p.sing for p, _ in cases)   # t0 = 0 shifts
    assert any(type(s) is tuple for _, a in cases for s in a)               # pair letters
    for plan, letters in cases:
        coef, cum, log = plan._extend(plan._root(), letters, 0, len(letters), plan._kernels())
        assert log is None
        want = ref_integrate(plan, letters, 0, log_final=True)
        got = coef[0, -1, 0], (plan._interior_est(cum) + cum[:, -1])[0] * 4.0
        _assert_rel(got[0], want[0], 1e-14, (letters, "value"))
        if max(got[1], want[1]) >= 4e-16 * max(1.0, abs(want[0])):
            _assert_rel(got[1], want[1], 1e-12, (letters, "estimate"))
        values, ests = plan.integrate(letters)
        assert (values[0], ests[0]) == got


def _jet_letters(blocks, A):
    """The letters of a jet of A + 1 columns whose blocks (s_i, k_i) are each
    the form s_i then k_i - 1 forms at 0: a _BlockEnd after every block."""
    return sum(((s,) + (0j,) * (k - 1) + (evaluate._BlockEnd((k, A)),) for s, k in blocks), ())


def test_block_end_mixes_the_zero_steps_error_terms(monkeypatch):
    # with one error term per panel and step, column c of a block end (2, 3)
    # after two letters carries the two letters' terms and its c zero steps',
    # weighted by |_shift_weight(2, c)|
    monkeypatch.setattr(_Plan, "_terms", lambda self, top, kern: np.ones(top.shape[:2]))
    clear_caches()
    s = 0.3 + 1.2j
    plan = _plan_of([s, 0])
    cum = plan.march((s, 0j, evaluate._BlockEnd((2, 3))))[1]
    clear_caches()
    assert cum.shape == (4, len(plan.steps) + 1)
    assert (cum[0] == 2).all()
    for c in range(1, 4):
        assert (cum[c] == abs(evaluate._shift_weight(2, c)) * (2 + c)).all(), c


@pytest.mark.parametrize("order", [8, 48])
def test_p0_jet_matches_two_state_jet(order):
    rng = random.Random(f"p0-jet-{order}")
    clear_caches()
    for own in (False, True):
        for _ in range(4):
            d = rng.randint(1, 3)
            s = _far_forms(rng, 0, d) if own else _kernel_forms(rng, 0, 0, d)
            blocks = list(zip(s, (rng.randint(1, 3) for _ in range(d))))
            A = rng.randint(1, 3)
            sing = set(s) | {0j}
            if own:
                plan = _own_plan(sing, *_own_layout(rng), order)
            else:
                plan = evaluate._plan(_sorted_set(sing), order, 0.5)
            got = plan.integrate(_jet_letters(blocks, A))[0]
            want = ref_plan_jet(plan, blocks, A, 0, log_final=True)
            assert len(got) == want.shape[0] == A + 1
            for c in range(A + 1):
                _assert_rel(got[c], want[c], 1e-14, (blocks, A, c))


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


@pytest.fixture
def built(monkeypatch):
    """The singularity sets whose plans _plan builds from here on, one entry
    per build."""
    sets = []
    layout = evaluate._layout

    def counted(sing, order, safety):
        sets.append(sing)
        return layout(sing, order, safety)

    monkeypatch.setattr(evaluate, "_layout", counted)
    return sets


def _interior_levels(monkeypatch):
    """The levels j that _Plan._extend marches from here on, in order."""
    marched = []
    extend = evaluate._Plan._extend

    def counted(self, level, a, i, n, kern):
        marched.extend(range(i + 1, n + 1))
        return extend(self, level, a, i, n, kern)

    monkeypatch.setattr(evaluate._Plan, "_extend", counted)
    return marched


def _assert_store_within_budget():
    store = evaluate._STORE
    assert 0 < store.nbytes <= evaluate.STORE_BYTES
    assert store.nbytes == sum(b for _, b in store.values())


@pytest.mark.parametrize("order", [8, 48])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shared_march_matches_panel_by_panel_reference(family, order, built):
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
    assert len(built) < 4 * len(words)   # some plan was reused
    _assert_store_within_budget()


def _plan_of(forms, cfg=DEFAULT_CONFIG):
    a = tuple(complex(s) for s in forms)
    sing = tuple(sorted(set(a), key=lambda s: (s.real, s.imag)))
    return evaluate._plan(sing, cfg.panel_order, cfg.panel_safety)


def _kept_levels(plan):
    """The levels kept under plan: the entries keyed on a prefix."""
    return [level for key, (level, _) in evaluate._STORE.items()
            if key[0] == plan.key and type(key[1]) is tuple]


def _warm_up(forms, cfg=DEFAULT_CONFIG):
    """March one word with the singularities of forms, so that the next word
    of their plan is admitted to the store and keeps (evaluate._plan)."""
    sing = _sorted_set(forms)
    lead = next(s for s in sing if s not in (0, 1))
    iterated_integral((lead,) + sing + (lead,), cfg)


def test_words_sharing_a_plan_reuse_its_levels(built):
    words = _prefix_family(random.Random("reuse"))
    clear_caches()
    for w in words:
        iterated_integral(w)
    assert len(built) < len(words)
    plan = _plan_of(words[-1])
    assert plan.public == iterated_integral(words[-1])[2]
    levels = _kept_levels(plan)
    assert any(log is None for _, _, log in levels)       # levels with no log row
    assert any(log is not None for _, _, log in levels)   # levels with a log row
    _assert_store_within_budget()


def test_a_plan_keeps_from_its_first_word(monkeypatch):
    # everything an admitted plan holds is in the store from its first kept
    # word on: a word sharing a prefix reuses the kernel table and marches
    # only the levels past that prefix.  A word with no form at 1 keeps
    # levels whose last row is its final panel, and no log row
    clear_caches()
    first = (-0.5 + 2j, 0j, 0.4 + 0.7j, 0j)
    second = first[:2] + (-0.5 + 2j, 0.4 + 0.7j)   # same forms, shares first[:2]
    _warm_up(first)
    iterated_integral(first)
    plan = _plan_of(first)
    kern = evaluate._STORE.find((plan.key, "kernels"))
    assert kern is not None
    assert all(evaluate._STORE.find((plan.key, first[:j])) is not None for j in (1, 2, 3, 4))
    assert all(log is None for _, _, log in _kept_levels(plan))
    _assert_store_within_budget()
    marched = _interior_levels(monkeypatch)
    iterated_integral(second)
    assert _plan_of(second) is plan and evaluate._STORE.find((plan.key, "kernels")) is kern
    assert marched == [3, 4]


def test_a_plan_whose_layout_was_dropped_resumes_from_its_levels(monkeypatch, built):
    # the store keys on the plan's numbers, so a plan built again finds the
    # kernel table and levels its dropped predecessor kept
    first = (-0.5 + 2j, 0j, 0.4 + 0.7j, 0j)
    second = first[:2] + (-0.5 + 2j, 0.4 + 0.7j)
    clear_caches()
    want = iterated_integral(second)
    clear_caches()
    _warm_up(first)
    iterated_integral(first)
    # drop the least recently used entry, as the budget would: the layout
    key, (plan, nbytes) = evaluate._STORE.popitem(last=False)
    evaluate._STORE.nbytes -= nbytes
    assert key == (plan.key, "layout") and plan.sing == _sorted_set(first)
    kern = evaluate._STORE.find((plan.key, "kernels"))
    assert kern is not None
    built.clear()
    marched = _interior_levels(monkeypatch)
    assert iterated_integral(second) == want
    assert built == [plan.sing] and _plan_of(second) is not plan
    assert evaluate._STORE.find((plan.key, "kernels")) is kern
    assert marched == [3, 4]
    _assert_store_within_budget()


def test_words_over_twelve_plans_fit_in_one_budget(monkeypatch, built):
    # twelve singularity sets visited round-robin, more than a count of eight
    # kept plans would hold: all their arrays fit in STORE_BYTES, so the second
    # pass builds no plan and marches no level, and reads the same values
    rng = random.Random("round-robin")
    sets = [cmath.rect(rng.uniform(1.5, 3.0), 2 * math.pi * (i + 0.5) / 12) for i in range(12)]
    words = [w for s in sets for w in ((s, 0j, -s), (s, -s, 0j))]
    words = words[::2] + words[1::2]
    clear_caches()
    for s in sets:
        _warm_up((s, 0j, -s))
    first = [iterated_integral(w) for w in words]
    assert len(set(built)) == 12
    _assert_store_within_budget()
    marched = []

    def counting(step):
        def counted(*args):
            marched.append(step.__name__)
            return step(*args)
        return counted

    for name in ("_interior_step", "_final_step"):
        monkeypatch.setattr(evaluate._Plan, name, counting(getattr(evaluate._Plan, name)))
    built.clear()
    assert [iterated_integral(w) for w in words] == first
    assert not marched and not built
    _assert_store_within_budget()


def test_plan_keeps_no_more_than_its_budget(monkeypatch):
    # a budget below every entry (the smallest, a one-panel layout, counts 32
    # bytes) keeps nothing; the values do not change
    words = _composition_family(random.Random("budget"))
    want = [iterated_integral(w) for w in words]
    monkeypatch.setattr(evaluate, "STORE_BYTES", 16)
    clear_caches()
    assert [iterated_integral(w) for w in words] == want
    assert evaluate._STORE.nbytes == 0 and not evaluate._STORE


def test_a_plan_is_admitted_on_its_second_word(monkeypatch, built):
    # the first word of a singularity set leaves only a marker in the plan's
    # layout slot; the second builds the plan again and keeps it, its kernel
    # table and its levels; a third resumes from them
    first = (-0.5 + 2j, 0j, 0.4 + 0.7j, 0j)
    second = first[:2] + (-0.5 + 2j, 0.4 + 0.7j)
    third = first[:2] + (0.4 + 0.7j, -0.5 + 2j)
    clear_caches()
    iterated_integral(first)
    sing = _sorted_set(first)
    key = (sing, DEFAULT_CONFIG.panel_order, DEFAULT_CONFIG.panel_safety)
    assert built == [sing]
    assert list(evaluate._STORE.items()) == [((key, "layout"), (evaluate._SEEN, evaluate._layout_bytes(0)))]
    iterated_integral(second)
    assert built == [sing, sing]
    plan = evaluate._STORE.find((key, "layout"))
    assert type(plan) is _Plan and plan.kept
    assert evaluate._STORE.find((key, "kernels")) is not None
    assert all(evaluate._STORE.find((key, second[:j])) is not None for j in (1, 2, 3, 4))
    _assert_store_within_budget()
    marched = _interior_levels(monkeypatch)
    iterated_integral(third)
    assert marched == [3, 4] and len(built) == 2


def test_kept_levels_count_their_arrays():
    # a kept level is a tuple of arrays, its log row None before the word's
    # first form at 1, and counts exactly the bytes of its arrays
    clear_caches()
    s, r = -0.5 + 2j, 0.4 + 0.7j
    words = [(s, 0j, r), (s, r, 0j, s), (s, 1, 0j, r), (s, 0j, 1, 0j, 1, r), (1, s, 0j, 1, r)]
    _warm_up(words[0] + (1,))
    for w in words:
        iterated_integral(w)
        iterated_integral(w, star=True)
    k, A = K((2, 1, 2)), 2
    _warm_up(evaluate._panel_word(k, V(WITNESS)))
    li_shift_jet(A, k, V(WITNESS))
    levels = [(key, entry) for key, entry in evaluate._STORE.items() if type(key[1]) is tuple]
    assert any(level[2] is None for _, (level, _) in levels)
    assert any(level[2] is not None for _, (level, _) in levels)
    assert any(evaluate._BlockEnd in map(type, key[1]) for key, _ in levels)
    for key, (level, nbytes) in levels:
        assert type(level) is tuple and len(level) == 3, key
        assert all(type(x) is np.ndarray for x in level[:2]), key
        assert (level[2] is None) == (not any(map(evaluate._at_one, key[1]))), key
        assert nbytes == sum(x.nbytes for x in level if x is not None), key
    _assert_store_within_budget()


def test_log_rows_are_shared_across_forms_at_one(monkeypatch):
    # two words share a prefix past their first form at 1 and differ in their
    # number of forms at 1: the second marches only past the shared prefix,
    # and each reads the same bits whichever was marched first
    s = -0.5 + 2j
    one, two = (s, -1, 1, 0j, -1), (s, -1, 1, 0j, 1, 0j)   # P = 1 and P = 2, one plan
    cold = {}
    for w in (one, two):
        clear_caches()
        _warm_up(one + two)
        cold[w] = iterated_integral(w)
    for first, second in ((one, two), (two, one)):
        clear_caches()
        _warm_up(one + two)
        assert iterated_integral(first) == cold[first]
        marched = _interior_levels(monkeypatch)
        assert iterated_integral(second) == cold[second]
        assert marched == list(range(5, len(second) + 1)), (first, second)
        monkeypatch.undo()
        assert repr(iterated_integral(first)) == repr(cold[first])


def test_plans_read_once_keep_only_markers():
    rng = random.Random("single-use")
    clear_caches()
    for _ in range(200):
        iterated_integral((cmath.rect(rng.uniform(1.5, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3)),))
    assert len(evaluate._STORE) == 200
    assert all(value is evaluate._SEEN for value, _ in evaluate._STORE.values())
    _assert_store_within_budget()


def test_keeping_a_key_again_replaces_its_entry(monkeypatch):
    monkeypatch.setattr(evaluate, "STORE_BYTES", 100)
    store = evaluate._Store()
    store.keep("a", 1, 60)
    store.keep("b", 2, 30)
    store.keep("a", 3, 60)   # 90 bytes: nothing is dropped
    assert list(store.items()) == [("b", (2, 30)), ("a", (3, 60))] and store.nbytes == 90
    store.keep("b", 4, 20)
    assert list(store.items()) == [("a", (3, 60)), ("b", (4, 20))] and store.nbytes == 80
    store.keep("a", 5, 200)   # too large to keep: the old entry goes too
    assert list(store.items()) == [("b", (4, 20))] and store.nbytes == 20


def test_a_layout_counts_what_it_holds():
    # the bytes a plan counts are within 2x of what tracemalloc sees it and
    # its layout take
    rng = random.Random("layout-bytes")
    order, safety = DEFAULT_CONFIG.panel_order, DEFAULT_CONFIG.panel_safety
    sets = []
    for _ in range(200):
        forms = {cmath.rect(rng.uniform(0.02, 3.0), rng.uniform(0.1, 2 * math.pi - 0.1))
                 for _ in range(rng.randint(1, 3))}
        sets.append(_sorted_set(forms | set(rng.sample([0j, 1 + 0j], rng.randint(0, 2)))))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plans = [_Plan(sing, *evaluate._layout(sing, order, safety), order, safety) for sing in sets]
        traced = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    panels = [len(plan.steps) for plan in plans]
    assert max(panels) >= 10 * min(panels)
    counted = sum(evaluate._layout_bytes(n) for n in panels)
    assert traced / 2 <= counted <= 2 * traced, (counted, traced)


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


def test_nonfinite_input_is_a_domain_error():
    # each route's domain check rejects it before a panel is marched: a NaN
    # tail, which max over the tails may skip, and a tail product that
    # overflows to -inf
    nan = float("nan")
    clear_caches()
    cases = [lambda: li(K((2,)), V((nan,)), route="series"),
             lambda: li(K((1, 1)), V((nan, 0.5)), route="series"),
             lambda: li(K((2,)), V((nan,))),
             lambda: li_shift_jet(2, K((2,)), V((nan,))),
             lambda: iterated_integral([nan]),
             lambda: li(K((1, 1)), V((1e200j, 1e200j)))]
    for case in cases:
        with pytest.raises(DomainError):
            case()
    assert not evaluate._STORE


def test_underflowing_tail_is_a_domain_error_on_panels():
    # nonzero entries whose tail product underflows to 0: the panel route
    # cannot take the form 1/0, the default route takes the series, whose
    # value and jet are 0
    k, z = K((1, 1)), V((1e-200, 1e-200))
    assert z.tails[0] == 0 and all(z.entries)
    clear_caches()
    for case in (lambda: li(k, z, route="panels"),
                 lambda: evaluate._panel_jet(0, k, z, DEFAULT_CONFIG),
                 lambda: evaluate._panel_jet(2, k, z, DEFAULT_CONFIG)):
        with pytest.raises(DomainError, match="underflow"):
            case()
    assert not evaluate._STORE
    assert li(k, z).value == 0 and li(k, z).method == "series"
    assert li_shift_jet(2, k, z) == (0j, 0j, 0j)


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
    assert methods == ("panels",)
    assert est >= 0 and val == pytest.approx(li_star(K((1, 1)), z))


# A plain star value is one star series or one star word, never the sum over
# contractions; that sum, of plain values each routed on its own, is the
# reference here.


def _contraction_sum(k, z):
    """(value, summed est_error) of the plain values over all contractions."""
    results = [li(kc, zc) for kc, zc in enum_contractions(k, z)]
    return sum(r.value for r in results), sum(r.est_error for r in results)


def test_panel_star_matches_contraction_sum():
    # panel estimates count no rounding and sit far below it, about 1e-21, so
    # the gap, the rounding of two sums, is held to a rounding floor instead
    rng = random.Random("panel-star")
    for d in range(2, 7):
        for _ in range(10):
            k = K(tuple(rng.randint(1, 3) for _ in range(d)))
            z = V(_outside_args(rng, d))
            val, est, methods = li_star_detail(k, z)
            ref, ref_est = _contraction_sum(k, z)
            assert methods == ("panels",)
            assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref)), (k, z, est, ref_est)


def test_series_star_est_error_covers_mpmath_nested_sum():
    rng = random.Random("series-star-est")
    for _ in range(30):
        d = rng.randint(2, 4)
        parts = tuple(rng.randint(1, 3) for _ in range(d))
        args = sample_in_disk(rng, d, 0.8, 0.95)
        r = max(map(abs, V(args).tails))
        n = 64   # oracle terms: C(n+d-1, d-1) r^n below 1e-24 (1 - 0.95)
        while math.comb(n + d - 1, d - 1) * r ** n > 5e-26:
            n += 64
        val, est, methods = li_star_detail(K(parts), V(args))
        assert methods == ("series",)
        assert abs(val - mp_nested_li_star(parts, args, n)) <= est, (parts, args)


@pytest.mark.parametrize("parts,args", [((1, 2), (-1, 1)), ((2, 1, 2), (1j, -1j, 1))])
def test_star_letters_at_form_one(parts, args):
    # tail products equal to 1 put a form at 1 inside a form difference; the
    # second case also starts the word at 1
    k, z = K(parts), V(args)
    ref = _contraction_sum(k, z)[0]
    assert abs(li_star(k, z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_star_with_a_zero_entry_is_zero():
    for parts, args in (((1, 2), (0, 3)), ((1, 2, 1), (2j, 0, 3)), ((2, 1), (0.5, 0))):
        assert li_star(K(parts), V(args)) == 0


def test_star_march_is_history_independent(built):
    # the identity contraction has the star word's forms, the form at 0
    # included, so both march under one plan and share the leading prefix
    k, z = K((2, 1, 2)), V(WITNESS)
    clear_caches()
    cold = li_star_detail(k, z)
    clear_caches()
    _warm_up(evaluate._panel_word(k, z))
    built.clear()
    kc, zc = enum_contractions(k, z)[0]
    li(kc, zc)
    warm = li_star_detail(k, z)
    assert len(built) == 1   # the star reused the plan li built
    assert repr(warm) == repr(cold)


def test_star_march_errors_are_typed(monkeypatch):
    # a star word that runs out of panels names its flat forms, not its letters
    k, z = K((1, 2, 1)), V(WITNESS)
    monkeypatch.setattr(evaluate, "MAX_PANELS", 100)
    clear_caches()
    with pytest.raises(EvaluationError, match="panel budget exhausted") as info:
        li_star(k, z, EvalConfig(panel_safety=0.001))
    g = z.tails
    assert info.value.forms == (1 / g[0], 1 / g[1], 0j, 1 / g[2])
    assert all(type(f) is complex for f in info.value.forms)
    # a last place (1, 1) diverges, as the identity contraction does
    for parts, args in (((2, 1), (-1.5j, 1)), ((1, 2, 1), (2j, -1, 1))):
        with pytest.raises(DomainError):
            li(K(parts), V(args))
        with pytest.raises(DomainError):
            li_star(K(parts), V(args))


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
    # regularized jets and li_shift_blocks both sum in this order with these exact ints
    got = list(evaluate._shifted_indices(2, K((1, 2))))
    assert got == [(3, K((1, 4))), (2, K((2, 3))), (1, K((3, 2)))]
    assert all(type(coef) is int for coef, _ in got)


# A shifted family is one jet: one t-series or one panel march for a plain
# value, the per-a sums over cached values for a regularized one.  The per-a
# loop over plain or regularized values is the reference.


def _shift_ref(a, k, z, cfg=DEFAULT_CONFIG, mode="plain"):
    return shift_reference(a, k.parts, lambda parts: evaluate._value(K(parts), z, cfg, mode))


def _assert_jet_near_ref(k, z, A, method):
    jet = li_shift_jet(A, k, z)
    assert len(jet) == A + 1 and all(type(v) is complex for v in jet)
    cols, ests = evaluate._plain_jet(A, k, z, DEFAULT_CONFIG)
    assert jet == tuple(cols)
    for a, got in enumerate(jet):
        ref = _shift_ref(a, k, z)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (k, z, A, a, got, ref)
        assert ests[a] >= abs(got - ref), (k, z, A, a, ests[a], got, ref)
        assert li_shift(a, k, z) == li_shift_jet(a, k, z)[a]
    assert li(k, z).method == method


@pytest.mark.parametrize("band,method", [((0.2, 0.6), "series"), ((0.8, 0.95), "series"),
                                         ((1.3, 3.0), "panels")])
def test_plain_jet_matches_per_a_reference(band, method):
    rng = random.Random(f"jet-{band}")
    for _ in range(25):
        d = rng.randint(1, 4)
        k = K(tuple(rng.randint(1, 3) for _ in range(d)))
        args = sample_in_disk(rng, d, *band) if method == "series" else _outside_args(rng, d)
        _assert_jet_near_ref(k, V(args), rng.randint(0, 4), method)


@pytest.mark.parametrize("parts,args", [((2, 1), (-1, -1)), ((1, 2), (-1, 1)),
                                        ((1, 1, 2), (1, -1, -1))])
def test_plain_jet_at_forms_at_one(parts, args):
    # tail products equal to 1 put a form at 1 in every column's word; the
    # second case starts its last block at 1, the third has two (P = 2)
    _assert_jet_near_ref(K(parts), V(args), 3, "panels")


def test_regularized_jets_equal_per_a_reference_exactly():
    cases = [((1, 1, 1), (-1, 1j, 1)), ((2, 1), (1j, 1)), ((1, 2, 1), REG_POINT[1]),
             ((1, 1), (1, 1)), ((2, 1, 1), (1, 1, 1))]
    for parts, args in cases:
        k, z = K(parts), V(args)
        for mode in ("stuffle", "shuffle"):
            for cfg in (DEFAULT_CONFIG, EvalConfig(branch_at_one=-1)):
                jet = li_shift_jet(3, k, z, cfg, mode)
                assert jet == tuple(_shift_ref(a, k, z, cfg, mode) for a in range(4)), (k, z, mode)


def test_jet_depth_zero_and_zero_entries():
    for mode in ("plain", "stuffle", "shuffle"):
        assert li_shift_jet(3, K(()), V(()), DEFAULT_CONFIG, mode) == (1, 0, 0, 0)
    for parts, args in (((1, 2), (0, 3)), ((2, 1, 1), (2j, 0, 3)), ((1,), (0,))):
        jet = li_shift_jet(2, K(parts), V(args))
        assert jet == (0j, 0j, 0j)
        assert all(_shift_ref(a, K(parts), V(args)) == 0 for a in range(3))
    with pytest.raises(ValueError):
        li_shift_jet(1, K((1,)), V((0.5,)), DEFAULT_CONFIG, "bogus")


def test_jet_march_is_history_independent(built):
    # the jet's plan is that of the forms 1/g_i and 0, the plan of the value
    # itself here; the levels and kernel table it shares change nothing in it
    k, z = K((2, 1, 2)), V(WITNESS)
    clear_caches()
    cold = li_shift_jet(3, k, z)
    clear_caches()
    _warm_up(evaluate._panel_word(k, z))
    built.clear()
    li(k, z)
    li_star(k, z)
    li(K((3, 2, 2)), z)
    warm = li_shift_jet(3, k, z)
    assert len(built) == 1   # one plan, built by li, reused by the star, li and the jet
    assert repr(warm) == repr(cold)


def _raised(fn):
    try:
        fn()
    except (DomainError, EvaluationError) as e:
        return e
    raise AssertionError("no error raised")


@pytest.mark.parametrize("parts,args", [
    ((1, 2), (0.5j, 2)),                      # tail product 2 in (1, inf)
    ((2,), (1 / (0.5 + 1e-10j),)),            # form within PATH_CLEARANCE of the path
    ((2, 1), (-1.5j, 1)),                     # terminal place (1, 1)
    ((1, 2, 1), (2j, -1, 1)),
])
def test_jet_domain_errors_are_the_per_a_errors(parts, args):
    k, z = K(parts), V(args)
    want = _raised(lambda: [_shift_ref(a, k, z) for a in range(3)])
    got = _raised(lambda: li_shift_jet(2, k, z))
    assert type(got) is type(want) is DomainError
    assert str(got) == str(want)


@pytest.mark.parametrize("case", ["budget", "nonfinite"])
def test_jet_march_errors_are_typed(monkeypatch, case):
    # a jet that runs out of panels or marches to a non-finite value names the
    # flat forms of the value at (k, z), as the per-a loop's first value does
    if case == "budget":
        monkeypatch.setattr(evaluate, "MAX_PANELS", 100)
        k, z, cfg, reason = K((1, 2, 1)), V(WITNESS), EvalConfig(panel_safety=0.001), "budget"
    else:
        k, z, cfg, reason = K((2,)), V((1 / (0.5 + 1e-7j),)), DEFAULT_CONFIG, "non-finite"
    clear_caches()
    want = _raised(lambda: [_shift_ref(a, k, z, cfg) for a in range(3)])
    clear_caches()
    got = _raised(lambda: li_shift_jet(2, k, z, cfg))
    assert type(got) is type(want) is EvaluationError
    assert reason in str(got)
    assert got.forms == want.forms == evaluate._panel_word(k, z)
    assert all(type(f) is complex for f in got.forms)


def test_jet_length_must_be_a_nonnegative_int():
    for A in (-1, -2, 1.0, 0.5):
        for k, z in ((K(()), V(())), (K((1, 2)), V((0.5, 0.25j)))):
            with pytest.raises(ValueError, match=f"A = {A!r}"):
                li_shift_jet(A, k, z)
    assert li_shift(-1, K((1, 2)), V((0.5, 0.25j))) == li_shift(-2, K(()), V(())) == 0


# One kernel per route: a value is column 0 of its jet, so li_series,
# li_panels and iterated_integral read A = 0 off the kernel the jets run.  The
# two kernels each route ran before, one for values and one for jets
# (oracles.py), are held to it under ==, value and estimate both, for words
# with no form at 1.  A word with P >= 1 forms at 1 starts its log row from
# the final-panel row at its first form at 1, where the old kernels marched
# the log final panel from the root: it keeps to the bounds between those two
# (test_p0_final_row_matches_log_final_panel), 1e-14 relative on the value
# and 1e-12 on the estimate.

P_WORDS = [((2, 2), (-1, 1)), ((1, 2), (-1, -1)), ((2, 1), (-1, -1)), ((1, 1, 2), (1, -1, -1)),
           ((1, 2, 1), (-1, 1j, -1j)), ((2, 1, 1), (-1, -1, -1))]


def _panel_ref(k, z, star, cfg=DEFAULT_CONFIG):
    forms = evaluate._panel_word(k, z)
    letters = _star_letters(forms) if star else forms
    sing = set(forms) | ({0j} if letters != forms else set())
    plan = evaluate._plan(_sorted_set(sing), cfg.panel_order, cfg.panel_safety)
    value, est = ref_integrate(plan, letters, forms.count(1))
    return (-1.0 if k.depth % 2 else 1.0) * value, est, forms.count(1)


def _assert_value_kernel(got, want, P, what):
    """got and want are (value, est) pairs, want the value kernel's for a
    word with P forms at 1."""
    if not P:
        assert got == want, what
        return
    _assert_rel(got[0], want[0], 1e-14, (what, "value"))
    _assert_rel(got[1], want[1], 1e-12, (what, "estimate"))


def test_value_reads_equal_the_value_kernels():
    rng = random.Random("value-reads")
    clear_caches()
    for star in (False, True):
        for lo, hi in ((0.2, 0.6), (0.8, 0.95)):
            for _ in range(8):
                k = K(sample_index(rng, 4, 8))
                z = V(sample_in_disk(rng, k.depth, lo, hi))
                res = li_series(k, z, star=star)
                assert (res.value, res.est_error, res.n_terms) == ref_li_series(k, z, DEFAULT_CONFIG, star)
        cases = [(k, _outside_args(rng, k.depth)) for k in (K(sample_index(rng, 3, 6)) for _ in range(8))]
        Ps = set()
        for k, args in cases + [(K(parts), args) for parts, args in P_WORDS]:
            z = V(args)
            res = li_panels(k, z, star=star)
            value, est, P = _panel_ref(k, z, star)
            _assert_value_kernel((res.value, res.est_error), (value, est), P, (k, z, star))
            Ps.add(P)
        assert Ps == {0, 1, 2}
    # words with forms at 1 and 0 that share prefixes and plans, P = 0..3
    for w in _prefix_family(random.Random("value-reads-words")):
        sing = _sorted_set(w)
        plan = evaluate._plan(sing, DEFAULT_CONFIG.panel_order, DEFAULT_CONFIG.panel_safety)
        _assert_value_kernel(iterated_integral(w)[:2], ref_integrate(plan, w, w.count(1)), w.count(1), w)
    assert li_panels(K((2, 2)), V((-1, 1))).value == -0.5685258800390968


def test_jets_equal_the_jet_kernels():
    rng = random.Random("jet-kernels")
    cfg = DEFAULT_CONFIG
    clear_caches()
    for _ in range(8):
        k, A = K(sample_index(rng, 3, 6)), rng.randint(1, 4)
        z = V(sample_in_disk(rng, k.depth, 0.2, 0.9))
        cols, ests = evaluate._plain_jet(A, k, z, cfg)
        assert cols == ref_jet_series(A, k, z, cfg).tolist(), (k, z)
        assert (cols[0], ests[0]) == ref_li_series(k, z, cfg)[:2]
    cases = [(k, _outside_args(rng, k.depth)) for k in (K(sample_index(rng, 3, 6)) for _ in range(6))]
    for k, args in cases + [(K(parts), args) for parts, args in P_WORDS]:
        z, A = V(args), rng.randint(1, 3)
        forms = evaluate._panel_word(k, z)
        blocks = list(zip((1 / g for g in z.tails), k.parts))
        plan = evaluate._plan(_sorted_set(set(forms) | {0j}), cfg.panel_order, cfg.panel_safety)
        want = ref_plan_jet(plan, blocks, A, forms.count(1))
        cols, ests = evaluate._plain_jet(A, k, z, cfg)
        assert cols == (-want if k.depth % 2 else want).tolist(), (k, z)
        if 0j in forms:   # the value marches under the jet's plan: it is column 0
            assert cols[0] == li(k, z).value, (k, z)
    # the jet kernel ran its log final panel on 3-D arrays, whose dot products
    # round differently: column 0 was -0.5685258800390969 here
    assert li_shift_jet(3, K((2, 2)), V((-1, 1)))[0] == -0.5685258800390968


def test_jet_resumes_from_kept_levels(monkeypatch):
    # a jet's word is the value's with a block end after every block: it
    # resumes from the value's first block, and a jet sharing its blocks
    # resumes from the levels of the first jet, block ends included
    k, z = K((2, 1, 2)), V(WITNESS)
    clear_caches()
    want = li_shift_jet(2, K((2, 1, 3)), z)
    clear_caches()
    _warm_up(evaluate._panel_word(k, z))
    value = li(k, z)
    marched = _interior_levels(monkeypatch)
    li_shift_jet(2, k, z)                       # s1 0 E s2 E s3 0 E
    assert marched == [3, 4, 5, 6, 7, 8]
    marched.clear()
    assert li_shift_jet(2, K((2, 1, 3)), z) == want   # s1 0 E s2 E s3 0 0 E
    assert marched == [8, 9]
    assert li(k, z) == value
    _assert_store_within_budget()


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


REG_STAR_POINTS = (REG_POINT, (K((1, 1)), (1, 1)), (K((2, 1, 1)), (-1, 1j, 1)),
                   (K((1, 1, 1, 1)), (-1j, 1, 1, 1)), (K((2, 1)), (-1.3 + 0.7j, 0.9 - 1.1j)))


@pytest.mark.parametrize("mode", ["stuffle", "shuffle"])
def test_regularized_star_is_the_contraction_sum(mode):
    for k, args in REG_STAR_POINTS:
        clear_caches()
        want = contraction_sum(enum_contractions(k, V(args)),
                               lambda kc, zc: regularize.reg_value(kc, zc, mode))
        clear_caches()
        got = li_star(k, V(args), DEFAULT_CONFIG, mode)
        assert repr(got) == repr(want), (k, args)
        assert li_star(k, V(args), DEFAULT_CONFIG, mode) is got


@pytest.mark.parametrize("mode", ["stuffle", "shuffle"])
def test_shallow_regularized_star_is_the_value_entry(mode):
    # at depth 1 or less a regularized star is keyed as the value itself:
    # no second memo entry, no contraction enumeration
    for k, args in ((K((1,)), (1,)), (K((2,)), (-1,)), (K(()), ())):
        clear_caches()
        value = regularize.reg_value(k, V(args), mode)
        before = regularize._reg_value_cached.cache_info()
        assert li_star(k, V(args), DEFAULT_CONFIG, mode) is value
        after = regularize._reg_value_cached.cache_info()
        assert (after.currsize, after.misses, after.hits) == \
            (before.currsize, before.misses, before.hits + 1)


def test_regularized_star_branches_share_one_entry():
    k, args = REG_POINT
    clear_caches()
    plus = li_star(k, V(args), replace(DEFAULT_CONFIG, branch_at_one=1), "stuffle")
    before = regularize._reg_value_cached.cache_info()
    minus = li_star(k, V(args), replace(DEFAULT_CONFIG, branch_at_one=-1), "stuffle")
    after = regularize._reg_value_cached.cache_info()
    assert minus is plus
    assert (after.currsize, after.misses, after.hits) == \
        (before.currsize, before.misses, before.hits + 1)


def test_unknown_star_mode_raises_before_the_caches():
    clear_caches()
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        li_star(K((1, 1)), V((0.5, 1)), DEFAULT_CONFIG, "bogus")
    for cached in (regularize._reg_value_cached, evaluate._li_cached, words._numbers):
        assert cached.cache_info().misses == 0


@pytest.mark.parametrize("mode", ["stuffle", "shuffle"])
def test_second_reg_sides_enumerates_no_contractions(mode, monkeypatch):
    # the deterministic guard on the regularized assembly: once a point is
    # computed, either branch rebuilds no contraction and no vector's numbers
    calls = []

    def counting(k, z):
        calls.append(k)
        return enum_contractions(k, z)

    monkeypatch.setattr(evaluate, "enum_contractions", counting)
    monkeypatch.setattr(regularize, "enum_contractions", counting)
    k, args = REG_POINT
    clear_caches()
    reg_sides(k, V(args), mode, replace(DEFAULT_CONFIG, branch_at_one=1))
    assert calls
    calls.clear()
    misses = words._numbers.cache_info().misses
    for branch in (1, -1):
        rep = reg_sides(k, V(args), mode, replace(DEFAULT_CONFIG, branch_at_one=branch))
        assert rep.residual < 1e-7
    assert calls == []
    assert words._numbers.cache_info().misses == misses


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
    # the word products' tables are emptied after each product, so they hold
    # nothing between products for clear_caches to empty
    memos = (evaluate._li_cached, evaluate._li_word_cached,
             regularize._reg_value_cached, regularize._decompose_stuffle_word,
             words._numbers, words._reciprocal)
    k, args = REG_POINT
    reg_sides(k, V(args), "stuffle")
    run_selftest(only=("rho",), seed=0)
    regularize.shuffle_poly(K((1, 1)), V((-1, 1)))   # word values are a cross-check only
    assert all(m.cache_info().currsize > 0 for m in memos)
    assert [t.cache_info().currsize for t in words._TABLES] == [0, 0]
    assert evaluate._STORE and evaluate._STORE in numcore._MEMOS   # the panel plans' store
    clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
    assert not evaluate._STORE and evaluate._STORE.nbytes == 0
