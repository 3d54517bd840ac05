"""The identities themselves: both sides, hand cases, derivatives, probes."""

import cmath
import itertools
import math
import random

import pytest

from mplparity import evaluate, parity
from mplparity.numcore import (
    DEFAULT_CONFIG,
    EvalConfig,
    bernoulli_factor,
    bernoulli_row,
    domain_check,
    log_minus,
    zeta,
)
from mplparity.words import ArgVector, Index
from mplparity.evaluate import _value, li, li_shift_blocks, li_star
from oracles import shift_reference
from mplparity.parity import (
    _rhs,
    all_ones_delta,
    all_ones_delta_mzv,
    check_derivative,
    check_derivative_r,
    hirose_row,
    limit_probe,
    main_sides,
    mzv_sides,
    p_value,
    q_value,
    r_factor,
    r_factors,
    reg_sides,
    residual,
    rhs_summands,
)

K = Index
V = ArgVector.of
MINUS = EvalConfig(branch_at_one=-1)


def sample_main_point(rng, d):
    """Tail products in the annulus, all consecutive products off the ray."""
    while True:
        tails = [cmath.rect(rng.uniform(1.3, 3.0), rng.uniform(0.25, 2 * math.pi - 0.25))
                 for _ in range(d)]
        args = tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)
        ok = True
        for i in range(d):
            prod = 1 + 0j
            for j in range(i, d):
                prod *= args[j]
                if abs(prod.imag) < 0.1 * abs(prod) and prod.real > 0:
                    ok = False
        if ok:
            return args


# --- delta factors -----------------------------------------------------------


def test_all_ones_delta():
    got = all_ones_delta(K((1, 1)), V((1, 1)))
    assert got == pytest.approx(-math.pi ** 2 / 2)
    assert all_ones_delta(K((1, 1)), V((1, 1)), MINUS) == pytest.approx(got)
    assert all_ones_delta(K((2,)), V((1,))) == 0
    assert all_ones_delta(K((1,)), V((-1,))) == 0
    assert all_ones_delta(K(()), V(())) == 1
    assert all_ones_delta(K((1,)), V((1,))) == pytest.approx(1j * math.pi)
    assert all_ones_delta(K((1,)), V((1,)), MINUS) == pytest.approx(-1j * math.pi)


def test_all_ones_delta_mzv():
    assert all_ones_delta_mzv(K((1, 1))) == pytest.approx(-math.pi ** 2 / 2)
    assert all_ones_delta_mzv(K((1,))) == 0
    assert all_ones_delta_mzv(K((2,))) == 0
    assert all_ones_delta_mzv(K(())) == 1
    # even depth all ones agrees with the generic delta at exact-one arguments
    d4 = all_ones_delta(K((1,) * 4), V((1,) * 4))
    assert all_ones_delta_mzv(K((1,) * 4)) == pytest.approx(d4)


# --- the inner factor ---------------------------------------------------------


def test_r_factor_weight_one():
    for z in (-2, 2.5j, -1.5 + 0.5j):
        got = r_factor(1, K((1,)), V((z,)))
        assert got == pytest.approx(log_minus(complex(z)), abs=1e-13)


def test_r_factor_depth_two_closed_form():
    z1, z2 = 2j, 3j
    got = r_factor(1, K((1, 1)), V((z1, z2)))
    want = (log_minus(z1 * z2) * li(K((1,)), V((1 / z2,))).value
            + li(K((2,)), V((1 / z2,))).value)
    assert got == pytest.approx(want, abs=1e-12)


def test_r_factor_split_range():
    with pytest.raises(ValueError):
        r_factor(0, K((1,)), V((-2,)))
    with pytest.raises(ValueError):
        r_factor(2, K((1,)), V((-2,)))


def _ref_r_factor(n, k, z, cfg=DEFAULT_CONFIG, mode="plain"):
    """The inner factor with its front term in block form in every mode and its
    back term summed per b: the reference for the antipode collapse and the
    jets in r_factor."""
    d = k.depth
    kn = k.parts[n - 1]
    front_k, front_z = k.cut(1, n - 1), z.cut(1, n - 1)
    back_k = k.cut(n + 1, d)
    back_z_inv = z.cut(n + 1, d).reciprocal()
    full_prod = z.tails[0]
    acc = 0j
    for a in range(kn + 1):
        front = li_shift_blocks(a, front_k, front_z, cfg, mode)
        if front == 0:
            continue
        for b in range(kn - a + 1):
            l = kn - a - b
            back = shift_reference(b, back_k.parts,
                                   lambda parts: _value(K(parts), back_z_inv, cfg, mode))
            if back == 0:
                continue
            acc += (-1) ** b * bernoulli_factor(l, full_prod, cfg) * front * back
    return acc


def _split_points(k, z):
    """(n, local index, local arguments) for every inner factor rhs_summands
    evaluates at (k, z)."""
    d = k.depth
    for m in range(d):
        for n in range(m + 1, d + 1):
            yield n - m, k.cut(m + 1, d), z.cut(m + 1, d)


def test_r_factor_matches_block_reference_plain():
    # annulus points of the main sweep's shape, depth <= 4
    rng = random.Random("r-factor-plain")
    for d in range(1, 5):
        for _ in range(3):
            k = K(tuple(rng.randint(1, 2) for _ in range(d)))
            z = V(sample_main_point(rng, d))
            for n, kk, zz in _split_points(k, z):
                got, want = r_factor(n, kk, zz), _ref_r_factor(n, kk, zz)
                assert residual(got, want) < 1e-12, (n, kk, zz, got, want)


def test_r_factor_matches_block_reference_regularized():
    # roots:2,4 points in the reg domain, with trailing exact ones among them;
    # stuffle agrees to rounding, shuffle runs the block form itself
    pool = (1, 1j, -1, -1j)
    for parts in ((1, 1), (2, 1), (1, 1, 1), (1, 1, 2), (1, 2, 1)):
        for args in itertools.product(pool, repeat=len(parts)):
            if domain_check(args, "consecutive", "nonneg_not_one"):
                continue
            k, z = K(parts), V(args)
            for cfg in (DEFAULT_CONFIG, MINUS):
                for n, kk, zz in _split_points(k, z):
                    got = r_factor(n, kk, zz, cfg, "stuffle")
                    want = _ref_r_factor(n, kk, zz, cfg, "stuffle")
                    assert residual(got, want) < 1e-12, (n, kk, zz, cfg, got, want)
                    assert r_factor(n, kk, zz, cfg, "shuffle") \
                        == _ref_r_factor(n, kk, zz, cfg, "shuffle"), (n, kk, zz, cfg)


def _rhs_per_split(k, z, cfg, mode, delta_of, row=None):
    """_rhs with one r_factor call per (m, n), in the same order: the
    reference for the cached rows of r_factors."""
    d = k.depth
    acc = 0j
    for m in range(d):
        delta = delta_of(k.cut(m + 1, d), z.cut(m + 1, d))
        if delta:
            acc -= (-1) ** m * li_star(k.cut(1, m), z.cut(1, m), cfg, mode) * delta
    for m in range(d):
        star_left = li_star(k.cut(1, m), z.cut(1, m), cfg, mode)
        for n in range(m + 1, d + 1):
            inner = r_factor(n - m, k.cut(m + 1, d), z.cut(m + 1, d), cfg, mode, row)
            acc += (-1) ** (m + sum(k.parts[n:])) * star_left * inner
    return acc


def test_rhs_from_rows_matches_per_split_loop():
    # every right-hand side read through r_factors, from empty caches and
    # again from the kept rows, equals the per-(m, n) loop bit for bit: reg
    # at random roots:2,4 points in both modes, main and Hirose's formula,
    # each on both branches
    rng = random.Random("rows")
    points = []
    while len(points) < 6:
        d = rng.randint(2, 3)
        args = tuple(rng.choice((1, 1j, -1, -1j)) for _ in range(d))
        if not domain_check(args, "consecutive", "nonneg_not_one"):
            points.append((K(tuple(rng.randint(1, 2) for _ in range(d))), V(args)))
    main_points = [(K(parts), V(sample_main_point(rng, len(parts))))
                   for parts in ((2, 1), (1, 1, 2))]
    ones = [(K(parts), V((1,) * len(parts))) for parts in ((1, 2), (2, 1, 1), (1, 3, 1))]
    for cfg in (DEFAULT_CONFIG, MINUS):
        reg_delta = lambda kt, zt: all_ones_delta(kt, zt, cfg)
        runs = (("stuffle", points, reg_delta, None),
                ("shuffle", points, reg_delta, None),
                ("plain", main_points, lambda kt, zt: 0j, None),
                ("stuffle", ones, lambda kt, _zt: all_ones_delta_mzv(kt), hirose_row(3)))
        for mode, cases, delta_of, row in runs:
            evaluate.clear_caches()
            cold = [_rhs(k, z, cfg, mode, delta_of, row) for k, z in cases]
            want = [_rhs_per_split(k, z, cfg, mode, delta_of, row) for k, z in cases]
            warm = [_rhs(k, z, cfg, mode, delta_of, row) for k, z in cases]
            assert cold == want == warm, (mode, row, cfg.branch_at_one)
        assert [q_value(k, z, cfg) for k, z in main_points] \
            == [_rhs_per_split(k, z, cfg, "plain", lambda kt, zt: 0j) for k, z in main_points]
        assert [mzv_sides(k, cfg).rhs for k, _ in ones] \
            == [_rhs_per_split(k, z, cfg, "stuffle", lambda kt, _zt: all_ones_delta_mzv(kt),
                               hirose_row(max(k.parts))) for k, z in ones]
    evaluate.clear_caches()


def test_rows_key_on_the_branch_only_at_product_one():
    # a suffix whose product is exactly 1 reads log(-1), so it keeps one row
    # per branch; any other suffix, and every suffix with a given row, keeps
    # one row for both, which is the row the other branch computes.  A given
    # row keys on the entries the suffix reads, up to its largest part
    cached = parity._r_factors_cached
    k = K((1, 2))
    for args, per_branch in (((1j, -1j), 2), ((1, 1), 2), ((-1, 1j), 1)):
        z = V(args)
        evaluate.clear_caches()
        assert cached.cache_info().currsize == 0
        rows = [r_factors(k, z, cfg, "stuffle") for cfg in (DEFAULT_CONFIG, MINUS)]
        assert cached.cache_info().currsize == per_branch, args
        for cfg, got in zip((DEFAULT_CONFIG, MINUS), rows):
            evaluate.clear_caches()
            assert got == tuple(r_factor(n, k, z, cfg, "stuffle") for n in (1, 2)), args
        for cfg, top in ((DEFAULT_CONFIG, 2), (MINUS, 5)):
            r_factors(k, z, cfg, "stuffle", hirose_row(top))
        assert cached.cache_info().currsize == 1, args
    evaluate.clear_caches()
    assert cached.cache_info().currsize == 0


def test_wrong_jet_weight_trips_the_main_identity(monkeypatch):
    # negative control: shifted families weighted C(k+l, l) instead of
    # C(k+l-1, l) must break the identity, on the panel front and the series back
    k, z = K((2, 1)), V((-1.2 + 1.4j, 0.8 - 1.9j))
    evaluate.clear_caches()
    assert main_sides(k, z).residual < 1e-12
    monkeypatch.setattr(evaluate, "_shift_weight", lambda kk, l: (-1) ** l * math.comb(kk + l, l))
    evaluate.clear_caches()
    try:
        assert main_sides(k, z).residual > 1e-8
    finally:
        evaluate.clear_caches()


def test_check_derivative_r_cases():
    for n, parts, args in ((1, (1, 2), (2j, 3j)),
                           (2, (1, 1), (-1.5, 2.5j)),
                           (1, (2, 1), (-2, 1.5j))):
        chk = check_derivative_r(n, K(parts), V(args))
        assert chk.resid < 1e-5, (n, parts, args, chk)


# --- main identity -------------------------------------------------------------


def test_main_weight_one_closed():
    rng = random.Random("w1")
    for _ in range(10):
        z = cmath.rect(rng.uniform(0.3, 4.0), rng.uniform(0.2, 2 * math.pi - 0.2))
        rep = main_sides(K((1,)), V((z,)))
        assert rep.residual < 1e-12
        assert rep.rhs == pytest.approx(log_minus(z), abs=1e-12)


def test_main_dilog_inversion():
    rng = random.Random("dilog")
    for _ in range(8):
        z = cmath.rect(rng.uniform(1.5, 3.0), rng.uniform(0.3, 2 * math.pi - 0.3))
        lm = log_minus(z)
        closed = -math.pi ** 2 / 6 - lm * lm / 2
        direct = li(K((2,)), V((z,))).value + li(K((2,)), V((1 / z,))).value
        assert direct == pytest.approx(closed, abs=1e-10)
        rep = main_sides(K((2,)), V((z,)))
        assert rep.residual < 1e-9
        assert rep.lhs == pytest.approx(-closed, abs=1e-10)


def test_main_depth_two_cases():
    cases = [
        ((1, 1), (2j, 3j)),
        ((2, 1), (-2, 1.5j)),
        ((1, 2), (2.5j, -2)),
        ((2, 2), (-3, 2j)),
        ((1, 3), (1.5j, -2.5)),
    ]
    for parts, args in cases:
        rep = main_sides(K(parts), V(args))
        assert rep.residual < 1e-8, (parts, args, rep.residual)


def test_main_seeded_sweep_depth_two():
    rng = random.Random("main-sweep")
    indices = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
    for parts in indices:
        args = sample_main_point(rng, 2)
        rep = main_sides(K(parts), V(args))
        assert rep.residual < 1e-8, (parts, args, rep.residual)


def test_main_routes_are_dual():
    # annulus points evaluate the star side by panels and the reciprocal side
    # by the series, so agreement is a genuine two-route check
    args = sample_main_point(random.Random("routes"), 2)
    rep = main_sides(K((2, 1)), V(args))
    assert rep.inv_method == "series"
    assert "panels" in rep.star_methods
    assert rep.inv_method not in rep.star_methods


def test_rhs_summands_structure():
    args = sample_main_point(random.Random("summands"), 2)
    items = list(rhs_summands(K((2, 1)), V(args)))
    assert [mn for mn, _ in items] == [(0, 1), (0, 2), (1, 2)]
    total = sum(term for _, term in items)
    rep = main_sides(K((2, 1)), V(args))
    assert total == pytest.approx(rep.rhs, rel=1e-12, abs=1e-14)


def test_report_record_shape():
    rep = main_sides(K((1,)), V((-2,)))
    rec = rep.to_record()
    assert rec["theorem"] == "main" and rec["k"] == [1]
    assert "seconds" not in rec
    assert rec["z"] == [[-2.0, 0.0]]


# --- regularized identity --------------------------------------------------------


def test_reg_weight_one_at_minus_one():
    rep = reg_sides(K((1,)), V((-1,)), "stuffle")
    assert rep.lhs == pytest.approx(0, abs=1e-13)
    assert rep.rhs == pytest.approx(0, abs=1e-13)


def test_reg_weight_two_at_minus_one():
    want = math.pi ** 2 / 6
    for mode in ("stuffle", "shuffle"):
        rep = reg_sides(K((2,)), V((-1,)), mode)
        assert rep.lhs == pytest.approx(want, abs=1e-12), mode
        assert rep.residual < 1e-12


def test_reg_all_ones_depth_two():
    want = math.pi ** 2 / 6
    for mode in ("stuffle", "shuffle"):
        for cfg in (DEFAULT_CONFIG, MINUS):
            rep = reg_sides(K((1, 1)), V((1, 1)), mode, cfg)
            assert rep.lhs == pytest.approx(want, abs=1e-12), (mode, cfg.branch_at_one)
            assert rep.rhs == pytest.approx(want, abs=1e-12)
            assert rep.residual < 1e-12


def test_reg_shuffle_divergent_fronts():
    # front terms that are divergent all-ones words under the shuffle product,
    # where the block form and the reversed value differ
    for parts, args in (((1, 1, 1), (1, 1, 1)), ((1, 1, 2), (1, 1, -1))):
        for cfg in (DEFAULT_CONFIG, MINUS):
            rep = reg_sides(K(parts), V(args), "shuffle", cfg)
            assert rep.residual < 1e-12, (parts, args, cfg.branch_at_one, rep.residual)


def test_reg_fourth_roots():
    # products of fourth roots land on exact ones, exercising the branch flag
    for parts, args in (((1, 1), (1j, -1j)), ((2, 1), (-1, -1)), ((1, 1), (-1, 1))):
        gaps = []
        for cfg in (DEFAULT_CONFIG, MINUS):
            rep = reg_sides(K(parts), V(args), "stuffle", cfg)
            assert rep.residual < 1e-9, (parts, args, cfg.branch_at_one)
            gaps.append(rep.residual)
        assert abs(gaps[0] - gaps[1]) < 1e-9


def test_reg_mode_validation():
    with pytest.raises(ValueError):
        reg_sides(K((1,)), V((1,)), "plain")


# --- all-ones specialization ------------------------------------------------------


def test_mzv_weight_two():
    rep = mzv_sides(K((2,)))
    assert rep.lhs == pytest.approx(-math.pi ** 2 / 3, abs=1e-10)
    assert rep.residual < 1e-10


def test_mzv_weight_one():
    rep = mzv_sides(K((1,)))
    assert rep.lhs == pytest.approx(0, abs=1e-13)
    assert rep.residual < 1e-12


def test_mzv_depth_two_cases():
    for parts in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        rep = mzv_sides(K(parts))
        assert rep.residual < 1e-7, (parts, rep.residual, rep.lhs, rep.rhs)


def test_mzv_matches_reg_at_all_ones():
    # mzv_sides is reg_sides' stuffle right-hand side at all-ones with the
    # Bernoulli factors of hirose_row in place of bernoulli_factor(l, 1) and
    # the all-ones correction in powers of pi; the two must agree, on both
    # branches
    ones_cases = [parts for d in range(1, 5) for parts in itertools.product(range(1, 8), repeat=d)
                  if sum(parts) <= 7]
    assert len(ones_cases) == 98
    for cfg in (DEFAULT_CONFIG, MINUS):
        for parts in ones_cases:
            mzv = mzv_sides(K(parts), cfg)
            reg = reg_sides(K(parts), V((1,) * len(parts)), "stuffle", cfg)
            assert mzv.lhs == reg.lhs, parts
            # odd weights give rhs 0 against ~1e-14, so the gap is the
            # package's relative one, |a - b| / max(1, |a|, |b|)
            assert residual(mzv.rhs, reg.rhs) < 1e-12, parts


ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263
ZETA2, ZETA4 = math.pi ** 2 / 6, math.pi ** 4 / 90


DEPTH_TWO_MZV = {
    (1, 2): ZETA3,
    (1, 3): math.pi ** 4 / 360,
    (2, 2): (ZETA2 ** 2 - ZETA4) / 2,
    (1, 4): 2 * ZETA5 - ZETA2 * ZETA3,
    (2, 3): 3 * ZETA2 * ZETA3 - 11 / 2 * ZETA5,
    (3, 2): 9 / 2 * ZETA5 - 2 * ZETA2 * ZETA3,
}


@pytest.mark.parametrize("parts", DEPTH_TWO_MZV, ids=lambda parts: "k=%d,%d" % parts)
def test_mzv_depth_two_closed_forms(parts):
    # package order: (1, 2) is the sum over m1 < m2 of 1/(m1 m2^2); the
    # closed values are independent of the march and of reg_sides.  With
    # star = value + zeta(w), lhs = star - (-1)^w value.
    value, w = DEPTH_TWO_MZV[parts], sum(parts)
    zeta_w = {3: ZETA3, 4: ZETA4, 5: ZETA5}[w]
    want = 2 * value + zeta_w if w % 2 else zeta_w
    for cfg in (DEFAULT_CONFIG, MINUS):
        rep = mzv_sides(K(parts), cfg)
        tol = 5e-14 * max(1.0, abs(want))
        assert abs(rep.lhs - want) < tol, (parts, cfg.branch_at_one, rep.lhs, want)
        assert abs(rep.rhs - want) < tol, (parts, cfg.branch_at_one, rep.rhs, want)


def test_hirose_row_is_the_b_factor_at_one():
    # at z = 1, log(-1) = +-i pi, so bernoulli_row(top, 1) holds (2 pi i)^l
    # B_l / l! at l >= 2, 0 at odd l; hirose_row is its even part, dropping
    # the odd powers of log(-1), l = 1 too
    row = hirose_row(14)
    assert len(row) == 15
    assert all(row[l] == 0 for l in range(1, 15, 2))
    for cfg in (DEFAULT_CONFIG, MINUS):
        at_one = bernoulli_row(14, 1, cfg)
        assert at_one[1] == pytest.approx(cfg.branch_at_one * 1j * math.pi, abs=1e-15)
        for l, factor in enumerate(at_one):
            if l % 2 == 0:
                assert abs(factor - row[l]) <= 1e-14 * abs(row[l]), (l, factor, row[l])
            elif l >= 3:
                assert abs(factor) <= 1e-13, (l, factor)


def test_mzv_star_side_value():
    # depth-2 all-ones: the star side is zeta(2)/2 under the series product
    got = li_star(K((1, 1)), V((1, 1)), DEFAULT_CONFIG, "stuffle")
    assert got == pytest.approx(zeta(2) / 2, abs=1e-12)


# --- derivatives and limits -------------------------------------------------------


def test_derivative_both_sides():
    cases = [((2,), (-2,)), ((3,), (1.7j,)), ((1, 2), (2j, 3j)), ((1, 1), (-1.5, 2.5j))]
    for parts, args in cases:
        chk_p, chk_q = check_derivative(K(parts), V(args))
        assert chk_p.resid < 1e-5, (parts, args, chk_p)
        assert chk_q.resid < 1e-5, (parts, args, chk_q)


def test_derivative_head_recursion_branches():
    # k_1 > 1 reduces by lowering the head; k_1 == 1 reduces by merging it
    for parts, args in (((2, 1), (-2, 1.5j)), ((1, 2), (-2, 1.5j))):
        chk_p, chk_q = check_derivative(K(parts), V(args))
        assert max(chk_p.resid, chk_q.resid) < 1e-5, (parts, args)


def test_limit_probe_decreases():
    for parts, rest, theta in (((2,), (), 2.0), ((1,), (), 2.5), ((1, 1), (-2,), 2.0)):
        mags = limit_probe(K(parts), V(rest), theta, (1e-2, 1e-3, 1e-4))
        assert mags[0] > mags[1] > mags[2], (parts, rest, mags)
        assert mags[-1] < 1e-2


def test_p_q_are_the_main_sides():
    # p_value and q_value share their code with main_sides' lhs and rhs
    rng = random.Random("p-q-sides")
    for parts in ((1,), (3,), (1, 2), (2, 1), (1, 1, 2), (2, 1, 1)):
        z = V(sample_main_point(rng, len(parts)))
        rep = main_sides(K(parts), z)
        assert p_value(K(parts), z) == rep.lhs, parts
        assert q_value(K(parts), z) == rep.rhs, parts


def test_p_q_empty_conventions():
    assert p_value(K(()), V(())) == 0
    assert q_value(K(()), V(())) == 0
