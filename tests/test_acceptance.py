"""Acceptance gate: every release criterion, one test and one printed line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines; each test
asserts its numeric target and its wall-clock budget.
"""

import cmath
import json
import math
import random
import time

from mplparity import cli
from mplparity.numcore import log_minus, zeta
from mplparity.words import (
    ArgSymbol,
    ArgVector,
    EMPTY_WORD,
    Index,
    LinComb,
    Word,
    X,
    shuffle,
    stuffle,
)
from mplparity.evaluate import li, li_panels, li_series
from mplparity.parity import (
    check_derivative,
    check_derivative_r,
    limit_probe,
    main_sides,
    mzv_sides,
    residual,
)
from mplparity.regularize import TPoly, reg_poly, rho, rho_inv, shuffle_poly, stuffle_poly_direct

K = Index
V = ArgVector.of


def report(name: str, detail: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"{name}: {dt:.1f}s over the {budget:.0f}s budget"
    print(f"{name}: PASS  {detail}  [{dt:.2f}s / {budget:.0f}s]")


def off_ray_point(rng, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.2, 2 * math.pi - 0.2))


def enum_indices(depth_max: int, weight_max: int):
    out = []
    for d in range(1, depth_max + 1):
        def rec(prefix, budget):
            if len(prefix) == d:
                out.append(tuple(prefix))
                return
            slots_left = d - len(prefix) - 1
            for v in range(1, budget - slots_left + 1):
                rec(prefix + [v], budget - v)
        rec([], weight_max)
    return out


def run_sweep(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    payload = json.loads(out.read_text())
    return code, payload


def test_c01_weight_one_base_case():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-1")
    worst = 0.0
    for _ in range(100):
        z = off_ray_point(rng, 0.3, 4.0)
        rep = main_sides(K((1,)), V((z,)))
        closed_gap = residual(rep.lhs, log_minus(z))
        worst = max(worst, rep.residual, closed_gap)
        assert rep.residual < 1e-12, (z, rep.residual)
        assert closed_gap < 1e-12, z
    report("criterion 01 weight-1 base case", f"worst={worst:.2e} n=100", t0, 1.0)


def test_c02_dilog_inversion():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-2")
    worst = 0.0
    for _ in range(50):
        z = off_ray_point(rng, 1.5, 3.0)
        rep = main_sides(K((2,)), V((z,)))
        lm = log_minus(z)
        closed = -math.pi ** 2 / 6 - lm * lm / 2
        direct = li(K((2,)), V((z,))).value + li(K((2,)), V((1 / z,))).value
        worst = max(worst, rep.residual, abs(direct - closed), abs(rep.lhs + closed))
        assert rep.residual < 1e-9, (z, rep.residual)
        assert abs(direct - closed) < 1e-9, z
        assert abs(rep.lhs + closed) < 1e-9, z
    report("criterion 02 dilog inversion", f"worst={worst:.2e} n=50", t0, 10.0)


def test_c03_main_sweep(tmp_path):
    t0 = time.perf_counter()
    code, payload = run_sweep(
        tmp_path, "main.json",
        ["sweep", "--theorem", "main", "--depth-max", "2", "--weight-max", "4",
         "--points", "20", "--seed", "0"])
    s = payload["summary"]
    assert code == 0
    assert s["n_fail"] == 0 and s["n_error"] == 0 and s["n_skip"] == 0
    assert s["max_residual"] < 1e-8
    assert s["routes_independent"] is True
    report("criterion 03 main-theorem sweep",
           f"max_residual={s['max_residual']:.2e} points={s['n_points']} "
           f"routes_independent={s['routes_independent']}", t0, 600.0)


def test_c04_reg_roots_sweep(tmp_path):
    t0 = time.perf_counter()
    code, payload = run_sweep(
        tmp_path, "reg.json",
        ["sweep", "--theorem", "reg", "--depth-max", "2", "--weight-max", "4",
         "--seed", "0"])
    s = payload["summary"]
    assert code == 0
    assert s["n_fail"] == 0 and s["n_error"] == 0
    assert s["max_residual"] < 1e-7
    assert s["max_branch_gap"] < 1e-9
    branches = {rec["branch"] for rec in payload["records"]}
    assert branches == {1, -1}
    report("criterion 04 regularized roots-of-unity sweep",
           f"max_residual={s['max_residual']:.2e} "
           f"max_branch_gap={s['max_branch_gap']:.2e} records={s['n_records']} "
           f"skipped={s['n_skip']}", t0, 900.0)


def test_c05_mzv_specialization(tmp_path):
    t0 = time.perf_counter()
    rep = mzv_sides(K((2,)))
    anchor = -math.pi ** 2 / 3
    assert abs(rep.lhs - anchor) < 1e-10
    assert abs(rep.rhs - anchor) < 1e-10
    code, payload = run_sweep(
        tmp_path, "mzv.json",
        ["sweep", "--theorem", "hirose", "--depth-max", "2", "--weight-max", "4"])
    s = payload["summary"]
    assert code == 0
    assert s["n_fail"] == 0 and s["n_error"] == 0
    assert s["max_residual"] < 1e-7
    report("criterion 05 all-ones specialization",
           f"k=(2) anchor gap={abs(rep.lhs - anchor):.2e} "
           f"sweep max_residual={s['max_residual']:.2e} n={s['n_points']}", t0, 300.0)


def test_c06_regularization_consistency():
    t0 = time.perf_counter()
    # (a) transport round trip through degree 8 on the factorial-decay class
    rng = random.Random("acceptance-6")
    worst_rt = 0.0
    for _ in range(50):
        n = rng.randint(0, 8)
        p = TPoly(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        / math.factorial(m) for m in range(n + 1)))
        for q in (rho_inv(rho(p)), rho(rho_inv(p))):
            gap = max(abs(x - y) for x, y in zip(q.padded(8), p.padded(8)))
            worst_rt = max(worst_rt, gap)
            assert gap < 1e-12
    # (b) the transport intertwines the two regularized polynomials, and the
    # two stuffle routes agree, on every test index
    cases = [(K(parts), V((1,) * len(parts))) for parts in enum_indices(2, 4)]
    cases += [(K((1, 1)), V((-1, 1))), (K((1, 1)), V((1j, 1))),
              (K((2, 1)), V((-1, 1))), (K((1, 2)), V((-1, 1)))]
    worst_tw = worst_route = 0.0
    for k, z in cases:
        sh = shuffle_poly(k, z)
        st = stuffle_poly_direct(k, z)
        n = max(len(sh.coeffs), len(st.coeffs)) - 1
        tw = max(abs(a - b) for a, b in zip(sh.padded(n), rho(st).padded(n)))
        primary = rho_inv(sh)
        route = max(abs(a - b) for a, b in zip(primary.padded(n), st.padded(n)))
        worst_tw, worst_route = max(worst_tw, tw), max(worst_route, route)
        assert tw < 1e-9, (k, z, tw)
        assert route < 1e-9, (k, z, route)
    report("criterion 06 regularization consistency",
           f"roundtrip={worst_rt:.2e} intertwine={worst_tw:.2e} "
           f"routes={worst_route:.2e} indices={len(cases)}", t0, 60.0)


def test_c07_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-7")
    worst = 0.0
    for _ in range(200):
        d = rng.randint(1, 2)
        parts = []
        budget = 4
        for i in range(d):
            parts.append(rng.randint(1, budget - (d - i - 1)))
            budget -= parts[-1]
        tails = [cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0.2, 2 * math.pi - 0.2))
                 for _ in range(d)]
        args = tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)
        a = li_series(K(tuple(parts)), V(args))
        b = li_panels(K(tuple(parts)), V(args))
        gap = abs(a.value - b.value)
        worst = max(worst, gap)
        assert gap < 1e-9, (parts, args, gap)
    report("criterion 07 series/panel agreement", f"worst={worst:.2e} n=200", t0, 300.0)


def test_c08_derivative_checks():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-8")
    worst = 0.0
    n_head_one = n_head_big = 0
    for i in range(30):
        if i % 2 == 0:
            k1 = 1
            n_head_one += 1
        else:
            k1 = rng.randint(2, 3)
            n_head_big += 1
        if i % 3 == 0:
            parts = (k1,)
        else:
            parts = (k1, rng.randint(1, 2))
        args = tuple(off_ray_point(rng, 1.4, 2.8) for _ in parts)
        chk_p, chk_q = check_derivative(K(parts), V(args))
        worst = max(worst, chk_p.resid, chk_q.resid)
        assert chk_p.resid < 1e-5, (parts, args, chk_p)
        assert chk_q.resid < 1e-5, (parts, args, chk_q)
        if len(parts) == 2:
            n = rng.randint(1, 2)
            chk_r = check_derivative_r(n, K(parts), V(args))
            worst = max(worst, chk_r.resid)
            assert chk_r.resid < 1e-5, (n, parts, args, chk_r)
    assert n_head_one >= 10 and n_head_big >= 10
    report("criterion 08 derivative checks",
           f"worst={worst:.2e} n=30 (head-one={n_head_one}, head-big={n_head_big})",
           t0, 300.0)


def test_c09_limit_probe():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-9")
    worst_final = 0.0
    for i in range(10):
        k1 = rng.randint(1, 3)
        if i % 2 == 0:
            parts, rest = (k1,), ()
        else:
            parts, rest = (k1, rng.randint(1, 2)), (off_ray_point(rng, 1.5, 2.5),)
        theta = rng.uniform(0.3, 2 * math.pi - 0.3)
        mags = limit_probe(K(parts), V(rest), theta, (1e-2, 1e-3, 1e-4))
        assert mags[0] > mags[1] > mags[2], (parts, rest, theta, mags)
        assert mags[-1] < 1e-2, (parts, rest, theta, mags)
        worst_final = max(worst_final, mags[-1])
    report("criterion 09 vanishing-limit probe", f"worst final={worst_final:.2e} n=10",
           t0, 120.0)


def random_word(rng, base, max_weight):
    d = rng.randint(1, 2)
    letters = []
    weight = 0
    for slot in rng.sample(range(len(base)), d):
        letters.append(ArgSymbol(base, (slot,)))
        weight += 1
        while weight < max_weight and rng.random() < 0.4:
            letters.append(X)
            weight += 1
    return Word(tuple(letters))


def test_c10_algebra_laws():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-10")
    for _ in range(200):
        base = tuple(complex(rng.choice((1, -1, 1j, -1j, 0.5, 2))) for _ in range(6))
        u = random_word(rng, base, 2)
        v = random_word(rng, base, 2)
        w = random_word(rng, base, 1)
        for op in (stuffle, shuffle):
            assert op(u, v) == op(v, u)
            assert op(op(u, v), w) == op(u, op(v, w))
            assert op(u, EMPTY_WORD) == LinComb.of(u)
    report("criterion 10 algebra laws", "comm+assoc+unit on 200 seeded pairs, exact",
           t0, 60.0)
