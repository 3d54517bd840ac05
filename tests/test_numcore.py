"""Exact rational constants, branch handling, and domain predicates."""

import cmath
import math
import pickle
from fractions import Fraction

import mpmath
import pytest

from mplparity.numcore import (
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvaluationError,
    bernoulli_factor,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_row,
    domain_check,
    log_minus,
    principal_log,
    zeta,
)
from oracles import mp_zeta

# classical table, exact
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_numbers_exact():
    for n, want in BERNOULLI_TABLE.items():
        assert bernoulli_number(n) == want


def test_bernoulli_odd_vanish():
    assert all(bernoulli_number(n) == 0 for n in (3, 5, 7, 9, 11))


def test_bernoulli_poly_low_degree():
    # B_1(x) = x - 1/2, B_2(x) = x^2 - x + 1/6 at a few points, exact algebra
    for x in (0.0, 0.5, 1.0, -2.0, 0.25):
        assert bernoulli_poly(1, x) == pytest.approx(x - 0.5, abs=1e-16)
        assert bernoulli_poly(2, x) == pytest.approx(x * x - x + 1 / 6, abs=1e-15)
    assert bernoulli_poly(0, 3.7) == 1.0


def test_bernoulli_poly_symmetry():
    # B_l(1 - x) = (-1)^l B_l(x)
    for l in range(7):
        for x in (0.1, 0.35, 0.9):
            assert bernoulli_poly(l, 1 - x) == pytest.approx(
                (-1) ** l * bernoulli_poly(l, x), rel=1e-13, abs=1e-15
            )


def test_zeta_against_mpmath():
    for k in range(2, 13):
        assert zeta(k) == pytest.approx(mp_zeta(k), rel=1e-15)


def test_principal_log_branch():
    assert principal_log(-1 + 0j).imag == pytest.approx(math.pi)
    assert principal_log(2 + 0j) == pytest.approx(math.log(2))


def test_log_minus_branch_at_one():
    plus = EvalConfig(branch_at_one=1)
    minus = EvalConfig(branch_at_one=-1)
    assert log_minus(1 + 0j, plus) == 1j * math.pi
    assert log_minus(1 + 0j, minus) == -1j * math.pi
    # away from 1 the branch knob is inert
    for z in (-2 + 0j, 0.5 + 0.5j, -1 + 0j, 3j):
        assert log_minus(z, plus) == log_minus(z, minus)


def test_log_minus_matches_principal_log():
    for z in (-2 + 0j, 1 + 1j, -0.3 - 0.7j, 2.5j):
        assert log_minus(z) == pytest.approx(cmath.log(-z), rel=1e-15)


def test_bernoulli_factor_low_weights():
    cfg = DEFAULT_CONFIG
    for z in (-2 + 0j, 1 + 1j, -0.5 + 0.25j, 2j):
        lm = log_minus(z, cfg)
        assert bernoulli_factor(0, z, cfg) == pytest.approx(1.0)
        assert bernoulli_factor(1, z, cfg) == pytest.approx(lm, rel=1e-14)
        assert bernoulli_factor(2, z, cfg) == pytest.approx(
            lm ** 2 / 2 + math.pi ** 2 / 6, rel=1e-14
        )


def test_bernoulli_factor_branch_at_one():
    # at z = 1 the two branches give conjugate weight-1 factors
    plus = bernoulli_factor(1, 1 + 0j, EvalConfig(branch_at_one=1))
    minus = bernoulli_factor(1, 1 + 0j, EvalConfig(branch_at_one=-1))
    assert plus == 1j * math.pi and minus == -1j * math.pi
    # weight 2 is branch independent: (i pi)^2 = (-i pi)^2
    assert bernoulli_factor(2, 1 + 0j, EvalConfig(branch_at_one=1)) == pytest.approx(
        bernoulli_factor(2, 1 + 0j, EvalConfig(branch_at_one=-1))
    )


def test_bernoulli_row_is_the_factors_at_once():
    # entry l is bernoulli_factor(l, w) bit for bit, at w = 1 on both branches
    # and at generic w, and the closed form (2 pi i)^l / l! B_l(1/2 +
    # log(-w)/(2 pi i)) in 40 digits to rounding
    two_pi_i = 2j * mpmath.pi
    with mpmath.workdps(40):
        for w in (1 + 0j, -0.5 + 0.25j, 2j):
            for cfg in (EvalConfig(branch_at_one=1), EvalConfig(branch_at_one=-1)):
                row = bernoulli_row(10, w, cfg)
                assert len(row) == 11
                assert row == tuple(bernoulli_factor(l, w, cfg) for l in range(11))
                x = 0.5 + mpmath.mpc(log_minus(w, cfg)) / two_pi_i
                for l, got in enumerate(row):
                    want = complex(two_pi_i ** l / mpmath.factorial(l) * mpmath.bernpoly(l, x))
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (w, cfg, l)
    assert bernoulli_row(0, -2 + 0j) == (1 + 0j,)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(branch_at_one=2)
    with pytest.raises(ValueError):
        EvalConfig(panel_safety=1.5)
    with pytest.raises(ValueError):
        EvalConfig(series_truncation=0)


def test_domain_check_consecutive():
    # z_2 = 2 sits on the positive axis; the pair product 2i does not
    out = domain_check((1j, 2 + 0j), "consecutive", "nonneg")
    assert out == [(2, 2, 2 + 0j)]
    # exact one is allowed when the bad set excludes it
    assert domain_check((1 + 0j,), "consecutive", "nonneg_not_one") == []
    assert domain_check((1 + 0j,), "consecutive", "nonneg") == [(1, 1, 1 + 0j)]


def test_domain_check_tails():
    # only products ending at the last slot count
    out = domain_check((3 + 0j, 0.5 + 0j), "tails", "real_gt1")
    assert out == [(1, 2, 1.5 + 0j)]
    out = domain_check((3 + 0j, 1 + 0j), "tails", "real_gt1")
    assert out == [(1, 2, 3 + 0j)]


def test_domain_check_margin():
    # margin flags near misses that exact checks let through
    z = (1.5 + 0.01j,)
    assert domain_check(z, "consecutive", "nonneg") == []
    assert domain_check(z, "consecutive", "nonneg", margin=0.05) == [(1, 1, z[0])]


def test_domain_check_bad_family():
    with pytest.raises(ValueError):
        domain_check((1j,), "diagonal", "nonneg")


@pytest.mark.parametrize("bad", ["real_ge1", "positive"])
def test_domain_check_bad_set(bad):
    with pytest.raises(ValueError, match="unknown bad set"):
        domain_check((2 + 0j,), "consecutive", bad)


def test_evaluation_error_witness_survives_pickling():
    err = EvaluationError("panel budget exhausted", 4001, [1.01 - 0.01j, 0j])
    back = pickle.loads(pickle.dumps(err))
    assert (back.panels, back.forms) == (4001, (1.01 - 0.01j, 0j))
    assert str(back) == str(err) == "panel budget exhausted after 4001 panels; forms [(1.01-0.01j), 0j]"
    assert isinstance(back, ArithmeticError)
