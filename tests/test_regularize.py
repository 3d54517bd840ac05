"""Regularization: decompositions, the rho transport, regularized values."""

import math
import random
from fractions import Fraction

import pytest

from mplparity.numcore import DEFAULT_CONFIG, DomainError, zeta
from mplparity.words import (
    ArgSymbol,
    ArgVector,
    EMPTY_WORD,
    Index,
    Word,
    X,
    Y_ONE,
    word_from_index,
    y_one_power,
)
from mplparity.evaluate import li
from mplparity.regularize import (
    TPoly,
    decompose_shuffle,
    decompose_stuffle,
    reg_poly,
    reg_value,
    rho,
    rho_inv,
    shuffle_poly,
    stuffle_poly_direct,
    trailing_one_pairs,
)

K = Index
V = ArgVector.of
ONES2 = V((1, 1))
ONES3 = V((1, 1, 1))


def coeff_gap(a: TPoly, b: TPoly) -> float:
    n = max(len(a.coeffs), len(b.coeffs)) - 1
    return max(abs(x - y) for x, y in zip(a.padded(n), b.padded(n)))


# --- TPoly ---------------------------------------------------------------------


def test_tpoly_basics():
    p = TPoly((1 + 0j, 2 + 0j, 0j))
    assert p.degree == 1  # trailing zeros do not count
    assert p.constant() == 1
    assert p(2) == 5
    q = p - TPoly((1 + 0j,))
    assert q.coeffs[0] == 0 and q(3) == 6
    assert TPoly().degree == 0


# --- decompositions ---------------------------------------------------------------


def test_stuffle_decomposition_hand_case():
    # the depth-2 all-ones word: w = (product of two y_1 minus the merged
    # weight-2 block) / 2
    w = word_from_index(K((1, 1)), ONES2)
    dec = decompose_stuffle(w)
    merged = word_from_index(K((2,)), V((1,)))
    assert dict(dec.parts[0].terms) == {merged: Fraction(-1, 2)}
    assert not dec.parts[1]
    assert dict(dec.parts[2].terms) == {EMPTY_WORD: Fraction(1, 2)}


def test_shuffle_decomposition_hand_case():
    c = ArgSymbol((0.5 + 0j,), (0,))
    w = Word((c, Y_ONE, Y_ONE))
    dec = decompose_shuffle(w)
    assert dict(dec.parts[0].terms) == {Word((Y_ONE, Y_ONE, c)): Fraction(1)}
    assert dict(dec.parts[1].terms) == {Word((Y_ONE, c)): Fraction(-1)}
    assert dict(dec.parts[2].terms) == {Word((c,)): Fraction(1, 2)}


def test_shuffle_decomposition_pure_power():
    dec = decompose_shuffle(y_one_power(3))
    assert not dec.parts[0] and not dec.parts[1] and not dec.parts[2]
    assert dict(dec.parts[3].terms) == {EMPTY_WORD: Fraction(1, 6)}


def test_decompositions_reject_leading_x():
    bad = Word((X, Y_ONE))
    with pytest.raises(ValueError):
        decompose_shuffle(bad)
    with pytest.raises(ValueError):
        decompose_stuffle(bad)


def random_trailing_word(rng) -> Word:
    base = tuple(complex(rng.choice((1, -1, 1j, 0.5, 2))) for _ in range(3))
    d = rng.randint(1, 2)
    letters = []
    slot = 0
    for _ in range(d):
        letters.append(ArgSymbol(base, (slot,)))
        slot += 1
        for _ in range(rng.randint(0, 2)):
            letters.append(X)
    return Word(tuple(letters)) * y_one_power(rng.randint(0, 3))


def test_decomposition_re_expansion_exact():
    rng = random.Random("re-expand")
    for _ in range(12):
        w = random_trailing_word(rng)
        for dec in (decompose_shuffle(w), decompose_stuffle(w)):
            assert dict(dec.re_expand().terms) == {w: Fraction(1)}, (dec.mode, w)


def test_decomposition_parts_are_convergent_words():
    # every surviving part must end away from y_1, else the decomposition
    # failed to regularize anything
    rng = random.Random("convergent-parts")
    for _ in range(8):
        w = random_trailing_word(rng)
        for dec in (decompose_shuffle(w), decompose_stuffle(w)):
            for part in dec.parts:
                for word in part.terms:
                    assert word.in_h0, (dec.mode, w, word)


# --- rho -------------------------------------------------------------------------


def test_rho_fixes_low_degrees():
    assert rho(TPoly((0j, 1 + 0j))).coeffs == (0j, 1 + 0j)
    assert coeff_gap(rho(TPoly((3 + 0j,))), TPoly((3 + 0j,))) == 0


def test_rho_degree_two_and_three():
    got2 = rho(TPoly((0j, 0j, 1 + 0j)))
    assert coeff_gap(got2, TPoly((zeta(2) + 0j, 0j, 1 + 0j))) < 1e-12
    got3 = rho(TPoly((0j, 0j, 0j, 1 + 0j)))
    want3 = TPoly((-2 * zeta(3) + 0j, 3 * zeta(2) + 0j, 0j, 1 + 0j))
    assert coeff_gap(got3, want3) < 1e-12


def test_rho_roundtrip():
    # coefficients decay like 1/m!, matching the polynomials the
    # decompositions produce; without that decay the transported images grow
    # like m! * table[m] (~2e4 at degree 8) and double storage of the
    # intermediate already costs ~3e-12, so a flat-scale test would measure
    # the float format rather than the map
    rng = random.Random("rho-roundtrip")
    for _ in range(20):
        n = rng.randint(0, 8)
        p = TPoly(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        / math.factorial(m) for m in range(n + 1)))
        assert coeff_gap(rho_inv(rho(p)), p) < 1e-12
        assert coeff_gap(rho(rho_inv(p)), p) < 1e-12


def test_rho_zeta_hook_changes_result():
    bumped = lambda m: zeta(m) + (0.25 if m == 2 else 0.0)
    p = TPoly((0j, 0j, 1 + 0j))
    assert abs(rho(p, zeta_fn=bumped).constant() - rho(p).constant() - 0.25) < 1e-14


def test_rho_is_linear():
    rng = random.Random("rho-linear")
    a = TPoly(tuple(complex(rng.uniform(-1, 1)) for _ in range(5)))
    b = TPoly(tuple(complex(rng.uniform(-1, 1)) for _ in range(5)))
    lhs = rho(TPoly(tuple(x + y for x, y in zip(a.coeffs, b.coeffs))))
    rhs = TPoly(tuple(x + y for x, y in zip(rho(a).coeffs, rho(b).coeffs)))
    assert coeff_gap(lhs, rhs) < 1e-13


# --- regularized polynomials -------------------------------------------------------


def test_shuffle_poly_single_one_is_t():
    p = shuffle_poly(K((1,)), V((1,)))
    assert p.coeffs == (0j, 1 + 0j)


def test_stuffle_poly_depth2_ones():
    p = stuffle_poly_direct(K((1, 1)), ONES2)
    want = TPoly((-zeta(2) / 2 + 0j, 0j, 0.5 + 0j))
    assert coeff_gap(p, want) < 1e-12


def test_polys_depth3_ones():
    sh = shuffle_poly(K((1, 1, 1)), ONES3)
    assert coeff_gap(sh, TPoly((0j, 0j, 0j, 1 / 6 + 0j))) < 1e-12
    st = reg_poly(K((1, 1, 1)), ONES3, "stuffle")
    want = TPoly((zeta(3) / 3 + 0j, -zeta(2) / 2 + 0j, 0j, 1 / 6 + 0j))
    assert coeff_gap(st, want) < 1e-12


def test_stuffle_routes_agree():
    cases = [
        (K((1, 1)), ONES2),
        (K((2, 1)), ONES2),
        (K((1, 1, 1)), ONES3),
        (K((1, 1)), V((-1, 1))),
        (K((1, 1)), V((1j, 1))),
        (K((2, 1)), V((-1, 1))),
    ]
    for k, z in cases:
        a = reg_poly(k, z, "stuffle")
        b = stuffle_poly_direct(k, z)
        assert coeff_gap(a, b) < 1e-9, (k, z)


def test_rho_intertwines_the_polys():
    for k, z in ((K((1, 1)), ONES2), (K((2, 1)), ONES2), (K((1, 1)), V((-1, 1)))):
        sh = shuffle_poly(k, z)
        st = stuffle_poly_direct(k, z)
        assert coeff_gap(sh, rho(st)) < 1e-9, (k, z)


# --- regularized values ---------------------------------------------------------


def test_reg_value_constants():
    assert abs(reg_value(K((1, 1)), ONES2, "stuffle") + zeta(2) / 2) < 1e-12
    assert abs(reg_value(K((1, 1)), ONES2, "shuffle")) < 1e-12
    assert abs(reg_value(K((1, 1, 1)), ONES3, "stuffle") - zeta(3) / 3) < 1e-12
    assert abs(reg_value(K((1, 1, 1)), ONES3, "shuffle")) < 1e-12


def test_reg_value_convergent_shortcut():
    k, z = K((2, 1)), V((0.4, 0.5))
    for mode in ("stuffle", "shuffle"):
        assert reg_value(k, z, mode) == pytest.approx(li(k, z).value, abs=1e-13)


def test_reg_value_weight_two_tail():
    # terminal index 2 at argument 1 converges; both modes give the plain value
    k, z = K((2,)), V((1,))
    for mode in ("stuffle", "shuffle"):
        assert reg_value(k, z, mode) == pytest.approx(zeta(2), abs=1e-12)


def test_reg_value_mode_validation():
    with pytest.raises(ValueError):
        reg_value(K((1,)), V((1,)), "harmonic")


def test_reg_domain_errors():
    with pytest.raises(DomainError):
        shuffle_poly(K((1, 1)), V((3, 1)))
    with pytest.raises(DomainError):
        reg_value(K((1,)), V((2,)), "stuffle")


def test_trailing_one_pairs():
    assert trailing_one_pairs(K((1, 1)), ONES2) == 2
    assert trailing_one_pairs(K((2, 1)), ONES2) == 1
    assert trailing_one_pairs(K((1, 2)), ONES2) == 0
    assert trailing_one_pairs(K((1, 1)), V((1, -1))) == 0
