"""Regularization: decompositions, the rho transport, regularized values."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mplparity import evaluate, regularize
from mplparity.numcore import DEFAULT_CONFIG, DomainError, clear_caches, zeta
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
from mplparity.evaluate import li, li_shift_jet, li_star
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


def rel_gap(a: TPoly, b: TPoly) -> float:
    n = max(len(a.coeffs), len(b.coeffs)) - 1
    pa, pb = a.padded(n), b.padded(n)
    return max(abs(x - y) for x, y in zip(pa, pb)) / max(1.0, *map(abs, pa + pb))


def divergent_cases():
    """The divergent points of the reg and hirose sweeps: roots of unity of
    order 2 and 4 at depth <= 3 and weight <= 4, and all ones at depth <= 5
    and weight <= 8."""
    pool = (1, -1, 1j, -1j)
    for d in range(1, 4):
        for parts in itertools.product(range(1, 5), repeat=d):
            if sum(parts) <= 4:
                for args in itertools.product(pool, repeat=d):
                    yield K(parts), V(args)
    for d in range(1, 6):
        for parts in itertools.product(range(1, 9), repeat=d):
            if sum(parts) <= 8:
                yield K(parts), V((1,) * d)


def test_march_poly_matches_the_decompositions():
    # the polynomial read off the final panel against the integral-side
    # decomposition, and its rho^-1 against the series-side one, coefficient
    # by coefficient
    n = 0
    for k, z in divergent_cases():
        h = trailing_one_pairs(k, z)
        if not h:
            continue
        n += 1
        sh = reg_poly(k, z, "shuffle")
        assert len(sh.coeffs) == h + 1
        assert rel_gap(sh, shuffle_poly(k, z)) < 5e-14, (k, z)
        st = reg_poly(k, z, "stuffle")
        assert st == rho_inv(sh)
        assert rel_gap(st, stuffle_poly_direct(k, z)) < 5e-14, (k, z)
    assert n == 160


def test_march_poly_with_a_form_at_one_inside():
    # z = (-1, -1, 1): the tails are (1, -1, 1), so the word has a form at 1
    # in its first place as well as the trailing one
    k, z = K((1, 1, 1)), V((-1, -1, 1))
    assert z.tails == (1, -1, 1) and trailing_one_pairs(k, z) == 1
    for kk in (k, K((2, 1, 1)), K((1, 2, 1))):
        assert rel_gap(reg_poly(kk, z, "shuffle"), shuffle_poly(kk, z)) < 5e-14, kk
        assert rel_gap(reg_poly(kk, z, "stuffle"), stuffle_poly_direct(kk, z)) < 5e-14, kk


def test_march_poly_of_a_convergent_value_is_its_panel_value():
    # h = 0: the polynomial is the constant value of the panel word, read off
    # the log row when a form at 1 sits inside the word (z = (-1, -1)) and off
    # the level's final-panel row when none does
    for parts, args in (((2,), (-1.5,)), ((2, 1), (-1.5, 2j)), ((2, 1), (0.3 + 0.2j, 0.5)),
                        ((1, 2), (-1, -1))):
        k, z = K(parts), V(args)
        assert trailing_one_pairs(k, z) == 0
        want = evaluate.li_panels(k, z).value
        assert reg_poly(k, z, "shuffle") == TPoly((want,)) == reg_poly(k, z, "stuffle"), (k, z)


def test_pure_one_power_is_exact_without_a_march(monkeypatch):
    def no_march(*args):
        raise AssertionError("the pure y_1 power needs no march")

    monkeypatch.setattr(regularize, "_reg_row", no_march)
    for h in range(6):
        k, z = K((1,) * h), V((1,) * h)
        want = TPoly((0j,) * h + (1 / math.factorial(h) + 0j,))
        assert reg_poly(k, z, "shuffle") == want == shuffle_poly(k, z)
        assert reg_poly(k, z, "stuffle") == rho_inv(want)


@pytest.mark.parametrize("args", [(0, 1), (3, 1), (2 + 1e-12j, 1)],
                         ids=["zero-entry", "tail-above-one", "form-on-path"])
def test_march_poly_domain_errors(args):
    # a zero entry, a tail in (1, inf) and a form on the path stay DomainErrors,
    # as they are on the decomposition route
    k, z = K((1, 1)), V(args)
    with pytest.raises(DomainError):
        shuffle_poly(k, z)
    for mode in ("shuffle", "stuffle"):
        with pytest.raises(DomainError):
            reg_poly(k, z, mode)


def test_divergent_values_run_no_word_decomposition(monkeypatch):
    def forbidden(*args):
        raise AssertionError("decomposition route on the runtime path")

    for mod in (regularize, evaluate):
        for name in ("decompose_shuffle", "li_word"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    clear_caches()
    k, z = K((2, 1, 1)), V((-1, 1j, 1))
    for mode in ("stuffle", "shuffle"):
        assert reg_value(k, z, mode) == reg_poly(k, z, mode).constant()
        li_star(k, z, DEFAULT_CONFIG, mode)
        li_shift_jet(2, k, z, DEFAULT_CONFIG, mode)


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
