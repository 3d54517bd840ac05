"""Regularized values for divergent argument/exponent pairs.

A word whose trailing places are the pair (1, y_1) has no convergent value;
it still has a unique expansion over the convergent part of the algebra with
the divergence isolated in powers of y_1:

  stuffle:  w = sum_i  w_i * y_1^{*i}      (w_i convergent)
  shuffle:  iw = sum_i w'_i sh y_1^{sh i}  (w'_i convergent, iw the integral encoding)

Sending y_1 to an indeterminate T turns either side into a polynomial whose
constant term is the regularized value.  The two polynomials are related by
the linear automorphism rho with rho(exp(Tu)) = Gamma(1+u) exp((T+gamma)u);
its matrix only involves zeta values.

The runtime reads the shuffle polynomial off one panel march of the divergent
word itself, trailing forms at 1 included: the u^0 row of the final panel,
u = 1 - t, is the regularization at the tangential base point at 1 (Panzer,
Feynman integrals and hyperlogarithms, 2015, section 2.3).  The stuffle
polynomial is rho^{-1} of it.  The two decompositions above are not on the
runtime path: shuffle_poly (integral side) and stuffle_poly_direct (series
side) evaluate them as independent cross-checks of the march.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .evaluate import (
    CacheKey,
    _reg_row,
    check_tails,
    enum_contractions,
    li,
    li_word,
    li_word_series_encoding,
    value_key,
)
from .numcore import DEFAULT_CONFIG, EvalConfig, memo, zeta
from .words import (
    EMPTY_WORD,
    ArgVector,
    Index,
    LinComb,
    Word,
    Y_ONE,
    _add_into,
    integral_word,
    product_power,
    shuffle,
    stuffle,
    word_from_index,
    y_one_power,
)


@dataclass(frozen=True)
class TPoly:
    """Polynomial in the regularization indeterminate T, complex coefficients."""

    coeffs: tuple[complex, ...] = (0j,)

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def constant(self) -> complex:
        return self.coeffs[0] if self.coeffs else 0j

    def padded(self, n: int) -> tuple[complex, ...]:
        return self.coeffs + (0j,) * (n + 1 - len(self.coeffs))

    def __sub__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs)) - 1
        a, b = self.padded(n), other.padded(n)
        return TPoly(tuple(x - y for x, y in zip(a, b)))


@dataclass(frozen=True)
class Decomposition:
    """Expansion of a word over convergent words times y_1 powers."""

    mode: str                       # "stuffle" or "shuffle"
    parts: tuple[LinComb, ...]      # parts[i] multiplies the i-th y_1 power

    def re_expand(self) -> LinComb:
        """Reassemble the original word; exact, used as a round-trip check."""
        op = stuffle if self.mode == "stuffle" else shuffle
        acc: dict[Word, int | Fraction] = {}
        for i, part in enumerate(self.parts):
            if not part:
                continue
            pw = product_power(Y_ONE_WORD, i, op)
            _add_into(acc, op(part, pw).terms.items())
        return LinComb(acc)


Y_ONE_WORD = Word((Y_ONE,))


def decompose_shuffle(w: Word) -> Decomposition:
    """Closed-form shuffle decomposition.

    For w = v u y_1^h with u the last letter different from y_1, the i-th part
    is (-1)^(h-i)/i! (v sh y_1^(h-i)) u; the pure power y_1^d contributes only
    1/d! at degree d.
    """
    if not w.in_h1:
        raise ValueError("shuffle decomposition needs a word without leading x")
    h = w.trailing_ones()
    core = w[: len(w) - h]
    parts: list[LinComb] = [LinComb.zero() for _ in range(h + 1)]
    if not core:
        # pure y_1 power
        if h == 0:
            return Decomposition("shuffle", (LinComb.of(EMPTY_WORD),))
        parts[h] = LinComb.of(EMPTY_WORD, Fraction(1, math.factorial(h)))
        return Decomposition("shuffle", tuple(parts))
    v, u = Word.of_codes(core[:-1]), core[-1:]
    for i in range(h + 1):
        combo = shuffle(v, y_one_power(h - i))
        terms = {word * u: c for word, c in combo.terms.items()}
        sign = Fraction((-1) ** (h - i), math.factorial(i))
        parts[i] = sign * LinComb(terms)
    return Decomposition("shuffle", tuple(parts))


@memo(maxsize=100_000)
def _decompose_stuffle_word(w: Word) -> tuple[tuple[int, LinComb], ...]:
    h = w.trailing_ones()
    if h == 0:
        return ((0, LinComb.of(w)),)
    v = Word.of_codes(w[:-1])
    sv = stuffle(v, Y_ONE_WORD)
    # sv contains w itself with multiplicity h; everything else has a shorter
    # trailing run, so recursion proceeds on (length, trailing count)
    e_terms = dict(sv.terms)
    got = e_terms.pop(w, 0)
    if got != h:
        raise AssertionError(f"trailing-run multiplicity {got} != {h} for {w!r}")
    acc: dict[int, dict[Word, Fraction]] = {}

    def add(i: int, combo: LinComb, scale: Fraction) -> None:
        if not combo:
            return
        _add_into(acc.setdefault(i, {}), combo.terms.items(), scale)

    inv_h = Fraction(1, h)
    for i, part in _decompose_stuffle_word(v):
        add(i + 1, part, inv_h)
    for word, c in e_terms.items():
        for i, part in _decompose_stuffle_word(word):
            add(i, part, -inv_h * c)
    return tuple((i, LinComb(acc[i])) for i in sorted(acc))


def decompose_stuffle(w: Word) -> Decomposition:
    """Stuffle decomposition by eliminating trailing y_1 letters recursively."""
    if not w.in_h1:
        raise ValueError("stuffle decomposition needs a word without leading x")
    pairs = _decompose_stuffle_word(w)
    top = max((i for i, _ in pairs), default=0)
    parts = [LinComb.zero() for _ in range(top + 1)]
    for i, part in pairs:
        parts[i] = part
    return Decomposition("stuffle", tuple(parts))


# --- the rho map ------------------------------------------------------------


def _exp_series(coeffs: list[float], n: int) -> list[float]:
    # exp of sum_m coeffs[m] u^m (coeffs[0] = coeffs[1] = 0 here)
    out = [0.0] * (n + 1)
    out[0] = 1.0
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += j * coeffs[j] * out[m - j]
        out[m] = acc / m
    return out


def _rho_coeffs(n: int, zeta_fn, invert: bool) -> list[float]:
    s = [0.0] * (n + 1)
    for m in range(2, n + 1):
        s[m] = zeta_fn(m) * (-1) ** m / m
    if invert:
        s = [-v for v in s]
    return _exp_series(s, n)


def _apply_gamma_series(p: TPoly, table: list[float]) -> TPoly:
    n = len(p.coeffs) - 1
    src = p.coeffs
    out = [0j] * (n + 1)
    # T^m maps to sum_{j <= m} (m!/ (m-j)!) table[j] T^(m-j)
    for m, c in enumerate(src):
        if c == 0:
            continue
        for j in range(m + 1):
            out[m - j] += c * (math.factorial(m) / math.factorial(m - j)) * table[j]
    return TPoly(tuple(out))


def rho(p: TPoly, zeta_fn=None) -> TPoly:
    """Shuffle polynomial from stuffle polynomial."""
    table = _rho_coeffs(len(p.coeffs) - 1, zeta_fn or zeta, invert=False)
    return _apply_gamma_series(p, table)


def rho_inv(p: TPoly, zeta_fn=None) -> TPoly:
    """Stuffle polynomial from shuffle polynomial."""
    table = _rho_coeffs(len(p.coeffs) - 1, zeta_fn or zeta, invert=True)
    return _apply_gamma_series(p, table)


# --- regularized polynomials and values -------------------------------------


def trailing_one_pairs(k: Index, z: ArgVector) -> int:
    """Number of trailing places with (k_i, z_i) = (1, 1) exactly."""
    h = 0
    for ki, sym in zip(reversed(k.parts), reversed(z.symbols)):
        if ki == 1 and sym.value == 1:
            h += 1
        else:
            break
    return h


def shuffle_poly(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> TPoly:
    """Shuffle-regularized polynomial via the integral-side decomposition:
    decompose the integral encoding and evaluate the convergent parts as
    iterated integrals; kept as a cross-check of reg_poly's march."""
    check_tails(z)
    w = integral_word(word_from_index(k, z))
    dec = decompose_shuffle(w)
    return TPoly(tuple(li_word(part, cfg) for part in dec.parts))


def stuffle_poly_direct(k: Index, z: ArgVector, cfg: EvalConfig = DEFAULT_CONFIG) -> TPoly:
    """Stuffle-regularized polynomial via the direct series-side decomposition;
    kept as the independent cross-check of reg_poly in stuffle mode."""
    check_tails(z)
    w = word_from_index(k, z)
    dec = decompose_stuffle(w)
    coeffs = []
    for part in dec.parts:
        acc = 0j
        for word, c in part.items():
            acc += float(c) * li_word_series_encoding(word, cfg)
        coeffs.append(acc)
    return TPoly(tuple(coeffs))


def reg_poly(k: Index, z: ArgVector, mode: str, cfg: EvalConfig = DEFAULT_CONFIG) -> TPoly:
    """Regularized polynomial in T for the requested product structure.

    mode 'shuffle' reads the polynomial off one panel march of the value's
    word, its h trailing forms at 1 included (evaluate._reg_row); the pure
    power y_1^h is T^h/h! exactly, without a march.  mode 'stuffle' is
    rho^{-1} of the shuffle polynomial.  shuffle_poly and stuffle_poly_direct
    compute the two polynomials from the integral- and series-side
    decompositions instead, as cross-checks."""
    if mode not in ("stuffle", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    h = trailing_one_pairs(k, z)
    if h == k.depth:
        poly = TPoly((0j,) * h + (1 / math.factorial(h) + 0j,))
    else:
        poly = TPoly(_reg_row(k, z, h, cfg))
    return rho_inv(poly) if mode == "stuffle" else poly


@memo(maxsize=200_000)
def _reg_value_cached(key: CacheKey) -> complex:
    k, z, cfg, mode, star = key.args
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    if star:   # the contraction sum of regularized values, in enum_contractions order
        acc = 0j
        for kc, zc in enum_contractions(k, z):
            acc += reg_value(kc, zc, mode, cfg)
        return acc
    if k.depth == 0:
        return 1 + 0j
    if trailing_one_pairs(k, z) == 0:
        return li(k, z, cfg).value
    return reg_poly(k, z, mode, cfg).constant()


def reg_value(k: Index, z: ArgVector, mode: str, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Regularized value: the plain value when the terminal pair converges,
    otherwise the constant term of the regularized polynomial."""
    if mode not in ("stuffle", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    return _reg_value_cached(value_key(k, z, cfg, mode))
