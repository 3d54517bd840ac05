"""Shared numeric foundations: evaluation config, branch conventions, Bernoulli
data, zeta constants, and argument-domain checks.

Everything here is double precision by design.  The only extended-precision
objects are Bernoulli numbers, which are exact rationals; each Bernoulli
polynomial's coefficients are rounded to float once, into a cached table.
zeta values are produced by Euler-Maclaurin summation whose truncation error
is far below double rounding, and are cached on first use.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class EvalConfig:
    """Knobs shared by every evaluator and identity check."""

    series_truncation: int = 4000   # hard cap on series terms
    panel_order: int = 48          # Taylor/log-series order per panel
    panel_safety: float = 0.35     # panel step = safety * distance to nearest singularity
    branch_at_one: int = +1        # sign of i*pi used for log(-z) at exactly z == 1

    def __post_init__(self) -> None:
        if self.series_truncation < 8:
            raise ValueError("series_truncation too small")
        if self.panel_order < 8:
            raise ValueError("panel_order too small")
        if not 0 < self.panel_safety < 0.8:
            raise ValueError("panel_safety must sit in (0, 0.8)")
        if self.branch_at_one not in (+1, -1):
            raise ValueError("branch_at_one must be +1 or -1")


DEFAULT_CONFIG = EvalConfig()


class DomainError(ValueError):
    """Argument tuple outside the region an operation is defined on."""


class EvaluationError(ArithmeticError):
    """A legal input the panel route could not integrate.  The witness is the
    number of panels marched and the forms of the integral."""

    def __init__(self, reason: str, panels: int, forms) -> None:
        self.panels = panels
        self.forms = tuple(complex(a) for a in forms)
        super().__init__(reason, panels, self.forms)   # args rebuild it when unpickled

    def __str__(self) -> str:
        reason, panels, forms = self.args
        return f"{reason} after {panels} panels; forms {list(forms)}"


# --- value memos ------------------------------------------------------------

_MEMOS: list = []


def memo(maxsize: int):
    """lru_cache for a memo of computed values; clear_caches() empties every one.

    Constant tables (zeta, Bernoulli numbers, panel ramps, the series' m^k) are
    plain lru_caches: they hold no values derived from a caller's input."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _MEMOS.append(cached)
        return cached
    return wrap


def clear_caches() -> None:
    """Empty every value memo of the package."""
    for cached in _MEMOS:
        cached.cache_clear()


def principal_log(z: complex) -> complex:
    """log with the cut on the negative real axis, Im in (-pi, pi]."""
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("log of 0")
    return cmath.log(z)


def log_minus(z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """principal log(-z).

    At exactly z == 1 the value is branch_at_one * i*pi; the identities this
    package checks hold for either sign, so the choice is a config knob rather
    than a constant.
    """
    z = complex(z)
    if z == 1:
        return cfg.branch_at_one * 1j * math.pi
    return principal_log(-z)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n, convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("negative Bernoulli index")
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(l: int) -> tuple[complex, ...]:
    # B_l(x) = sum_j C(l, j) B_j x^(l-j); coefficients by descending power,
    # each exact coefficient rounded once
    return tuple(complex(math.comb(l, j) * bernoulli_number(j)) for j in range(l + 1))


def bernoulli_poly(l: int, x: complex) -> complex:
    """Bernoulli polynomial B_l(x) at a complex point, Horner on the rounded
    exact coefficients."""
    acc = 0j
    for c in _bernoulli_poly_coeffs(l):
        acc = acc * x + c
    return acc


def bernoulli_factor(l: int, z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """(2*pi*i)^l / l! * B_l(1/2 + log(-z)/(2*pi*i)), entry l of bernoulli_row.

    The degree-0 value is 1 and the degree-1 value is log(-z); these are the
    cheapest self-checks of the normalization.
    """
    if l < 0:
        raise ValueError("negative degree")
    return bernoulli_row(l, z, cfg)[l]


def bernoulli_row(top: int, z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[complex, ...]:
    """(bernoulli_factor(l, z, cfg) for l = 0..top), with log(-z) taken once."""
    x = 0.5 + log_minus(z, cfg) / TWO_PI_I
    return tuple(TWO_PI_I ** l / math.factorial(l) * bernoulli_poly(l, x) for l in range(top + 1))


_EM_M = 24
_EM_J = 12


@lru_cache(maxsize=None)
def zeta(k: int) -> float:
    """zeta(k) for integer k >= 2 by Euler-Maclaurin; truncation << 1e-20."""
    if k < 2:
        raise ValueError("zeta table covers k >= 2 only")
    s = float(k)
    acc = sum(n ** -s for n in range(1, _EM_M))
    acc += 0.5 * _EM_M ** -s
    acc += _EM_M ** (1.0 - s) / (s - 1.0)
    rising = s
    for j in range(1, _EM_J + 1):
        b = float(bernoulli_number(2 * j)) / math.factorial(2 * j)
        acc += b * rising * _EM_M ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return acc


# --- argument domains -------------------------------------------------------
#
# Identity checks need two families of exclusions on an argument tuple
# (z_1, ..., z_d):
#   consecutive: no product z_i ... z_j (i <= j) may lie in the bad set
#   tails:       no product z_i ... z_d may lie in the bad set
# A bad set is a real ray [lo, inf), less the point 1 where one_exempt:
# name -> (lo, one_exempt).
_BAD_SETS = {
    "nonneg": (0.0, False),
    "nonneg_not_one": (0.0, True),
    "real_gt1": (1.0, True),
}


def domain_check(entries, family: str, bad: str, margin: float = 0.0):
    """Return the list of violating (i, j, product) triples, 1-based inclusive.

    family 'consecutive' scans every product z_i..z_j, family 'tails' only the
    products ending at d.  margin > 0 also flags products within that distance
    of the bad set (used by samplers to keep panel integration healthy);
    margin 0 is the exact legality test.
    """
    if family not in ("consecutive", "tails"):
        raise ValueError(f"unknown family {family!r}")
    if bad not in _BAD_SETS:
        raise ValueError(f"unknown bad set {bad!r}")
    lo, one_exempt = _BAD_SETS[bad]
    zs = [complex(e) for e in entries]
    d = len(zs)
    out = []
    for i in range(1, d + 1):
        prod = 1 + 0j
        for j in range(i, d + 1):
            prod *= zs[j - 1]
            if (family == "tails" and j != d) or (one_exempt and prod == 1):
                continue
            if abs(prod - max(prod.real, lo)) <= margin:
                out.append((i, j, prod))
    return out
