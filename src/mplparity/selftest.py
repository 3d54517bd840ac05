"""Reduced-scale invariant suite behind the ``selftest`` subcommand.

Every check here re-derives a structural fact independently of the code path
it exercises: word-algebra laws are tested by exact rational arithmetic,
the T-polynomial transport map is compared against hand-expanded low-degree
images, and the regularized polynomials the sweeps read off the panel march
are compared, through it, with the series-side decomposition; numeric
evaluation is cross-checked between its two routes, and the derivative and
small-argument probes replay the analytic facts the identity assembly relies
on.  A hostile ``zeta_fn`` can be injected to verify the suite actually
witnesses a corrupted constant table (negative control); only the forward
transport map receives it, so the corruption is visible as a round-trip
mismatch rather than cancelling out.

Checks run at reduced scale: the full-size versions live in the test suite.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .numcore import DEFAULT_CONFIG, EvalConfig, zeta
from .words import (
    ArgSymbol,
    ArgVector,
    EMPTY_WORD,
    Index,
    LinComb,
    Word,
    X,
    shuffle,
    stuffle,
    word_from_index,
    y_one_power,
)
from .evaluate import li
from .regularize import (
    TPoly,
    decompose_shuffle,
    decompose_stuffle,
    reg_poly,
    rho,
    rho_inv,
    stuffle_poly_direct,
)
from .parity import check_derivative, check_derivative_r, limit_probe


@dataclass(frozen=True)
class InvariantResult:
    group: str
    name: str
    module: str
    n_cases: int
    witnesses: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_record(self) -> dict:
        return {
            "group": self.group,
            "invariant": self.name,
            "module": self.module,
            "n_cases": self.n_cases,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
        }


# --- deterministic generators -------------------------------------------------


def _random_base(rng: random.Random, n: int) -> tuple[ArgSymbol, ...]:
    """n single-slot symbols over one shared base vector.

    Sharing the base is required: merged letters multiply symbols, and symbol
    products are only defined within one base.
    """
    base = tuple(
        cmath.rect(rng.uniform(0.4, 1.6), rng.uniform(0.3, 5.8)) for _ in range(n)
    )
    return tuple(ArgSymbol(base, (i,)) for i in range(n))


def _random_index(rng: random.Random, max_depth: int = 2, max_weight: int = 4) -> Index:
    d = rng.randint(1, max_depth)
    parts = []
    budget = max_weight
    for i in range(d):
        hi = min(2, budget - (d - i - 1))
        parts.append(rng.randint(1, hi))
        budget -= parts[-1]
    return Index(tuple(parts))


def _random_index_words(rng: random.Random, count: int) -> list[Word]:
    """Index-encoded words over a single shared base, disjoint slots."""
    ks = [_random_index(rng) for _ in range(count)]
    symbols = _random_base(rng, sum(k.depth for k in ks))
    out, pos = [], 0
    for k in ks:
        z = ArgVector(tuple(symbols[pos : pos + k.depth]))
        pos += k.depth
        out.append(word_from_index(k, z))
    return out


def _random_plain_words(rng: random.Random, count: int, max_len: int = 3) -> list[Word]:
    symbols = _random_base(rng, max(1, count * max_len))
    out, pos = [], 0
    for _ in range(count):
        letters = []
        for _ in range(rng.randint(0, max_len)):
            if rng.random() < 0.45:
                letters.append(X)
            else:
                letters.append(symbols[pos])
                pos += 1
        out.append(Word(tuple(letters)))
    return out


# --- word algebra ---------------------------------------------------------------


def _check_wordalg_stuffle(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    for _ in range(10):
        u, v, w = _random_index_words(rng, 3)
        n += 3
        if stuffle(u, v) != stuffle(v, u):
            witnesses.append(f"commutativity: u={u!r} v={v!r}")
        if stuffle(stuffle(u, v), w) != stuffle(u, stuffle(v, w)):
            witnesses.append(f"associativity: u={u!r} v={v!r} w={w!r}")
        if stuffle(EMPTY_WORD, u) != LinComb.of(u):
            witnesses.append(f"unit: u={u!r}")
    return n, witnesses


def _check_wordalg_shuffle(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    for _ in range(10):
        u, v, w = _random_plain_words(rng, 3)
        n += 3
        if shuffle(u, v) != shuffle(v, u):
            witnesses.append(f"commutativity: u={u!r} v={v!r}")
        if shuffle(shuffle(u, v), w) != shuffle(u, shuffle(v, w)):
            witnesses.append(f"associativity: u={u!r} v={v!r} w={w!r}")
        if shuffle(u, EMPTY_WORD) != LinComb.of(u):
            witnesses.append(f"unit: u={u!r}")
    return n, witnesses


# --- regularization layer -------------------------------------------------------


def _trailing_word(rng) -> Word:
    (w,) = _random_index_words(rng, 1)
    h = rng.randint(0, 2)
    return w * y_one_power(h)


def _check_decomposition_reexpand(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    for _ in range(8):
        w = _trailing_word(rng)
        n += 2
        if decompose_stuffle(w).re_expand() != LinComb.of(w):
            witnesses.append(f"stuffle decomposition does not re-expand: {w!r}")
        if decompose_shuffle(w).re_expand() != LinComb.of(w):
            witnesses.append(f"shuffle decomposition does not re-expand: {w!r}")
    return n, witnesses


def _poly_gap(p: TPoly, q: TPoly) -> float:
    n = max(p.degree, q.degree) + 1
    return max(abs(a - b) for a, b in zip(p.padded(n), q.padded(n)))


def _check_rho_roundtrip(rng, cfg, zeta_fn):
    # only the forward map takes the injected table: a corrupted table must
    # surface as a round-trip mismatch, not cancel silently
    n, witnesses = 0, []
    for _ in range(6):
        deg = rng.randint(0, 6)
        p = TPoly(tuple(rng.uniform(-2.0, 2.0) for _ in range(deg + 1)))
        n += 2
        gap = _poly_gap(rho_inv(rho(p, zeta_fn)), p)
        if gap > 1e-12:
            witnesses.append(f"rho_inv(rho(p)) off by {gap:.3e} for p={p.coeffs}")
        gap = _poly_gap(rho(rho_inv(p), zeta_fn), p)
        if gap > 1e-12:
            witnesses.append(f"rho(rho_inv(p)) off by {gap:.3e} for p={p.coeffs}")
    return n, witnesses


def _check_rho_low_degree(rng, cfg, zeta_fn):
    # hand-expanded images of T^2 and T^3 under the transport map
    n, witnesses = 2, []
    want2 = TPoly((zeta(2), 0.0, 1.0))
    got2 = rho(TPoly((0.0, 0.0, 1.0)), zeta_fn)
    if _poly_gap(got2, want2) > 1e-12:
        witnesses.append(f"rho(T^2) = {got2.coeffs}, want {want2.coeffs}")
    want3 = TPoly((-2.0 * zeta(3), 3.0 * zeta(2), 0.0, 1.0))
    got3 = rho(TPoly((0.0, 0.0, 0.0, 1.0)), zeta_fn)
    if _poly_gap(got3, want3) > 1e-12:
        witnesses.append(f"rho(T^3) = {got3.coeffs}, want {want3.coeffs}")
    return n, witnesses


_INTERTWINE_CASES = (
    ((1,), (1,)),
    ((1, 1), (-1, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (1j, 1)),
    # degree-2 polynomial: the only case here whose transport actually
    # consults the constant table, so corruption must surface in it
    ((1, 1), (1, 1)),
)


def _check_rho_intertwine(rng, cfg, zeta_fn):
    # the shuffle polynomial the sweeps read off the panel march must be the
    # transported series-side one
    n, witnesses = 0, []
    for parts, args in _INTERTWINE_CASES:
        k, z = Index(parts), ArgVector.of(args)
        n += 1
        sh = reg_poly(k, z, "shuffle", cfg)
        st = stuffle_poly_direct(k, z, cfg)
        gap = _poly_gap(sh, rho(st, zeta_fn))
        if gap > 1e-9:
            witnesses.append(f"k={parts} z={args}: route gap {gap:.3e}")
    return n, witnesses


def _check_rho_route_agreement(rng, cfg, zeta_fn):
    # the sweeps' stuffle polynomial (inverse transport of the march) against
    # the direct series-side decomposition; independent of zeta_fn
    n, witnesses = 0, []
    for parts, args in _INTERTWINE_CASES:
        k, z = Index(parts), ArgVector.of(args)
        n += 1
        gap = _poly_gap(reg_poly(k, z, "stuffle", cfg), stuffle_poly_direct(k, z, cfg))
        if gap > 1e-9:
            witnesses.append(f"k={parts} z={args}: primary/direct gap {gap:.3e}")
    return n, witnesses


# --- numeric evaluation ---------------------------------------------------------


def _check_oracle_agreement(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    for _ in range(12):
        k = _random_index(rng, max_depth=2, max_weight=3)
        d = k.depth
        tails = [
            cmath.rect(rng.uniform(0.25, 0.6), rng.uniform(0.3, 2 * math.pi - 0.3))
            for _ in range(d)
        ]
        entries = [tails[i] / tails[i + 1] for i in range(d - 1)] + [tails[-1]]
        z = ArgVector.of(entries)
        n += 1
        a = li(k, z, cfg, route="series")
        b = li(k, z, cfg, route="panels")
        gap = abs(a.value - b.value)
        if gap > 1e-9:
            witnesses.append(f"k={k.parts} z={entries}: series/panels gap {gap:.3e}")
    return n, witnesses


_DERIV_CASES = (
    ((2,), (-2,)),
    ((3,), (1.7j,)),
    ((1, 2), (2j, 3j)),
    ((1, 1), (-1.5, 2.5j)),
)

_DERIV_R_CASES = (
    (1, (1, 2), (2j, 3j)),
    (2, (1, 1), (-1.5, 2.5j)),
    (1, (2, 1), (-2, 1.5j)),
)


def _check_derivatives(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    for parts, args in _DERIV_CASES:
        k, z = Index(parts), ArgVector.of(args)
        n += 2
        rep_p, rep_q = check_derivative(k, z, cfg)
        if rep_p.resid > 1e-5:
            witnesses.append(f"lhs derivative k={parts} z={args}: resid {rep_p.resid:.3e}")
        if rep_q.resid > 1e-5:
            witnesses.append(f"rhs derivative k={parts} z={args}: resid {rep_q.resid:.3e}")
    for split, parts, args in _DERIV_R_CASES:
        n += 1
        rep = check_derivative_r(split, Index(parts), ArgVector.of(args), cfg)
        if rep.resid > 1e-5:
            witnesses.append(
                f"inner-factor derivative n={split} k={parts} z={args}: resid {rep.resid:.3e}"
            )
    return n, witnesses


_PROBE_CASES = (
    ((2,), (), 2.0),
    ((1,), (), 2.5),
    ((1, 1), (-2,), 2.0),
)


def _check_limit_probe(rng, cfg, zeta_fn):
    n, witnesses = 0, []
    ts = (1e-2, 1e-3, 1e-4)
    for parts, rest, theta in _PROBE_CASES:
        n += 1
        mags = limit_probe(Index(parts), ArgVector.of(rest), theta, ts, cfg)
        if not all(a > b for a, b in zip(mags, mags[1:])):
            witnesses.append(f"k={parts} rest={rest}: magnitudes not decreasing {mags}")
        elif mags[-1] > 1e-2:
            witnesses.append(f"k={parts} rest={rest}: final magnitude {mags[-1]:.3e}")
    return n, witnesses


# --- registry -------------------------------------------------------------------

# (group, invariant, module, check); group names are the --only filter keys
CHECKS = (
    ("wordalg", "stuffle-laws", "words", _check_wordalg_stuffle),
    ("wordalg", "shuffle-laws", "words", _check_wordalg_shuffle),
    ("rho", "decomposition-reexpand", "regularize", _check_decomposition_reexpand),
    ("rho", "roundtrip", "regularize", _check_rho_roundtrip),
    ("rho", "low-degree-table", "regularize", _check_rho_low_degree),
    ("rho", "route-intertwine", "regularize", _check_rho_intertwine),
    ("rho", "route-agreement", "regularize", _check_rho_route_agreement),
    ("oracle", "series-vs-panels", "evaluate", _check_oracle_agreement),
    ("deriv", "first-argument", "parity", _check_derivatives),
    ("probe", "small-argument", "parity", _check_limit_probe),
)

GROUPS = tuple(dict.fromkeys(group for group, *_ in CHECKS))


def run_selftest(
    only: tuple[str, ...] = (),
    seed: int = 0,
    cfg: EvalConfig = DEFAULT_CONFIG,
    zeta_fn=None,
) -> list[InvariantResult]:
    """Run the registered invariants; ``only`` filters by group name.

    ``zeta_fn`` replaces the constant table used by the forward transport map
    (negative-control hook); leave it None for a real run.
    """
    unknown = set(only) - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown selftest groups: {sorted(unknown)}")
    results = []
    for group, name, module, fn in CHECKS:
        if only and group not in only:
            continue
        rng = random.Random(f"{seed}:{group}:{name}")
        n, witnesses = fn(rng, cfg, zeta_fn)
        results.append(InvariantResult(group, name, module, n, tuple(witnesses)))
    return results
