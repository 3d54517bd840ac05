"""Word algebra: symbols, words, the two products, and their exact laws."""

import collections
import copy
import functools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mplparity
from mplparity import regularize, words
from mplparity.evaluate import enum_contractions
from mplparity.numcore import clear_caches
from mplparity.regularize import Decomposition, Y_ONE_WORD, decompose_shuffle, decompose_stuffle
from mplparity.selftest import _trailing_word, run_selftest
from mplparity.words import (
    ArgSymbol,
    ArgVector,
    EMPTY_WORD,
    Index,
    LinComb,
    ONE_SYMBOL,
    Word,
    X,
    Y_ONE,
    index_of_word,
    integral_word,
    product_power,
    shuffle,
    stuffle,
    word_from_index,
    y_one_power,
)
from oracles import ref_decompose_stuffle, suffix_numbers


# --- symbols ---------------------------------------------------------------


def test_symbol_value_is_slot_product():
    base = (2 + 0j, 3j, -0.5 + 0j)
    assert ArgSymbol(base, (0,)).value == 2 + 0j
    assert ArgSymbol(base, (0, 1)).value == 6j
    assert ArgSymbol(base, (0, 1, 2)).value == -3j


def test_symbol_product_merges_slots():
    base = (2 + 0j, 3j)
    a, b = ArgSymbol(base, (0,)), ArgSymbol(base, (1,))
    assert (a * b).slots == (0, 1)
    assert (a * b) == (b * a)  # sorted multiset, not concatenation


def test_symbol_product_value_independent_of_grouping():
    # recomputing from sorted slots makes regrouped products bit-identical
    base = (0.1 + 0.7j, -1.3 + 0.2j, 0.9 - 0.4j)
    a, b, c = (ArgSymbol(base, (i,)) for i in range(3))
    assert ((a * b) * c).value == (a * (b * c)).value


def test_one_symbol_absorption():
    base = (2 + 0j,)
    a = ArgSymbol(base, (0,))
    assert a * ONE_SYMBOL is a
    assert ONE_SYMBOL * a is a
    assert (ONE_SYMBOL * ONE_SYMBOL).is_literal_one


def test_symbols_from_distinct_bases_differ():
    # same numeric value, different provenance: must not collide (hash or eq)
    a = ArgSymbol((2 + 0j,), (0,))
    b = ArgSymbol((2 + 0j, 5j), (0,))
    assert a.value == b.value and a != b
    with pytest.raises(ValueError):
        a * ArgSymbol((3 + 0j,), (0,))


def test_symbol_slots_must_be_sorted():
    with pytest.raises(ValueError):
        ArgSymbol((1j, 2j), (1, 0))


# --- vectors and indices -----------------------------------------------------


def test_argvector_of_canonicalizes_literal_ones():
    z = ArgVector.of((1 + 0j, -2 + 0j))
    assert z.symbols[0] is ONE_SYMBOL
    assert z.entries == (1 + 0j, -2 + 0j)


def test_argvector_cut_and_reverse_keep_base():
    z = ArgVector.of((2j, -1 + 0j, 0.5 + 0j))
    front = z.cut(1, 2)
    assert front.entries == (2j, -1 + 0j)
    assert front.symbols[0].base == z.symbols[1].base
    assert z.reversed().entries == (0.5 + 0j, -1 + 0j, 2j)
    assert z.cut(2, 1).depth == 0


def test_argvector_prod_and_merged_head():
    z = ArgVector.of((2j, -1 + 0j, 0.5 + 0j))
    assert z.tails[0] == -1j
    m = z.merged_head()
    assert m.depth == 2 and m.entries[0] == -2j
    # a merged head that lands exactly on 1 becomes the literal one
    w = ArgVector.of((2 + 0j, 0.5 + 0j))
    assert w.merged_head().symbols[0] is ONE_SYMBOL


def test_argvector_reciprocal():
    z = ArgVector.of((2j, -4 + 0j))
    assert z.reciprocal().entries == (-0.5j, -0.25 + 0j)


def test_argvector_reciprocal_built_once_per_symbol_tuple():
    clear_caches()
    z = ArgVector.of((2j, -4 + 0j, 1))
    inv = z.reciprocal()
    assert ArgVector(z.symbols).reciprocal() is inv
    assert inv.symbols[2] is ONE_SYMBOL
    assert inv.numbers == ArgVector.of(tuple(1 / e for e in z.entries)).numbers
    clear_caches()
    again = z.reciprocal()
    assert again is not inv and again == inv
    with pytest.raises(ZeroDivisionError):
        ArgVector.of((2, 0)).reciprocal()


def test_index_basics():
    k = Index((2, 1, 3))
    assert k.weight == 6 and k.depth == 3
    assert k.cut(2, 3).parts == (1, 3)
    assert k.cut(3, 2).parts == ()
    assert k.reversed().parts == (3, 1, 2)
    assert k.dec_head().parts == (1, 1, 3)
    with pytest.raises(ValueError):
        Index((0, 1))


def test_index_dec_head_requires_room():
    with pytest.raises(ValueError):
        Index((1, 2)).dec_head()


def test_index_rejects_bool_and_non_int_parts():
    # True == 1 and hash(True) == hash(1): an index of bools would pass for (1, 2)
    for bad in ((True, 2), (2, False), (1.0,), (2, 1.5)):
        with pytest.raises(ValueError):
            Index(bad)


def _seeded_views(seed: int):
    """A seeded (k, z) of depth <= 5, with its contractions and, from depth 2,
    the merged head.  Entries are exact ones and roots, whose products are
    exact, or inexact draws, whose products round by association order."""
    rng = random.Random(f"views:{seed}")
    pool = (1, -1, 1j, -1j, 2 + 0j, 0.5 + 0j)
    d = rng.randint(1, 5)
    k = Index(tuple(rng.randint(1, 3) for _ in range(d)))
    z = ArgVector.of(tuple(rng.choice(pool) if rng.random() < 0.4 else
                           complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d)))
    views = [(k, z)] + enum_contractions(k, z)
    if d >= 2:
        views.append((k.cut(2, d), z.merged_head()))
    return views


@pytest.mark.parametrize("seed", range(16))
def test_derived_views_equal_validated_ones(seed):
    for k, z in _seeded_views(seed):
        d = k.depth
        spans = [(i, j) for i in range(1, d + 2) for j in range(i - 1, d + 1)]
        derived = [(k.reversed(), k.parts[::-1])]
        derived += [(k.cut(i, j), k.parts[i - 1:j]) for i, j in spans]
        if k.parts[0] >= 2:
            derived.append((k.dec_head(), (k.parts[0] - 1,) + k.parts[1:]))
        for view, parts in derived:
            fresh = Index(parts)
            assert type(view) is Index and view == fresh and hash(view) == hash(fresh)
        for v in [z, z.reversed()] + [z.cut(i, j) for i, j in spans]:
            # bit for bit: repr tells -0.0 from 0.0
            assert repr(v.numbers) == repr(suffix_numbers(v.symbols))
            assert (v.entries, v.tails) == v.numbers


def test_vector_numbers_outlive_clear_caches():
    views = [(z, z.cut(2, z.depth), z.reversed()) for _, z in _seeded_views(3)]
    before = [[repr(v.numbers) for v in vs] for vs in views]
    clear_caches()
    assert words._numbers.cache_info().currsize == 0
    assert words._numbers.cache_info().maxsize is not None   # bounded, like every memo
    assert [[repr(v.numbers) for v in vs] for vs in views] == before


# --- words -------------------------------------------------------------------


def test_word_properties():
    base = (2j,)
    ya = ArgSymbol(base, (0,))
    w = Word((ya, X, Y_ONE))
    assert w.weight == 3 and w.depth == 2
    assert w.in_h1 and not w.in_h0
    assert w.trailing_ones() == 1
    assert Word((X, ya)).in_h1 is False
    assert EMPTY_WORD.in_h0 and EMPTY_WORD.in_h1


def test_word_from_index_layout():
    z = ArgVector.of((0.5 + 0j, -2 + 0j))
    w = word_from_index(Index((2, 1)), z)
    assert [l is None for l in w.letters] == [False, True, False]
    assert w.letters[0].value == 0.5 + 0j
    assert w.letters[2].value == -2 + 0j


def test_index_word_round_trip():
    z = ArgVector.of((0.5 + 0j, -2 + 0j, 1 + 0j))
    k = Index((2, 1, 1))
    w = word_from_index(k, z)
    k2, syms = index_of_word(w)
    assert k2 == k and syms == z.symbols


def test_integral_word_suffix_products():
    z = ArgVector.of((0.5 + 0j, -2 + 0j))
    w = integral_word(word_from_index(Index((2, 1)), z))
    # y letters now carry the running products down to the last slot
    assert w.letters[0].value == -1 + 0j and w.letters[0].slots == (0, 1)
    assert w.letters[1] is X
    assert w.letters[2].value == -2 + 0j
    # weight-preserving relabeling
    assert w.weight == 3 and w.depth == 2


def test_integral_word_fixes_depth_one():
    z = ArgVector.of((0.5 + 0j,))
    w = word_from_index(Index((3,)), z)
    assert integral_word(w) == w


# --- products ----------------------------------------------------------------


def test_stuffle_hand_example():
    z = ArgVector.of((0.5 + 0j, -2 + 0j))
    a, b = z.symbols
    u = word_from_index(Index((2,)), z.cut(1, 1))  # y_a x
    v = word_from_index(Index((1,)), z.cut(2, 2))  # y_b
    got = stuffle(u, v)
    want = LinComb({
        Word((a, X, b)): Fraction(1),
        Word((b, a, X)): Fraction(1),
        Word((a * b, X, X)): Fraction(1),  # merged block adds exponents
    })
    assert got == want


def test_stuffle_merged_ones_collapse():
    got = stuffle(y_one_power(1), y_one_power(1))
    want = LinComb({
        Word((Y_ONE, Y_ONE)): Fraction(2),
        Word((Y_ONE, X)): Fraction(1),  # merged pair is exactly the literal one
    })
    assert got == want


def test_shuffle_hand_example():
    base = (0.5 + 0j, -2 + 0j)
    ya, yb = ArgSymbol(base, (0,)), ArgSymbol(base, (1,))
    got = shuffle(Word((X, ya)), Word((yb,)))
    want = LinComb({
        Word((yb, X, ya)): Fraction(1),
        Word((X, yb, ya)): Fraction(1),
        Word((X, ya, yb)): Fraction(1),
    })
    assert got == want


def test_shuffle_counts_interleavings():
    # x^2 shuffled with x^3: multinomial C(5, 2) copies of x^5
    u, v = Word((X, X)), Word((X, X, X))
    got = shuffle(u, v)
    assert got == LinComb({Word((X,) * 5): Fraction(10)})


def test_product_power():
    w = y_one_power(1)
    assert product_power(w, 0, stuffle) == LinComb.of(EMPTY_WORD)
    assert product_power(w, 2, stuffle) == stuffle(w, w)
    assert product_power(w, 2, shuffle) == shuffle(w, w)


def test_stuffle_rejects_a_leading_x_factor_whatever_the_other_factor():
    ya, yb = ArgVector.of((0.5 + 0j, -2 + 0j)).symbols
    bad = Word((X, ya))
    for other in (EMPTY_WORD, Word((yb,)), LinComb.of(Word((yb,))) + LinComb.of(EMPTY_WORD)):
        with pytest.raises(ValueError, match="leading x"):
            stuffle(bad, other)
        with pytest.raises(ValueError, match="leading x"):
            stuffle(other, LinComb.of(bad))


# --- LinComb -----------------------------------------------------------------


def test_lincomb_arithmetic():
    w1, w2 = Word((X,)), Word((X, X))
    c = LinComb.of(w1) + LinComb.of(w2)
    assert c - LinComb.of(w2) == LinComb.of(w1)
    assert Fraction(0) * c == LinComb.zero()
    assert not LinComb.zero()
    # zero coefficients are dropped eagerly
    assert (c - c) == LinComb.zero() and len((c - c).terms) == 0


def test_lincomb_map_bilinear_matches_products():
    z = ArgVector.of((0.5 + 0j, -2 + 0j))
    u = word_from_index(Index((1,)), z.cut(1, 1))
    v = word_from_index(Index((1,)), z.cut(2, 2))
    lhs = stuffle(LinComb.of(u) + LinComb.of(v), v)
    assert lhs == stuffle(u, v) + stuffle(v, v)


# --- exact laws (property-based) ----------------------------------------------


@st.composite
def index_words(draw, count: int):
    """count index-encoded words over one shared base with disjoint slots."""
    ks = [
        draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        for _ in range(count)
    ]
    total = sum(len(k) for k in ks)
    values = draw(
        st.lists(
            st.complex_numbers(
                min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
            ),
            min_size=total,
            max_size=total,
        )
    )
    base = tuple(values)
    words, pos = [], 0
    for k in ks:
        syms = tuple(ArgSymbol(base, (i,)) for i in range(pos, pos + len(k)))
        pos += len(k)
        words.append(word_from_index(Index(tuple(k)), ArgVector(syms)))
    return words


@settings(max_examples=60, deadline=None)
@given(index_words(2))
def test_stuffle_commutative(pair):
    u, v = pair
    assert stuffle(u, v) == stuffle(v, u)


@settings(max_examples=40, deadline=None)
@given(index_words(3))
def test_stuffle_associative(triple):
    u, v, w = triple
    assert stuffle(stuffle(u, v), w) == stuffle(u, stuffle(v, w))


@settings(max_examples=30, deadline=None)
@given(index_words(1))
def test_stuffle_unit(single):
    (u,) = single
    assert stuffle(u, EMPTY_WORD) == LinComb.of(u)


@st.composite
def plain_words(draw, count: int):
    base = tuple(
        draw(
            st.lists(
                st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=count * 3,
                max_size=count * 3,
            )
        )
    )
    words = []
    slot = 0
    for _ in range(count):
        letters = []
        for use_y in draw(st.lists(st.booleans(), max_size=3)):
            if use_y:
                letters.append(ArgSymbol(base, (slot,)))
                slot += 1
            else:
                letters.append(X)
        words.append(Word(tuple(letters)))
    return words


@settings(max_examples=60, deadline=None)
@given(plain_words(2))
def test_shuffle_commutative(pair):
    u, v = pair
    assert shuffle(u, v) == shuffle(v, u)


@settings(max_examples=40, deadline=None)
@given(plain_words(3))
def test_shuffle_associative(triple):
    u, v, w = triple
    assert shuffle(shuffle(u, v), w) == shuffle(u, shuffle(v, w))


@settings(max_examples=30, deadline=None)
@given(plain_words(1))
def test_shuffle_unit(single):
    (u,) = single
    assert shuffle(EMPTY_WORD, u) == LinComb.of(u)


# --- reference products --------------------------------------------------------
# The products as written before coefficients were accumulated into one dict:
# map_bilinear rebuilt the whole combination per term, and the word products
# summed Fraction coefficients.  The current code must agree with them exactly,
# including the order items() and repr report terms in.


def _ref_map_bilinear(a: LinComb, b: LinComb, word_op) -> LinComb:
    out = LinComb.zero()
    for u, cu in a.items():
        for v, cv in b.items():
            out = out + (cu * cv) * word_op(u, v)
    return out


def _ref_split_head_block(w: Word) -> tuple[ArgSymbol, int, Word]:
    # w = y_s x^n rest, for w in H1 and nonempty
    letters = w.letters
    i = 1
    while i < len(letters) and letters[i] is None:
        i += 1
    return letters[0], i - 1, Word(letters[i:])


@functools.lru_cache(maxsize=None)
def _ref_stuffle_words(u: Word, v: Word) -> LinComb:
    if not u.letters:
        return LinComb({v: Fraction(1)})
    if not v.letters:
        return LinComb({u: Fraction(1)})
    s1, n1, w1 = _ref_split_head_block(u)
    s2, n2, w2 = _ref_split_head_block(v)
    head1 = Word((s1,) + (X,) * n1)
    head2 = Word((s2,) + (X,) * n2)
    headm = Word((s1 * s2,) + (X,) * (n1 + n2 + 1))
    acc = {}
    for head, tail in ((head1, _ref_stuffle_words(w1, v)),
                       (head2, _ref_stuffle_words(u, w2)),
                       (headm, _ref_stuffle_words(w1, w2))):
        for w, c in tail.terms.items():
            key = head * w
            acc[key] = acc.get(key, Fraction(0)) + c
    return LinComb(acc)


@functools.lru_cache(maxsize=None)
def _ref_shuffle_words(u: Word, v: Word) -> LinComb:
    if not u.letters:
        return LinComb({v: Fraction(1)})
    if not v.letters:
        return LinComb({u: Fraction(1)})
    a, urest = u.letters[0], Word(u.letters[1:])
    b, vrest = v.letters[0], Word(v.letters[1:])
    acc = {}
    for head, tail in ((a, _ref_shuffle_words(urest, v)), (b, _ref_shuffle_words(u, vrest))):
        for w, c in tail.terms.items():
            key = Word((head,) + w.letters)
            acc[key] = acc.get(key, Fraction(0)) + c
    return LinComb(acc)


def _as_lincomb(x) -> LinComb:
    return x if isinstance(x, LinComb) else LinComb({x: Fraction(1)})


def _ref_stuffle(u, v) -> LinComb:
    return _ref_map_bilinear(_as_lincomb(u), _as_lincomb(v), _ref_stuffle_words)


def _ref_shuffle(u, v) -> LinComb:
    return _ref_map_bilinear(_as_lincomb(u), _as_lincomb(v), _ref_shuffle_words)


def _ref_re_expand(dec: Decomposition) -> LinComb:
    op = _ref_stuffle if dec.mode == "stuffle" else _ref_shuffle
    acc = LinComb.zero()
    for i, part in enumerate(dec.parts):
        if not part:
            continue
        acc = acc + op(part, product_power(Y_ONE_WORD, i, op))
    return acc


def _assert_same(got: LinComb, want: LinComb) -> None:
    assert got == want
    assert repr(got) == repr(want)
    assert list(got.items()) == list(want.items())
    assert all(type(c) in (int, Fraction) for c in got.terms.values())


def _seeded_words(seed: int, count: int, index_form: bool) -> list[Word]:
    """The empty word plus count seeded words over one base: single and merged
    symbols, literal-one letters inside the word and trailing y_1 runs; plain
    words (index_form False) may also start with x."""
    rng = random.Random(seed)
    base = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
    syms = [ArgSymbol(base, (i,)) for i in range(3)] + [ArgSymbol(base, (0, 2)), ONE_SYMBOL]
    out = [EMPTY_WORD]
    for _ in range(count):
        letters = [] if index_form or rng.random() < 0.5 else [X]
        for _ in range(rng.randint(1, 2)):
            letters.append(rng.choice(syms))
            letters.extend([X] * rng.randint(0, 1))
        letters.extend([Y_ONE] * rng.randint(0, 2))
        out.append(Word(tuple(letters)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_stuffle_matches_reference(seed):
    pool = _seeded_words(seed, 5, index_form=True)
    assert any(w.trailing_ones() for w in pool)
    for u in pool:
        for v in pool:
            got = stuffle(u, v)
            _assert_same(got, _ref_stuffle(u, v))
            assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("seed", range(3))
def test_shuffle_matches_reference(seed):
    pool = _seeded_words(seed, 5, index_form=False)
    for u in pool:
        for v in pool:
            got = shuffle(u, v)
            _assert_same(got, _ref_shuffle(u, v))
            assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("seed", range(3))
def test_map_bilinear_matches_reference_on_combinations(seed):
    _, u, v, w, t = _seeded_words(seed, 4, index_form=True)
    a = LinComb({u: Fraction(-1, 2), v: 3, w: Fraction(2, 3)})
    b = LinComb({t: 1, v: Fraction(-5, 7)})
    plus, minus = LinComb.of(u) + LinComb.of(v), LinComb.of(u) - LinComb.of(v)
    for op, ref in ((stuffle, _ref_stuffle), (shuffle, _ref_shuffle)):
        _assert_same(op(a, b), ref(a, b))
        # (u + v)(u - v): the cross terms cancel to zero mid-accumulation
        _assert_same(op(plus, minus), ref(plus, minus))


def test_decompositions_match_reference(monkeypatch):
    rng = random.Random("decompose")
    pool = [_trailing_word(rng) for _ in range(12)]
    pool += [w for w in _seeded_words(7, 6, index_form=True) if w.letters]
    assert max(w.trailing_ones() for w in pool) == 2
    got_shuffle = [decompose_shuffle(w) for w in pool]
    for w, dec in zip(pool, got_shuffle):
        st_dec = decompose_stuffle(w)
        want = ref_decompose_stuffle(w, _ref_stuffle)
        assert len(st_dec.parts) == len(want)
        for got_part, want_part in zip(st_dec.parts, want):
            _assert_same(got_part, want_part)
        for d in (st_dec, dec):
            _assert_same(d.re_expand(), _ref_re_expand(d))
            assert d.re_expand() == LinComb.of(w)
    monkeypatch.setattr(regularize, "shuffle", _ref_shuffle)
    for w, dec in zip(pool, got_shuffle):
        want = decompose_shuffle(w).parts
        assert len(dec.parts) == len(want)
        for got_part, want_part in zip(dec.parts, want):
            _assert_same(got_part, want_part)


def _table_sizes() -> list[int]:
    return [table.cache_info().currsize for table in words._TABLES]


def test_products_read_the_same_cold_and_after_unrelated_products():
    """A product's tables hold its own suffix products only and are empty
    when it returns, so a product reads the same first or after others."""
    index_pool = _seeded_words(11, 4, index_form=True)
    base = next(l.base for w in index_pool for l in w.letters if l is not None and l.slots)
    a, b = ArgSymbol(base, (0,)), ArgSymbol(base, (1,))
    # repeated letters and y_1 powers start words with equal heads, which the
    # kernels merge; plain words may start with x
    index_pool += [y_one_power(2), y_one_power(3), Word((a, a, X)), Word((a, X, a, b))]
    plain_pool = [w for w in index_pool if len(w) < 4] + [Word((X, a, X)), Word((X, X, b))]
    combo = LinComb({index_pool[1]: Fraction(-2, 3), index_pool[-1]: 5, y_one_power(2): 1})
    cases = ([(stuffle, u, v) for u in index_pool for v in index_pool]
             + [(shuffle, u, v) for u in plain_pool for v in plain_pool]
             + [(op, combo, v) for op in (stuffle, shuffle) for v in index_pool[-4:]])
    cold = []
    for op, u, v in cases:
        cold.append(op(u, v))
        assert _table_sizes() == [0, 0]
    refs = {stuffle: _ref_stuffle, shuffle: _ref_shuffle}
    for (op, u, v), got in reversed(list(zip(cases, cold))):
        _assert_same(got, refs[op](u, v))
        op(combo, combo)
        _assert_same(op(u, v), got)
        assert _table_sizes() == [0, 0]


def test_product_tables_are_emptied_when_a_product_raises():
    # letters over two bases cannot merge; the pair (y_1 a, y_1 b) gets to
    # merging a with b only after shorter suffix pairs are in its table
    a, b = ArgSymbol((2j,), (0,)), ArgSymbol((3j,), (0,))
    with pytest.raises(ValueError, match="different bases"):
        stuffle(Word((Y_ONE, a)), Word((Y_ONE, b)))
    assert _table_sizes() == [0, 0]


# --- hashes, pickling, coefficient types --------------------------------------------


def test_hash_and_equality_by_value_across_equal_bases():
    base1 = (0.5 + 0.25j, -2 + 0j, 3j)
    base2 = tuple(list(base1))
    assert base1 == base2 and base1 is not base2
    a, b = ArgSymbol(base1, (0, 2)), ArgSymbol(base2, (0, 2))
    assert a == b and hash(a) == hash(b)
    wa, wb = Word((a, X, Y_ONE)), Word((b, X, Y_ONE))
    assert wa == wb and hash(wa) == hash(wb)
    assert {wa: 1}[wb] == 1


@pytest.mark.parametrize("roundtrip", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_keep_equality_and_hash(roundtrip):
    z = ArgVector.of((0.5 + 0j, -2 + 0j, 1 + 0j))
    w = integral_word(word_from_index(Index((2, 1, 2)), z))
    combo = stuffle(w, y_one_power(1)) + LinComb.of(w, Fraction(-1, 3))
    for obj in (w, w.letters[0], w.letters[1], combo):
        back = roundtrip(obj)
        assert back == obj and hash(back) == hash(obj)
    assert roundtrip(combo).terms == combo.terms


_PICKLE_IN_CHILD = """
import pickle, sys
from fractions import Fraction
from mplparity.words import ArgVector, Index, LinComb, word_from_index
w = word_from_index(Index((3, 1)), ArgVector.of((0.5, -2)))
sys.stdout.write(pickle.dumps((w, LinComb({w: Fraction(1, 2)}))).hex())
"""


def test_unpickled_hash_is_recomputed_in_the_receiving_process():
    # hash(None), inside the x letter, differs between processes, so a hash
    # carried through pickle from a sweep worker would be stale
    src = str(Path(mplparity.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PICKLE_IN_CHILD], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    w, combo = pickle.loads(bytes.fromhex(proc.stdout))
    here = word_from_index(Index((3, 1)), ArgVector.of((0.5, -2)))
    assert w == here and hash(w) == hash(here)
    assert {here: 1}[w] == 1 and combo.terms[here] == Fraction(1, 2)


# --- letter codes --------------------------------------------------------------


def test_codes_follow_symbol_equality():
    # equal symbols over equal but distinct base tuples share a code
    z1, z2 = ArgVector.of((0.5 + 0j, 2 + 1j)), ArgVector.of((0.5 + 0j, 2 + 1j))
    assert z1.symbols[0].base is not z2.symbols[0].base
    w1, w2 = (word_from_index(Index((1, 2)), z) for z in (z1, z2))
    assert tuple(w1) == tuple(w2) and w1 == w2 and hash(w1) == hash(w2)
    assert w2.letters == z1.symbols + (X,)
    # equal values in different slots are different letters
    a, b = ArgVector.of((2 + 0j, 2 + 0j)).symbols
    assert a.value == b.value and a != b
    assert Word((a,)) != Word((b,)) and tuple(Word((a, b))) == tuple(Word((a,)) * Word((b,)))
    # a merged letter whose slots make it the literal one is y_1
    one = Word((Y_ONE,))[0]
    assert words._code_product(one, one) == one == Word((ONE_SYMBOL * ONE_SYMBOL,))[0]
    assert words._code_product(Word((a,))[0], one) == Word((a,))[0]
    merged = [w for w, _ in stuffle(y_one_power(1), y_one_power(1)).items() if w.depth == 1]
    assert merged == [Word((Y_ONE, X))] and merged[0].letters[0] is Y_ONE


def test_words_outlive_clear_caches():
    def build():
        z = ArgVector.of((0.5 - 0.25j, 3j, 1 + 0j))
        return integral_word(word_from_index(Index((2, 1, 1)), z))

    w = build()
    product = stuffle(w, y_one_power(1))
    clear_caches()
    assert words._stuffle_words.cache_info().currsize == 0
    assert words._shuffle_words.cache_info().currsize == 0
    again = build()
    assert w == again and hash(w) == hash(again)
    assert [l if l is None else (l.slots, l.value) for l in w.letters] == \
        [((0, 1), 0.75 + 1.5j), None, ((1,), 3j), ((), 1 + 0j)]
    assert stuffle(again, y_one_power(1)) == product


_ORDER_IN_CHILD = """
import sys
from mplparity.evaluate import li_word
from mplparity.regularize import decompose_shuffle
from mplparity.words import (ArgVector, Index, LinComb, Word, integral_word, shuffle, stuffle,
                             word_from_index)
z = ArgVector.of((0.5 + 0.25j, -0.75 + 0.5j, 0.3 - 0.6j, 1))
if sys.argv[1] == "reversed":
    Word(z.symbols[::-1])  # the same letters, first seen in the other order
u = word_from_index(Index((2, 1)), z.cut(1, 2))
v = word_from_index(Index((1, 1)), z.cut(3, 4))
combo = stuffle(LinComb.of(u) + LinComb.of(v), v) + shuffle(u, v)
part = decompose_shuffle(integral_word(word_from_index(Index((1, 2, 1, 1)), z))).parts[0]
value = li_word(part)
print(tuple(u), tuple(v))
print(repr(list(combo.items())))
print(repr(combo))
print(repr(list(part.items())), value.real.hex(), value.imag.hex())
"""


def test_order_never_comes_from_codes():
    src = str(Path(mplparity.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = {}
    for order in ("forward", "reversed"):
        proc = subprocess.run([sys.executable, "-c", _ORDER_IN_CHILD, order], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out[order] = proc.stdout.splitlines()
    assert out["forward"][0] != out["reversed"][0]  # the codes did differ
    assert out["forward"][1:] == out["reversed"][1:]
    with pytest.raises(TypeError):
        sorted([Word((X,)), EMPTY_WORD])


def test_lincomb_int_and_fraction_coefficients_agree():
    w = Word((X,))
    a, b = LinComb({w: 3}), LinComb({w: Fraction(3)})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert type(a.terms[w]) is int and type(b.terms[w]) is Fraction
    assert LinComb({w: 0.5}).terms[w] == Fraction(1, 2)
    assert type(LinComb({w: True}).terms[w]) is Fraction


# --- negative controls for the wordalg selftest group -----------------------------


# The kernels take code tuples and return (words, multiplicities) as tuples.


def _stuffle_words_no_second_branch(u: tuple, v: tuple) -> tuple:
    # head block of u first, or the merged head; never the head block of v
    if not u:
        return (v,), (1,)
    if not v:
        return (u,), (1,)
    i = next((n for n in range(1, len(u)) if u[n]), len(u))
    j = next((n for n in range(1, len(v)) if v[n]), len(v))
    headm = (words._code_product(u[0], v[0]),) + (0,) * (i + j - 1)
    acc = collections.Counter()
    for head, tail in ((u[:i], _stuffle_words_no_second_branch(u[i:], v)),
                       (headm, _stuffle_words_no_second_branch(u[i:], v[j:]))):
        for w, c in zip(*tail):
            acc[head + w] += c
    return tuple(acc), tuple(acc.values())


def _shuffle_words_no_second_branch(u: tuple, v: tuple) -> tuple:
    # first letter of u first; never the first letter of v
    if not u:
        return (v,), (1,)
    if not v:
        return (u,), (1,)
    ws, cs = _shuffle_words_no_second_branch(u[1:], v)
    return tuple(u[:1] + w for w in ws), cs


@pytest.mark.parametrize("attr,invariant,corrupt", [
    ("_stuffle_words", "stuffle-laws", _stuffle_words_no_second_branch),
    ("_shuffle_words", "shuffle-laws", _shuffle_words_no_second_branch),
])
def test_wordalg_selftest_witnesses_a_corrupted_product(monkeypatch, attr, invariant, corrupt):
    """A word product that loses an interleaving branch is not commutative,
    and the wordalg group must say so for that product alone.  A product that
    stays commutative and associative but is wrong (stuffle without merge
    terms) passes these laws; test_stuffle_hand_example catches that one."""
    monkeypatch.setattr(words, attr, corrupt)
    results = {r.name: r for r in run_selftest(only=("wordalg",))}
    assert _table_sizes() == [0, 0]   # the product left unpatched still empties its table
    assert set(results) == {"stuffle-laws", "shuffle-laws"}
    bad = results.pop(invariant)
    assert not bad.passed
    assert any(w.startswith("commutativity") for w in bad.witnesses)
    assert all(r.passed for r in results.values())
