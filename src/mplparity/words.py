"""Word algebra over the alphabet {x, y_c}: the bookkeeping layer every
identity check is assembled from.

A letter is None for the differential-form letter x, and an ArgSymbol c for
an argument letter y_c.  The subscript c is not stored as a raw complex
number: two letters must compare equal exactly when they denote the same
argument product, and floating multiplication is not associative.  Instead
each symbol is a sorted multiset of slot indices into one base tuple of
complex entries; the numeric value is recomputed from the base in sorted slot
order whenever symbols are multiplied, so equal multisets always carry
bit-identical values.  The empty multiset is the literal argument 1 (the
letter created by regularization), and base entries exactly equal to 1
canonicalize to it.  Symbols compute their hash once, at construction; a
symbol over a base tuple equal to another one compares and hashes alike.

A word is the tuple of its letter codes: a Word is a tuple of small ints, so
its hash and equality are those of an int tuple.  One process-wide table
gives each letter its code, x first as 0 and each symbol, by ArgSymbol
equality, the next free code when a word first meets it.  The table only
grows and survives clear_caches, so a code keeps its letter for the life of
the process, and the two products recurse on code tuples.  Codes follow the
order letters were first seen in, which differs between processes and runs,
so no order is ever taken from them: ``LinComb.items()`` sorts by
``Word.sort_key`` (slots and values), and pickling goes through the letters.

An index is validated once, when it is built from parts; the indices derived
from it (cut, reversed, dec_head) are not checked again.  An argument vector
is its tuple of symbols; its entries and tail products are computed by
suffix products of the symbols once per symbol tuple, in a bounded memo that
clear_caches empties, so equal symbol tuples always read bit-identical
numbers.  Its reciprocal vector is built once per symbol tuple in a second
such memo.

Coefficients are exact rationals throughout, stored as ``int`` where they are
integers (stuffle and shuffle multiplicities) and as ``Fraction`` otherwise;
nothing in this module rounds, so a product reads its operands' terms in any
order.  Every linear combination is accumulated into one dict by
``_add_into``; zero terms are dropped once, when the ``LinComb`` is built.  A
product's table of the products of its suffix pairs lives for that product
only: kept across products, the tables' entries were walked by every full
cyclic collection (selftest seed 0, batch 0: 155 collections in 12-13% of
item time, now 35 in 3%).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Iterator, Mapping

from .numcore import memo


def _canonical_complex(v) -> complex:
    v = complex(v)
    # collapse signed zeros so equal values hash identically across routes
    re = v.real + 0.0
    im = v.imag + 0.0
    return complex(re, im)


@dataclass(frozen=True, slots=True)
class ArgSymbol:
    """Multiset of base-slot indices; () is the literal argument 1."""

    base: tuple[complex, ...]
    slots: tuple[int, ...]
    value: complex = field(init=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(sorted(self.slots)) != self.slots:
            raise ValueError("slots must be sorted")
        v = 1 + 0j
        for i in self.slots:
            v *= self.base[i]
        object.__setattr__(self, "value", _canonical_complex(v))
        object.__setattr__(self, "_hash", hash((self.base, self.slots)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ArgSymbol, (self.base, self.slots)

    @property
    def is_literal_one(self) -> bool:
        return not self.slots

    def __mul__(self, other: "ArgSymbol") -> "ArgSymbol":
        if not other.slots:
            return self
        if not self.slots:
            return other
        if self.base != other.base:
            raise ValueError("cannot multiply symbols over different bases")
        merged = tuple(sorted(self.slots + other.slots))
        return ArgSymbol(self.base, merged)

    def __repr__(self) -> str:
        if self.is_literal_one:
            return "ArgSymbol(1)"
        return f"ArgSymbol({list(self.slots)}={self.value:.6g})"


ONE_SYMBOL = ArgSymbol((), ())


X = None          # the letter x; y_c is the ArgSymbol c itself
Y_ONE = ONE_SYMBOL

# The code table: _LETTERS[code] is the letter and _KEYS[code] its sort key.
_LETTERS: list[ArgSymbol | None] = [X]
_KEYS: list[tuple] = [(0, (), 0.0, 0.0)]
_CODES: dict[ArgSymbol, int] = {}


def _code(letter: ArgSymbol | None) -> int:
    """The letter's code, appended to the table the first time it is seen."""
    if letter is None:
        return 0
    code = _CODES.get(letter)
    if code is None:
        key = (1, letter.slots, letter.value.real, letter.value.imag)
        code = _CODES[letter] = len(_LETTERS)
        _LETTERS.append(letter)
        _KEYS.append(key)
    return code


ONE = _code(Y_ONE)


@lru_cache(maxsize=None)
def _code_product(a: int, b: int) -> int:
    """Code of the product of two argument letters, given by their codes."""
    return _code(_LETTERS[a] * _LETTERS[b])


def _letter_repr(l: ArgSymbol | None) -> str:
    if l is None:
        return "x"
    if l.is_literal_one:
        return "y1"
    return f"y[{l.value:.6g}]"


class Word(tuple):
    """A word over {x, y_c}, stored as the tuple of its letter codes; built
    from letters, and ``letters`` decodes it."""

    __slots__ = ()
    # codes are process-local, so words have no order of their own: sort_key
    __lt__ = __le__ = __gt__ = __ge__ = None

    def __new__(cls, letters: Iterable[ArgSymbol | None] = ()) -> "Word":
        return tuple.__new__(cls, map(_code, letters))

    def __reduce__(self):
        return Word, (self.letters,)

    @property
    def letters(self) -> tuple[ArgSymbol | None, ...]:
        return tuple(map(_LETTERS.__getitem__, self))

    @property
    def weight(self) -> int:
        return len(self)

    @property
    def depth(self) -> int:
        return len(self) - self.count(0)

    @property
    def in_h1(self) -> bool:
        """No leading x (admits a series interpretation)."""
        return not self or self[0] != 0

    @property
    def in_h0(self) -> bool:
        """in_h1 and no trailing y_1 (admits a convergent value)."""
        return not self or (self[0] != 0 and self[-1] != ONE)

    def trailing_ones(self) -> int:
        n = len(self)
        while n and self[n - 1] == ONE:
            n -= 1
        return len(self) - n

    def __mul__(self, other: tuple) -> "Word":
        """Concatenation with a word or a tuple of codes."""
        return tuple.__new__(Word, tuple.__add__(self, other))

    def sort_key(self):
        return (len(self), tuple(map(_KEYS.__getitem__, self)))

    def __repr__(self) -> str:
        if not self:
            return "Word()"
        return "".join(map(_letter_repr, self.letters))


# Word.of_codes(codes) is the word with those codes, taken as they are.
Word.of_codes = staticmethod(partial(tuple.__new__, Word))
EMPTY_WORD = Word()


def _exact(c) -> int | Fraction:
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _add_into(acc: dict, terms: Iterable[tuple[Word, int | Fraction]], scale=1) -> None:
    """acc += scale * terms, in place; terms that sum to zero stay until the
    dict is turned into a LinComb."""
    get = acc.get
    if scale == 1:
        for w, c in terms:
            acc[w] = get(w, 0) + c
    else:
        for w, c in terms:
            acc[w] = get(w, 0) + scale * c


class LinComb:
    """Finite rational linear combination of words; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int | Fraction] | None = None):
        clean: dict[Word, int | Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = _exact(c)
                if c:
                    clean[w] = c
        self.terms = clean

    @classmethod
    def of(cls, w: Word, c: Fraction | int = 1) -> "LinComb":
        return cls({w: c})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return LinComb(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        _add_into(out, other.terms.items(), -1)
        return LinComb(out)

    def __rmul__(self, c) -> "LinComb":
        c = _exact(c)
        return LinComb({w: c * v for w, v in self.terms.items()})

    def __neg__(self) -> "LinComb":
        return LinComb({w: -v for w, v in self.terms.items()})

    def items(self) -> Iterator[tuple[Word, int | Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda t: t[0].sort_key()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.items():
            bits.append(f"{c}*{w!r}")
        return " + ".join(bits)


@dataclass(frozen=True)
class Index:
    """Exponent tuple (k_1, ..., k_d), every part a positive integer."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(type(p) is not int or p < 1 for p in self.parts):
            raise ValueError(f"index parts must be positive integers: {self.parts}")

    @staticmethod
    def _derived(parts: tuple[int, ...]) -> "Index":
        """The index of parts derived from a valid index, not checked again."""
        out = object.__new__(Index)
        object.__setattr__(out, "parts", parts)
        return out

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def cut(self, i: int, j: int) -> "Index":
        """1-based inclusive slice; empty when i > j."""
        return Index._derived(self.parts[i - 1 : j] if i <= j else ())

    def reversed(self) -> "Index":
        return Index._derived(self.parts[::-1])

    def dec_head(self) -> "Index":
        """(k_1 - 1, k_2, ..., k_d); requires k_1 >= 2."""
        if not self.parts or self.parts[0] < 2:
            raise ValueError("dec_head needs k_1 >= 2")
        return Index._derived((self.parts[0] - 1,) + self.parts[1:])

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Index{self.parts}"


@dataclass(frozen=True)
class ArgVector:
    """Argument tuple with symbolic provenance for each entry."""

    symbols: tuple[ArgSymbol, ...] = ()

    @classmethod
    def of(cls, values: Iterable[complex]) -> "ArgVector":
        base = tuple(_canonical_complex(v) for v in values)
        syms = []
        for i, v in enumerate(base):
            syms.append(ONE_SYMBOL if v == 1 else ArgSymbol(base, (i,)))
        return cls(tuple(syms))

    @property
    def depth(self) -> int:
        return len(self.symbols)

    @property
    def numbers(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """(entries, tails), computed once per symbol tuple."""
        return _numbers(self.symbols)

    @property
    def entries(self) -> tuple[complex, ...]:
        return _numbers(self.symbols)[0]

    @property
    def tails(self) -> tuple[complex, ...]:
        """Tail products (z_1...z_d, z_2...z_d, ..., z_d): the values of the
        symbol products, so each depends only on the slots it multiplies."""
        return _numbers(self.symbols)[1]

    def cut(self, i: int, j: int) -> "ArgVector":
        if i > j:
            return ArgVector(())
        return ArgVector(self.symbols[i - 1 : j])

    def reversed(self) -> "ArgVector":
        return ArgVector(self.symbols[::-1])

    def reciprocal(self) -> "ArgVector":
        """Entrywise 1/z_i, as a fresh vector (new provenance base), built
        once per symbol tuple."""
        return _reciprocal(self.symbols)

    def merged_head(self) -> "ArgVector":
        """(z_1 z_2, z_3, ..., z_d); requires depth >= 2."""
        if self.depth < 2:
            raise ValueError("merged_head needs depth >= 2")
        head = self.symbols[0] * self.symbols[1]
        if head.value == 1:
            head = ONE_SYMBOL
        return ArgVector((head,) + self.symbols[2:])

    def __repr__(self) -> str:
        return f"ArgVector{self.entries}"


@memo(maxsize=100_000)
def _numbers(symbols: tuple[ArgSymbol, ...]) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """An argument vector's entries and tails, the tails by suffix products."""
    tails = []
    suffix = ONE_SYMBOL
    for sym in reversed(symbols):
        suffix = sym * suffix
        tails.append(suffix.value)
    return tuple(s.value for s in symbols), tuple(reversed(tails))


@memo(maxsize=100_000)
def _reciprocal(symbols: tuple[ArgSymbol, ...]) -> ArgVector:
    """The vector of the entries 1/z_i over a base of its own."""
    if any(s.value == 0 for s in symbols):
        raise ZeroDivisionError("reciprocal of a zero entry")
    return ArgVector.of(tuple(1 / s.value for s in symbols))


def word_from_index(k: Index, z: ArgVector) -> Word:
    """y_{z_1} x^{k_1 - 1} ... y_{z_d} x^{k_d - 1}."""
    if k.depth != z.depth:
        raise ValueError("index and argument depth differ")
    letters: list[ArgSymbol | None] = []
    for ki, sym in zip(k.parts, z.symbols):
        letters.append(sym)
        letters.extend([X] * (ki - 1))
    return Word(tuple(letters))


def index_of_word(w: Word) -> tuple[Index, tuple[ArgSymbol, ...]]:
    """Inverse of word_from_index on well-formed words (no leading x)."""
    if not w.in_h1:
        raise ValueError("word has a leading x")
    parts: list[int] = []
    syms: list[ArgSymbol] = []
    for c in w:
        if c:
            parts.append(1)
            syms.append(_LETTERS[c])
        else:
            parts[-1] += 1
    return Index(tuple(parts)), tuple(syms)


def integral_word(w: Word) -> Word:
    """Replace each y-letter's argument by the product of it and all later
    y-letter arguments (the encoding under which the word reads as an
    iterated integral)."""
    if not w.in_h1:
        raise ValueError("word has a leading x")
    codes = list(w)
    suffix = ONE
    for i in range(len(codes) - 1, -1, -1):
        if codes[i]:
            suffix = codes[i] = _code_product(codes[i], suffix)
    return Word.of_codes(codes)


# The product kernels take code tuples and return their product as two
# tuples, its words (as code tuples, each once) and their multiplicities.


def _prepend(pairs, disjoint: bool) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Sum over (head, tail) of head concatenated with each word of tail;
    disjoint says that no two heads start a common word."""
    if disjoint:
        return (tuple([head + w for head, (ws, _) in pairs for w in ws]),
                sum((cs for _, (_, cs) in pairs), ()))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for head, (ws, cs) in pairs:
        for w, c in zip(ws, cs):
            w = head + w
            acc[w] = get(w, 0) + c
    return tuple(acc), tuple(acc.values())


def _block_end(w: tuple[int, ...]) -> int:
    """Length of the head block y_c x^n of w."""
    i = 1
    while i < len(w) and not w[i]:
        i += 1
    return i


@lru_cache(maxsize=None)
def _stuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple:
    if not u:
        return (v,), (1,)
    if not v:
        return (u,), (1,)
    i, j = _block_end(u), _block_end(v)
    hu, hv = u[:i], v[:j]
    # the merged head block is longer than either other head, so only those
    # two can start a common word, and only when they are equal
    headm = (_code_product(u[0], v[0]),) + (0,) * (i + j - 1)
    return _prepend(((hu, _stuffle_words(u[i:], v)),
                     (hv, _stuffle_words(u, v[j:])),
                     (headm, _stuffle_words(u[i:], v[j:]))), hu != hv)


@lru_cache(maxsize=None)
def _shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple:
    if not u:
        return (v,), (1,)
    if not v:
        return (u,), (1,)
    return _prepend(((u[:1], _shuffle_words(u[1:], v)),
                     (v[:1], _shuffle_words(u, v[1:]))), u[0] != v[0])


_TABLES = (_stuffle_words, _shuffle_words)   # the tables, whatever the names are rebound to


def _terms(x: Word | LinComb) -> list[tuple[Word, int | Fraction]]:
    return list(x.terms.items()) if isinstance(x, LinComb) else [(x, 1)]


def _product(kernel, us: list, vs: list) -> LinComb:
    acc: dict[tuple[int, ...], int | Fraction] = {}
    try:
        for u, cu in us:
            for v, cv in vs:
                # plain tuples as table keys: the collector never untracks a Word
                _add_into(acc, zip(*kernel(tuple(u), tuple(v))), cu * cv)
    finally:   # kept past this product, the tables are only work for the collector
        for table in _TABLES:
            table.cache_clear()
    out = LinComb()  # the coefficients are exact already; drop the zeros
    out.terms = {w: c for w, c in zip(map(Word.of_codes, acc), acc.values()) if c}
    return out


def stuffle(u: Word | LinComb, v: Word | LinComb) -> LinComb:
    """Quasi-shuffle product: interleave argument blocks, plus merge terms
    that multiply arguments and fuse exponents."""
    us, vs = _terms(u), _terms(v)
    if not all(w.in_h1 for w, _ in us + vs):
        raise ValueError("stuffle needs words without leading x")
    return _product(_stuffle_words, us, vs)


def shuffle(u: Word | LinComb, v: Word | LinComb) -> LinComb:
    """Plain shuffle product: interleave letters."""
    return _product(_shuffle_words, _terms(u), _terms(v))


def y_one_power(n: int) -> Word:
    """The concatenation word y_1^n."""
    return Word.of_codes((ONE,) * n)


def product_power(w: Word, n: int, op) -> LinComb:
    """n-fold product of w under op (stuffle or shuffle)."""
    out = LinComb.of(EMPTY_WORD)
    for _ in range(n):
        out = op(out, LinComb.of(w))
    return out
