"""Word algebra over the alphabet {x, y_c}: the bookkeeping layer every
identity check is assembled from.

A letter is stored bare: None for the differential-form letter x, and the
ArgSymbol c itself for an argument letter y_c, so a word is a tuple of
symbols and Nones.  The subscript c is not stored as a raw complex number: two
letters must compare equal exactly when they denote the same argument
product, and floating multiplication is not associative.  Instead each symbol
is a sorted multiset of slot indices into one base tuple of complex entries;
the numeric value is recomputed from the base in sorted slot order whenever
symbols are multiplied, so equal multisets always carry bit-identical values.
The empty multiset is the literal argument 1 (the letter created by
regularization), and base entries exactly equal to 1 canonicalize to it.

Symbols and words compute their hash once, at construction, and return it
from ``__hash__``; equality is still by value, so a symbol over a base tuple
equal to another one compares and hashes alike.  Pickling rebuilds them from
their fields, so the stored hash is recomputed in the receiving process (the
hash of None, the x letter, is not stable across processes).

Coefficients are exact rationals throughout, stored as ``int`` where they are
integers (stuffle and shuffle multiplicities) and as ``Fraction`` otherwise;
nothing in this module rounds.  Every linear combination is accumulated into
one dict by ``_add_into``; zero terms are dropped once, when the ``LinComb`` is
built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


def _letter_repr(l: ArgSymbol | None) -> str:
    if l is None:
        return "x"
    if l.is_literal_one:
        return "y1"
    return f"y[{l.value:.6g}]"


@dataclass(frozen=True, slots=True)
class Word:
    letters: tuple[ArgSymbol | None, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.letters,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Word, (self.letters,)

    @property
    def weight(self) -> int:
        return len(self.letters)

    @property
    def depth(self) -> int:
        return sum(1 for l in self.letters if l is not None)

    @property
    def in_h1(self) -> bool:
        """No leading x (admits a series interpretation)."""
        return not self.letters or self.letters[0] is not None

    @property
    def in_h0(self) -> bool:
        """in_h1 and no trailing y_1 (admits a convergent value)."""
        if not self.in_h1:
            return False
        return not self.letters or self.letters[-1] != Y_ONE

    def trailing_ones(self) -> int:
        n = 0
        for l in reversed(self.letters):
            if l != Y_ONE:
                break
            n += 1
        return n

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def sort_key(self):
        key = []
        for l in self.letters:
            if l is None:
                key.append((0, (), 0.0, 0.0))
            else:
                key.append((1, l.slots, l.value.real, l.value.imag))
        return (len(self.letters), tuple(key))

    def __repr__(self) -> str:
        if not self.letters:
            return "Word()"
        return "".join(map(_letter_repr, self.letters))


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

    def map_bilinear(self, other: "LinComb", word_op) -> "LinComb":
        acc: dict[Word, int | Fraction] = {}
        vs = list(other.items())
        for u, cu in self.items():
            for v, cv in vs:
                _add_into(acc, word_op(u, v).terms.items(), cu * cv)
        return LinComb(acc)

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
        if any((not isinstance(p, int)) or p < 1 for p in self.parts):
            raise ValueError(f"index parts must be positive integers: {self.parts}")

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def cut(self, i: int, j: int) -> "Index":
        """1-based inclusive slice; empty when i > j."""
        if i > j:
            return Index(())
        return Index(self.parts[i - 1 : j])

    def reversed(self) -> "Index":
        return Index(self.parts[::-1])

    def dec_head(self) -> "Index":
        """(k_1 - 1, k_2, ..., k_d); requires k_1 >= 2."""
        if not self.parts or self.parts[0] < 2:
            raise ValueError("dec_head needs k_1 >= 2")
        return Index((self.parts[0] - 1,) + self.parts[1:])

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

    @cached_property
    def entries(self) -> tuple[complex, ...]:
        return tuple(s.value for s in self.symbols)

    @cached_property
    def tails(self) -> tuple[complex, ...]:
        """Tail products (z_1...z_d, z_2...z_d, ..., z_d): the values of the
        symbol products, so each depends only on the slots it multiplies."""
        out = []
        suffix = ONE_SYMBOL
        for sym in reversed(self.symbols):
            suffix = sym * suffix
            out.append(suffix.value)
        return tuple(reversed(out))

    def cut(self, i: int, j: int) -> "ArgVector":
        if i > j:
            return ArgVector(())
        return ArgVector(self.symbols[i - 1 : j])

    def reversed(self) -> "ArgVector":
        return ArgVector(self.symbols[::-1])

    def reciprocal(self) -> "ArgVector":
        """Entrywise 1/z_i, as a fresh vector (new provenance base)."""
        if any(s.value == 0 for s in self.symbols):
            raise ZeroDivisionError("reciprocal of a zero entry")
        return ArgVector.of(tuple(1 / s.value for s in self.symbols))

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
    for l in w.letters:
        if l is not None:
            parts.append(1)
            syms.append(l)
        else:
            parts[-1] += 1
    return Index(tuple(parts)), tuple(syms)


def integral_word(w: Word) -> Word:
    """Replace each y-letter's argument by the product of it and all later
    y-letter arguments (the encoding under which the word reads as an
    iterated integral)."""
    if not w.in_h1:
        raise ValueError("word has a leading x")
    letters = list(w.letters)
    suffix = ONE_SYMBOL
    for i in range(len(letters) - 1, -1, -1):
        l = letters[i]
        if l is not None:
            suffix = l * suffix
            letters[i] = suffix
    return Word(tuple(letters))


def _split_head_block(w: Word) -> tuple[ArgSymbol, int, Word]:
    # w = y_s x^n rest, for w in H1 and nonempty
    sym = w.letters[0]
    assert sym is not None
    n = 0
    i = 1
    while i < len(w.letters) and w.letters[i] is None:
        n += 1
        i += 1
    return sym, n, Word(w.letters[i:])


@memo(maxsize=200_000)
def _stuffle_words(u: Word, v: Word) -> LinComb:
    if not u.letters:
        return LinComb.of(v)
    if not v.letters:
        return LinComb.of(u)
    if not (u.in_h1 and v.in_h1):
        raise ValueError("stuffle needs words without leading x")
    s1, n1, w1 = _split_head_block(u)
    s2, n2, w2 = _split_head_block(v)
    head1 = u.letters[: n1 + 1]
    head2 = v.letters[: n2 + 1]
    headm = (s1 * s2,) + (X,) * (n1 + n2 + 1)
    acc: dict[Word, int] = {}
    for head, tail in ((head1, _stuffle_words(w1, v)),
                       (head2, _stuffle_words(u, w2)),
                       (headm, _stuffle_words(w1, w2))):
        _add_into(acc, ((Word(head + w.letters), c) for w, c in tail.terms.items()))
    return LinComb(acc)


@memo(maxsize=200_000)
def _shuffle_words(u: Word, v: Word) -> LinComb:
    if not u.letters:
        return LinComb.of(v)
    if not v.letters:
        return LinComb.of(u)
    a, urest = u.letters[0], Word(u.letters[1:])
    b, vrest = v.letters[0], Word(v.letters[1:])
    acc: dict[Word, int] = {}
    for head, tail in ((a, _shuffle_words(urest, v)), (b, _shuffle_words(u, vrest))):
        _add_into(acc, ((Word((head,) + w.letters), c) for w, c in tail.terms.items()))
    return LinComb(acc)


def stuffle(u: Word | LinComb, v: Word | LinComb) -> LinComb:
    """Quasi-shuffle product: interleave argument blocks, plus merge terms
    that multiply arguments and fuse exponents."""
    U = u if isinstance(u, LinComb) else LinComb.of(u)
    V = v if isinstance(v, LinComb) else LinComb.of(v)
    return U.map_bilinear(V, _stuffle_words)


def shuffle(u: Word | LinComb, v: Word | LinComb) -> LinComb:
    """Plain shuffle product: interleave letters."""
    U = u if isinstance(u, LinComb) else LinComb.of(u)
    V = v if isinstance(v, LinComb) else LinComb.of(v)
    return U.map_bilinear(V, _shuffle_words)


def y_one_power(n: int) -> Word:
    """The concatenation word y_1^n."""
    return Word((Y_ONE,) * n)


def product_power(w: Word, n: int, op) -> LinComb:
    """n-fold product of w under op (stuffle or shuffle)."""
    out = LinComb.of(EMPTY_WORD)
    for _ in range(n):
        out = op(out, LinComb.of(w))
    return out
