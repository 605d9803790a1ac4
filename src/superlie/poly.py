"""Free associative superalgebra over the rationals.

A :class:`Poly` is a finitely supported map from words to exact rationals.
The product concatenates words bilinearly, and the superbracket is

    [p, q] = p*q - (-1)^{|p||q|} q*p

for parity-homogeneous p, q, extended bilinearly over homogeneous parts.
All arithmetic is exact; nothing is ever rounded.  A Poly keeps its terms
as integer numerators over one positive denominator, in lowest terms, so
equality and hashing are deterministic and the arithmetic is on ints with
one gcd per result.  The terms as ``fractions.Fraction`` coefficients, in
descending deglex order with the leading term first, are built when first
read and kept.

:class:`Poly` is the boundary type.  The hot kernels -- the superbracket
(:func:`bracket_terms`), the free expansion of bracketings and reduction --
run on plain dicts from letter tuples (symbol ranks) to coefficients and
build one Poly per result, so no intermediate sum is sorted or hashed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Container, Dict, Iterable, Mapping, Optional, Union

from .words import Alphabet, Word, deglex_key

Scalar = Union[int, Fraction]


def _to_fraction(value) -> Fraction:
    # exactness is the contract; never accept floats silently
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(value)


def _fill(p: "Poly", alphabet: Alphabet, den: int, nums: dict[Word, int]) -> "Poly":
    """Set ``p`` to ``nums / den`` in lowest terms and return it.

    ``den`` is positive and every value of ``nums`` a nonzero int; both are
    divided by their gcd, so the zero polynomial has denominator 1.
    """
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {w: n // g for w, n in nums.items()}
    p.alphabet = alphabet
    p._den = den
    p._nums = nums
    p._terms = None  # built on first read: most results are only added to
    p._hash = None  # computed on first use: most polys are never hashed
    return p


class Poly:
    """An element of the free associative superalgebra: sum of words.

    Stored as ``_nums``, a dict from words to nonzero int numerators, over
    the positive int ``_den``, with gcd 1 over all of them.
    """

    __slots__ = ("alphabet", "_den", "_nums", "_terms", "_hash")

    def __init__(
        self,
        alphabet: Alphabet,
        terms: Union[Mapping[Word, Scalar], Iterable[tuple[Word, Scalar]]] = (),
    ):
        acc: dict[Word, Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            if word.alphabet is not alphabet and word.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            if type(coeff) is not int and not isinstance(coeff, Fraction):
                coeff = _to_fraction(coeff)
            acc[word] = acc[word] + coeff if word in acc else coeff
        acc = {w: c for w, c in acc.items() if c}
        den = lcm(*[c.denominator for c in acc.values()])
        nums = {w: c.numerator * (den // c.denominator) for w, c in acc.items()}
        _fill(self, alphabet, den, nums)

    @classmethod
    def _of(cls, alphabet: Alphabet, den: int, nums: dict[Word, int]) -> "Poly":
        """``nums / den`` over ``alphabet``, unchecked but for the gcd.

        ``den`` is a positive int, ``nums`` a dict from words of ``alphabet``
        to nonzero ints, which the Poly may keep.
        """
        return _fill(object.__new__(cls), alphabet, den, nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls._of(alphabet, 1, {})

    @classmethod
    def monomial(cls, word: Word, coeff: Scalar = 1) -> "Poly":
        c = coeff if type(coeff) is int else _to_fraction(coeff)
        return cls._of(word.alphabet, c.denominator, {word: c.numerator} if c else {})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def terms(self) -> tuple[tuple[Word, Fraction], ...]:
        """Terms in descending deglex order (leading first)."""
        if self._terms is None:
            nums, den = self._nums, self._den
            self._terms = tuple(
                (w, Fraction(nums[w], den))
                for w in sorted(nums, key=deglex_key, reverse=True)
            )
        return self._terms

    def words(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms())

    def coefficient(self, word: Word) -> Fraction:
        n = self._nums.get(word)
        return _ZERO if n is None else Fraction(n, self._den)

    def leading(self) -> tuple[Word, Fraction]:
        """The deglex-maximal supported word and its coefficient."""
        if not self._nums:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms()[0]

    def parity(self) -> Optional[int]:
        """0 or 1 when all supported words agree, ``None`` when mixed; zero is 0."""
        seen = {w.parity for w in self._nums} or {0}
        return seen.pop() if len(seen) == 1 else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        scale, other_scale = den // self._den, sign * (den // other._den)
        acc = {w: n * scale for w, n in self._nums.items()}
        for w, n in other._nums.items():
            c = acc.get(w, 0) + n * other_scale
            if c:
                acc[w] = c
            else:  # n is nonzero, so w was in acc
                del acc[w]
        return Poly._of(self.alphabet, den, acc)

    def __neg__(self) -> "Poly":
        return Poly._of(self.alphabet, self._den, {w: -n for w, n in self._nums.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        alphabet = self.alphabet
        if isinstance(other, Poly):
            self._check_compatible(other)
            acc: dict[tuple[int, ...], int] = {}
            rhs = [(v.letters, nv) for v, nv in other._nums.items()]
            for u, nu in self._nums.items():
                u = u.letters
                for v, nv in rhs:
                    w = u + v
                    acc[w] = acc.get(w, 0) + nu * nv
            of = Word._of
            return Poly._of(
                alphabet, self._den * other._den, {of(alphabet, w): c for w, c in acc.items() if c}
            )
        c = other if type(other) is int else _to_fraction(other)
        if not c:
            return Poly._of(alphabet, 1, {})
        num = c.numerator
        return Poly._of(
            alphabet, self._den * c.denominator, {w: n * num for w, n in self._nums.items()}
        )

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.__mul__(other)

    def make_monic(self) -> "Poly":
        """Scale so the leading coefficient becomes exactly 1."""
        _, c = self.leading()
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def _check_compatible(self, other: "Poly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("polynomials over different alphabets")

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.alphabet == other.alphabet
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet._hash, self._den, frozenset(self._nums.items())))
        return self._hash

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)})"


_ZERO = Fraction(0)


# through typing: on Python 3.10 ``isinstance(dict[...], type)`` is True, and
# a walk over a module's classes (perfbench's binding check) takes it for one
LetterTerms = Dict[tuple[int, ...], Scalar]


def letter_terms(p: Poly) -> LetterTerms:
    """p as a dict from letter tuples (symbol ranks) to coefficients."""
    return {w.letters: c for w, c in p.terms()}


def from_letter_terms(alphabet: Alphabet, terms: LetterTerms, den: int = 1) -> Poly:
    """The one Poly with the terms of a letter-tuple dict, over ``den``.

    ``den`` is a positive int; the Poly is ``terms / den``.  With int
    values, as the kernel of ``reduce`` leaves them, it divides once, by
    ``den``, and builds no Fraction.
    """
    p = Poly(alphabet, {Word(alphabet, w): c for w, c in terms.items()})
    return p if den == 1 else _fill(p, alphabet, p._den * den, p._nums)


def bracket_terms(
    p: LetterTerms, q: LetterTerms, odd: int, junctions: Container = frozenset()
) -> tuple[LetterTerms, LetterTerms]:
    """The superbracket [p, q] of two letter-tuple dicts of one parity each.

    Each term pair (u, c_u), (v, c_v) adds c = c_u c_v to uv and -c to vu,
    or +c when ``odd``, true when p and q are both odd.  A product whose
    junction pair (the last letter of its left word, the first of its
    right) is a key of ``junctions`` goes to the second dict returned,
    every other product to the first; a junction with the empty word,
    shorter than 2, is a key of no index of pairs.  Zero coefficients are
    dropped from both.  The inputs are never written.
    """
    rhs = [(v, cv, v[:1], v[-1:]) for v, cv in q.items()]
    out: LetterTerms = {}
    aside: LetterTerms = {}
    for u, cu in p.items():
        u_first, u_last = u[:1], u[-1:]
        for v, cv, v_first, v_last in rhs:
            c = cu * cv
            uv, vu = u + v, v + u
            acc = aside if u_last + v_first in junctions else out
            acc[uv] = acc.get(uv, 0) + c
            acc = aside if v_last + u_first in junctions else out
            acc[vu] = acc.get(vu, 0) + (c if odd else -c)
    return {w: c for w, c in out.items() if c}, {w: c for w, c in aside.items() if c}


def superbracket(p: Poly, q: Poly) -> Poly:
    """[p, q] = pq - (-1)^{|p||q|} qp, extended bilinearly over parities.

    Each side's numerators split into its even and odd letter-tuple dicts,
    :func:`bracket_terms` brackets each pair of nonzero parts, and the one
    Poly built sums their terms over the product of the two denominators.
    """
    alphabet, parities = p.alphabet, p.alphabet.parities
    if alphabet != q.alphabet:
        raise ValueError("polynomials over different alphabets")
    p_parts, q_parts = ({}, {}), ({}, {})  # each side's (even, odd) numerator dicts
    for side, parts in ((p, p_parts), (q, q_parts)):
        for w, n in side._nums.items():
            letters = w.letters
            parts[sum([parities[r] for r in letters]) & 1][letters] = n
    acc: LetterTerms = {}
    for odd_p, p_part in enumerate(p_parts):
        for odd_q, q_part in enumerate(q_parts):
            if p_part and q_part:
                for w, c in bracket_terms(p_part, q_part, odd_p & odd_q)[0].items():
                    acc[w] = acc.get(w, 0) + c
    of = Word._of
    return Poly._of(alphabet, p._den * q._den, {of(alphabet, w): c for w, c in acc.items() if c})


# -- text form ----------------------------------------------------------------
#
# A polynomial prints as a signed sum of terms "c*word" with exact rational c
# ("p/q" or an integer); a coefficient of +-1 is suppressed, and the empty
# word renders as "1".  Parsing accepts exactly this grammar (whitespace
# around '+'/'-' optional) and round-trips with printing.


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An integer or ``p/q``, as the printer writes them, and nothing else.

    A zero denominator raises ``ZeroDivisionError``; any other text,
    ``1.5``, ``1e3`` and ``1_000`` included, raises ``ValueError``.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"bad coefficient {text!r} (expected an integer or p/q)")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


def _term_to_text(word: Word, coeff: Fraction) -> str:
    if not word.letters:
        return str(coeff)
    return str(word) if coeff == 1 else f"{coeff}*{word}"


def poly_to_text(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, (word, coeff) in enumerate(p.terms()):
        mag = _term_to_text(word, abs(coeff))
        if i == 0:
            parts.append(mag if coeff > 0 else f"-{mag}")
        else:
            parts.append(f"{' + ' if coeff > 0 else ' - '}{mag}")
    return "".join(parts)


def parse_poly(alphabet: Alphabet, text: str) -> Poly:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return Poly.zero(alphabet)
    terms: list[tuple[Word, Fraction]] = []
    # split into signed chunks at top level; no parentheses in this grammar.
    # A '-' may open the text, a sign follows a term, and a term follows it.
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    for i, ch in enumerate(text):
        if ch in "+-" and (i == 0 or text[i - 1] != "/"):
            piece = "".join(buf).strip()
            if piece:
                chunks.append((sign, piece))
            elif i:
                raise ValueError(f"a sign without a term after it in {text!r}")
            sign, buf = (1 if ch == "+" else -1), []
        else:
            buf.append(ch)
    piece = "".join(buf).strip()
    if not piece:
        raise ValueError(f"a sign without a term after it in {text!r}")
    if text[0] == "+":  # the printer never opens with '+'
        raise ValueError(f"a leading '+' in {text!r}")
    chunks.append((sign, piece))
    try:
        for sign, piece in chunks:
            if piece.count("*") > 1:
                raise ValueError(f"a term has at most one '*': {piece!r}")
            if "*" in piece:
                coeff_text, word_text = (part.strip() for part in piece.split("*", 1))
                if not word_text:
                    raise ValueError(f"missing word after '*' in {piece!r}")
                coeff = parse_rational(coeff_text)
                word = alphabet.word(word_text)
            elif piece[0].isalpha() or piece[0] == "_":  # symbol names are identifiers
                coeff, word = Fraction(1), alphabet.word(piece)
            else:
                coeff, word = parse_rational(piece), alphabet.empty_word()
            terms.append((word, sign * coeff))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {piece!r}") from None
    return Poly(alphabet, terms)
