"""Free associative superalgebra over the rationals.

A :class:`Poly` is a finitely supported map from words to exact rationals.
The product concatenates words bilinearly, and the superbracket is

    [p, q] = p*q - (-1)^{|p||q|} q*p

for parity-homogeneous p, q, extended bilinearly over homogeneous parts.
All arithmetic is exact (``fractions.Fraction``); nothing is ever rounded.
Terms are kept in descending deglex order so equality, hashing and the
leading term are deterministic.

:class:`Poly` is the boundary type.  The hot kernels -- the superbracket
(:func:`bracket_terms`), the free expansion of bracketings and reduction --
run on plain dicts from letter tuples (symbol ranks) to coefficients and
build one Poly per result, so no intermediate sum is sorted or hashed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Container, Iterable, Mapping, Optional, Union

from .words import Alphabet, Word, deglex_key

Scalar = Union[int, Fraction]


def _to_fraction(value) -> Fraction:
    # exactness is the contract; never accept floats silently
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(value)


class Poly:
    """An element of the free associative superalgebra: sum of words."""

    __slots__ = ("alphabet", "_terms", "_lookup", "_hash")

    def __init__(
        self,
        alphabet: Alphabet,
        terms: Union[Mapping[Word, Scalar], Iterable[tuple[Word, Scalar]]] = (),
    ):
        acc: dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            if word.alphabet is not alphabet and word.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            if not isinstance(coeff, Fraction):
                coeff = _to_fraction(coeff)
            c = acc[word] + coeff if word in acc else coeff
            if c:
                acc[word] = c
            elif word in acc:
                del acc[word]
        self.alphabet = alphabet
        self._lookup = acc
        self._terms = tuple(
            sorted(acc.items(), key=lambda kv: deglex_key(kv[0]), reverse=True)
        )
        self._hash = None  # computed on first use: most polys are never hashed

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls(alphabet, ())

    @classmethod
    def monomial(cls, word: Word, coeff: Scalar = 1) -> "Poly":
        return cls(word.alphabet, ((word, coeff),))

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[Word, Fraction], ...]:
        """Terms in descending deglex order (leading first)."""
        return self._terms

    def words(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self._terms)

    def coefficient(self, word: Word) -> Fraction:
        return self._lookup.get(word, _ZERO)

    def leading(self) -> tuple[Word, Fraction]:
        """The deglex-maximal supported word and its coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        return self._terms[0]

    def parity(self) -> Optional[int]:
        """0 or 1 when all supported words agree, ``None`` when mixed; zero is 0."""
        seen = {w.parity for w, _ in self._terms} or {0}
        return seen.pop() if len(seen) == 1 else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        acc = dict(self._lookup)
        for w, c in other._terms:
            acc[w] = acc.get(w, _ZERO) + c
        return Poly(self.alphabet, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        acc = dict(self._lookup)
        for w, c in other._terms:
            acc[w] = acc.get(w, _ZERO) - c
        return Poly(self.alphabet, acc)

    def __neg__(self) -> "Poly":
        return Poly(self.alphabet, [(w, -c) for w, c in self._terms])

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            self._check_compatible(other)
            acc: dict[Word, Fraction] = {}
            for u, cu in self._terms:
                for v, cv in other._terms:
                    w = u * v
                    acc[w] = acc.get(w, _ZERO) + cu * cv
            return Poly(self.alphabet, acc)
        c = _to_fraction(other)
        return Poly(self.alphabet, [(w, c * k) for w, k in self._terms])

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
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet._hash, self._terms))
        return self._hash

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)})"


_ZERO = Fraction(0)


LetterTerms = dict[tuple[int, ...], Scalar]


def letter_terms(p: Poly) -> LetterTerms:
    """p as a dict from letter tuples (symbol ranks) to coefficients."""
    return {w.letters: c for w, c in p._terms}


def from_letter_terms(alphabet: Alphabet, terms: LetterTerms) -> Poly:
    """The one Poly with the terms of a letter-tuple dict."""
    return Poly(alphabet, {Word(alphabet, w): c for w, c in terms.items()})


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

    Each side splits into its even and odd letter-tuple dicts,
    :func:`bracket_terms` brackets each pair of nonzero parts, and the one
    Poly built sums their terms.
    """
    alphabet, parities = p.alphabet, p.alphabet.parities
    if alphabet != q.alphabet:
        raise ValueError("polynomials over different alphabets")
    p_parts, q_parts = ({}, {}), ({}, {})  # each side's (even, odd) letter dicts
    for side, parts in ((p, p_parts), (q, q_parts)):
        for w, c in side._terms:
            parts[sum([parities[r] for r in w.letters]) & 1][w.letters] = c
    return Poly(alphabet, [
        (Word(alphabet, w), c)
        for odd_p, p_part in enumerate(p_parts) if p_part
        for odd_q, q_part in enumerate(q_parts) if q_part
        for w, c in bracket_terms(p_part, q_part, odd_p & odd_q)[0].items()
    ])


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
