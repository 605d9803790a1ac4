"""Free associative superalgebra over the rationals.

A :class:`Poly` is a finitely supported map from words to exact rationals.
The product concatenates words bilinearly, and the superbracket is

    [p, q] = p*q - (-1)^{|p||q|} q*p

for parity-homogeneous p, q, extended bilinearly over homogeneous parts.
All arithmetic is exact; nothing is ever rounded.  A Poly keeps its terms
under their letter tuples (symbol ranks), as int numerators over one
positive denominator in lowest terms, so equality and hashing are
deterministic and the arithmetic is on ints with one gcd per result.  Its
terms as ``Word`` and ``fractions.Fraction`` pairs, in descending deglex
order, are built on each read, which only printing makes; arithmetic builds none.

:class:`Poly` is the boundary type.  The hot kernels -- the superbracket
(:func:`bracket_terms`), the free expansion of bracketings and reduction --
run on plain dicts from letter tuples to coefficients, a Poly's own form,
and build one Poly per result, so no intermediate sum is sorted or hashed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Container, Dict, Iterable, Mapping, Optional, Union

from .words import Alphabet, Word, _parity

Scalar = Union[int, Fraction]


def _to_fraction(value) -> Fraction:
    # exactness is the contract; never accept floats silently
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(value)


def _fill(p: "Poly", alphabet: Alphabet, den: int, nums: dict[tuple[int, ...], int]) -> "Poly":
    """Set ``p`` to ``nums / den`` in lowest terms and return it.

    ``den`` is positive and every value of ``nums`` a nonzero int.  Over 1
    they are in lowest terms as they are; over any other ``den`` both are
    divided by their gcd, so the zero polynomial has denominator 1.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {w: n // g for w, n in nums.items()}
    p.alphabet = alphabet
    p._den = den
    p._nums = nums
    return p


class Poly:
    """An element of the free associative superalgebra: sum of words.

    Stored as ``_nums``, a dict from letter tuples to nonzero int
    numerators, over the positive int ``_den``, with gcd 1 over all of them.
    """

    __slots__ = ("alphabet", "_den", "_nums")

    def __init__(
        self,
        alphabet: Alphabet,
        terms: Union[Mapping[Word, Scalar], Iterable[tuple[Word, Scalar]]] = (),
    ):
        """The sum of ``terms``, (word, coefficient) pairs or a mapping of them.

        One pass over the terms checks each word's alphabet and each
        coefficient (an int or a ``Fraction``; a float raises ``TypeError``)
        and adds a coefficient only to an earlier one of the same word.  With
        int coefficients alone the sum is the numerators over 1, with no lcm
        and no rescaling; a ``Fraction`` among them costs one more pass, over
        the distinct words.  A ``list`` or ``dict`` is read as it is, with no
        ``Mapping`` check.  ``from_letter_terms`` builds its results here,
        from checked ``Word``s, though it could hand its numerators to
        :meth:`_of`: perfbench's probe counts only ``Poly.__init__`` and
        ``Word.__init__`` on ``reduce``.
        """
        kind = type(terms)
        mapping = kind is dict or (kind is not list and isinstance(terms, Mapping))
        items = terms.items() if mapping else terms
        acc: dict[tuple[int, ...], Scalar] = {}
        whole = True  # every coefficient so far an int
        for word, coeff in items:
            if word.alphabet is not alphabet and word.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            if type(coeff) is not int:
                if not isinstance(coeff, Fraction):
                    coeff = _to_fraction(coeff)
                whole = False
            letters = word.letters
            if letters in acc:
                coeff += acc[letters]
            acc[letters] = coeff
        if whole:
            den, nums = 1, acc if all(acc.values()) else {w: c for w, c in acc.items() if c}
        else:
            den = lcm(*[c.denominator for c in acc.values()])
            nums = {w: n for w, c in acc.items() if (n := c.numerator * (den // c.denominator))}
        _fill(self, alphabet, den, nums)

    @classmethod
    def _of(cls, alphabet: Alphabet, den: int, nums: dict[tuple[int, ...], int]) -> "Poly":
        """``nums / den`` over ``alphabet``, unchecked but for the gcd.

        ``den`` is a positive int, ``nums`` a dict from tuples of ranks of
        ``alphabet`` to nonzero ints, which the Poly may keep; no Word is built.
        """
        return _fill(object.__new__(cls), alphabet, den, nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls._of(alphabet, 1, {})

    @classmethod
    def monomial(cls, word: Word, coeff: Scalar = 1) -> "Poly":
        c = coeff if type(coeff) is int else _to_fraction(coeff)
        return cls._of(word.alphabet, c.denominator, {word.letters: c.numerator} if c else {})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def terms(self) -> tuple[tuple[Word, Fraction], ...]:
        """Terms in descending deglex order (leading first), sorted and built on each read."""
        alphabet, nums, den = self.alphabet, self._nums, self._den
        return tuple(
            (Word._of(alphabet, w), Fraction(nums[w], den))
            for w in sorted(nums, key=lambda w: (len(w), w), reverse=True)
        )

    def words(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms())

    def coefficient(self, word: Word) -> Fraction:
        n = self._nums.get(word.letters) if word.alphabet == self.alphabet else None
        return _ZERO if n is None else Fraction(n, self._den)

    def leading(self) -> tuple[Word, Fraction]:
        """The deglex-maximal supported word and its coefficient; no other term is built."""
        if not self._nums:
            raise ValueError("the zero polynomial has no leading term")
        _, w = max(zip(map(len, self._nums), self._nums))
        return Word._of(self.alphabet, w), Fraction(self._nums[w], self._den)

    def parity(self) -> Optional[int]:
        """0 or 1 when all supported words agree, ``None`` when mixed; zero is 0."""
        seen = {_parity(self.alphabet, w) for w in self._nums} or {0}
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
            for u, nu in self._nums.items():
                for v, nv in other._nums.items():
                    w = u + v
                    acc[w] = acc.get(w, 0) + nu * nv
            return Poly._of(alphabet, self._den * other._den, {w: c for w, c in acc.items() if c})
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
        """Scale so the leading coefficient becomes exactly 1.

        The numerators go over the leading numerator, whose sign moves onto
        them; no Word or Fraction is built.
        """
        nums = self._nums
        if not nums:
            raise ValueError("the zero polynomial has no leading term")
        _, w = max(zip(map(len, nums), nums))
        n = nums[w]
        if n == self._den:
            return self
        if n < 0:
            n, nums = -n, {u: -m for u, m in nums.items()}
        return Poly._of(self.alphabet, n, nums)

    def _check_compatible(self, other: "Poly") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
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
        return hash((self.alphabet._hash, self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)})"


_ZERO = Fraction(0)


# through typing: on Python 3.10 ``isinstance(dict[...], type)`` is True, and
# a walk over a module's classes (perfbench's binding check) takes it for one
LetterTerms = Dict[tuple[int, ...], Scalar]


def from_letter_terms(alphabet: Alphabet, terms: LetterTerms, den: int = 1) -> Poly:
    """The one Poly with the terms of a letter-tuple dict, over ``den``.

    ``den`` is a positive int; the Poly is ``terms / den``.  With int
    values, as the kernel of ``reduce`` leaves them, it divides once, by
    ``den``, and builds no Fraction.  The terms go to ``Poly.__init__`` as a
    list of (word, value) pairs, so no ``Word`` is hashed.  Its checked
    ``Word(...)`` per term and ``Poly.__init__`` stay: perfbench's probe
    needs both on ``reduce``.
    """
    p = Poly(alphabet, [(Word(alphabet, w), c) for w, c in terms.items()])
    return p if den == 1 else _fill(p, alphabet, p._den * den, p._nums)


def bracket_terms(
    p: LetterTerms, q: LetterTerms, odd: int, junctions: Container = frozenset()
) -> tuple[LetterTerms, set[tuple[int, ...]]]:
    """The superbracket [p, q] of two letter-tuple dicts of one parity each.

    Each term pair (u, c_u), (v, c_v) adds c = c_u c_v to uv and -c to vu,
    or +c when ``odd``, true when p and q are both odd.  Returns the
    product, zero coefficients dropped, and the set of product words whose
    junction pair (the last letter of the left word, the first of the
    right) is a key of ``junctions``; a junction with the empty word,
    shorter than 2, is a key of no index of pairs.  A flagged word whose
    coefficient cancels stays in the set.  With no ``junctions``, as for
    the free expansion and :func:`superbracket`, no junction pair is looked
    up and the set is empty.  The inputs are never written.
    """
    rhs = [(v, cv, v[:1], v[-1:]) for v, cv in q.items()]
    out: LetterTerms = {}
    flagged: set[tuple[int, ...]] = set()
    for u, cu in p.items():
        u_first, u_last = u[:1], u[-1:]
        for v, cv, v_first, v_last in rhs:
            c = cu * cv
            uv, vu = u + v, v + u
            out[uv] = out.get(uv, 0) + c
            out[vu] = out.get(vu, 0) + (c if odd else -c)
            if junctions:
                if u_last + v_first in junctions:
                    flagged.add(uv)
                if v_last + u_first in junctions:
                    flagged.add(vu)
    return {w: c for w, c in out.items() if c}, flagged


def superbracket(p: Poly, q: Poly) -> Poly:
    """[p, q] = pq - (-1)^{|p||q|} qp, extended bilinearly over parities.

    Each side's numerators split into its nonzero parity parts, the dict
    itself when its words share one parity, as a rule body's or a
    monomial's do; :func:`bracket_terms` brackets each pair of parts, and
    the one Poly built sums their terms over the product of the two
    denominators.
    """
    alphabet = p.alphabet
    if alphabet is not q.alphabet and alphabet != q.alphabet:
        raise ValueError("polynomials over different alphabets")
    q_parts = _parity_parts(alphabet, q._nums)
    acc: LetterTerms = {}
    for odd_p, p_part in _parity_parts(alphabet, p._nums):
        for odd_q, q_part in q_parts:
            for w, c in bracket_terms(p_part, q_part, odd_p & odd_q)[0].items():
                acc[w] = acc.get(w, 0) + c
    return Poly._of(alphabet, p._den * q._den, {w: c for w, c in acc.items() if c})


def _parity_parts(alphabet: Alphabet, nums: LetterTerms) -> list[tuple[int, LetterTerms]]:
    """The nonzero parity parts of ``nums`` as (parity, part) pairs, even first.

    A dict whose words share one parity is its own one part, not copied.
    """
    parity = alphabet.parities.__getitem__
    found = {sum(map(parity, w)) & 1 for w in nums}
    if len(found) == 1:
        return [(found.pop(), nums)]
    parts: tuple[LetterTerms, LetterTerms] = ({}, {})
    for w, n in nums.items():
        parts[sum(map(parity, w)) & 1][w] = n
    return [(odd, part) for odd, part in enumerate(parts) if part]


# -- text form ----------------------------------------------------------------
#
# A polynomial prints as a signed sum of terms "c*word" with exact rational c
# ("p/q" or an integer); a coefficient of +-1 is suppressed, and the empty
# word renders as "1".  Parsing accepts exactly this grammar (whitespace
# around '+'/'-' optional) and round-trips with printing.


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_scalar(text: str) -> Scalar:
    """An integer or ``p/q``, as the printer writes them, and nothing else.

    Integer text gives an ``int`` and only ``p/q`` a ``Fraction``.  A zero
    denominator raises ``ZeroDivisionError``; any other text, ``1.5``,
    ``1e3`` and ``1_000`` included, raises ``ValueError``.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"bad coefficient {text!r} (expected an integer or p/q)")
    num, _, den = text.partition("/")
    if not den:
        return int(num)
    if not int(den):
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den))


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
    terms: list[tuple[Word, Scalar]] = []
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
                coeff = _parse_scalar(coeff_text)
                word = alphabet.word(word_text)
            elif piece[0].isalpha() or piece[0] == "_":  # symbol names are identifiers
                coeff, word = 1, alphabet.word(piece)
            else:
                coeff, word = _parse_scalar(piece), alphabet.empty_word()
            terms.append((word, sign * coeff))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {piece!r}") from None
    return Poly(alphabet, terms)
