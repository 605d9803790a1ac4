"""Non-associative monomials: bracketings of words and their expansions.

An :class:`NcMonomial` is a binary tree with symbols at the leaves; reading
the leaves left to right recovers an associative word (``m.word``).  Every
super-Lyndon-Shirshov word carries exactly one bracketing satisfying the
recursive Lyndon-Shirshov monomial condition; ``standard_bracket`` computes
it by repeatedly splitting off the longest proper LS suffix (and splitting a
square ``uu`` in the middle).  A bracketing of a super-LS word ``w`` is
*admissible* when its expansion under the superbracket has leading word ``w``
with the same leading coefficient as the standard bracketing (1 for LS words,
2 for odd squares).  Any admissible bracketing may replace the standard one
as a basis; ``is_admissible`` checks user-supplied trees.
"""

from __future__ import annotations

from typing import Optional, Union

from .poly import LetterTerms, Poly, bracket_terms, from_letter_terms
from .words import (
    Alphabet,
    Symbol,
    Word,
    _is_ls_letters,
    _standard_coefficient,
    is_super_ls,
)


_UNSET = object()  # a leading term not yet computed; None means it cancels


class NcMonomial:
    """A non-associative word: a leaf symbol or a pair of monomials.

    Each node keeps its parity, the XOR of its children's, the leading term
    of its expansion once :func:`_lead` has found it, and its text once
    ``str`` has made it, so a subtree shared by many trees is read and
    printed once.  A pair's word, its children's joined, is not checked again.
    """

    __slots__ = (
        "alphabet", "rank", "left", "right", "parity", "_word", "_hash", "_leading", "_text"
    )

    def __init__(self, alphabet, rank, left, right, word, parity):
        # internal; use the leaf/pair constructors
        self.alphabet = alphabet
        self.rank = rank
        self.left = left
        self.right = right
        self.parity = parity
        self._word = word
        self._leading = _UNSET  # computed on first use, by _lead
        self._text = None if rank is None else alphabet._names[rank]  # a pair's: on first str
        if rank is not None:
            self._hash = hash((alphabet._hash, "leaf", rank))
        else:
            self._hash = hash((alphabet._hash, "pair", left._hash, right._hash))

    @classmethod
    def leaf(cls, alphabet: Alphabet, symbol: Union[Symbol, int]) -> "NcMonomial":
        rank = symbol.rank if isinstance(symbol, Symbol) else symbol
        word = Word(alphabet, (rank,))
        return cls(alphabet, rank, None, None, word, alphabet.parities[rank])

    @classmethod
    def pair(cls, left: "NcMonomial", right: "NcMonomial") -> "NcMonomial":
        if left.alphabet != right.alphabet:
            raise ValueError("monomials over different alphabets")
        word = Word._of(left.alphabet, left._word.letters + right._word.letters)
        return cls(left.alphabet, None, left, right, word, left.parity ^ right.parity)

    @property
    def is_leaf(self) -> bool:
        return self.rank is not None

    @property
    def word(self) -> Word:
        return self._word

    def __len__(self) -> int:
        return len(self._word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcMonomial):
            return NotImplemented
        if self.alphabet != other.alphabet or self.rank != other.rank:
            return False
        if self.is_leaf:
            return True
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self._text is None:
            self._text = f"[{self.left},{self.right}]"
        return self._text

    def __repr__(self) -> str:
        return f"NcMonomial({self})"


def expand(m: NcMonomial) -> Poly:
    """Evaluate the tree in the free associative superalgebra.

    The tree is expanded on letter tuples with integer coefficients, one
    :func:`bracket_terms` pass per inner node; only the result becomes a
    Poly.
    """
    return from_letter_terms(m.alphabet, _expand_letters(m, m.alphabet.parities))


def _expand_letters(m: NcMonomial, parities: tuple[int, ...]) -> LetterTerms:
    if m.is_leaf:
        return {(m.rank,): 1}
    return bracket_terms(
        parities, _expand_letters(m.left, parities), _expand_letters(m.right, parities)
    )


def standard_bracket(
    w: Word, memo: Optional[dict[tuple[int, ...], NcMonomial]] = None
) -> NcMonomial:
    """The unique super-LS monomial whose leaves spell ``w``.

    LS words of length > 1 split as w = uv with v the longest proper LS
    suffix; squares uu (u odd LS) split in the middle.

    ``memo``, when given, maps letter tuples to the trees already built for
    them, in the way ``copy.deepcopy`` takes one: every subtree is looked up
    there before it is built, and stored there once built, so trees made
    with one memo share their equal subtrees as one object.  Share a memo
    only among words over one alphabet.  A seeded entry is used as given,
    so seeding each single letter ``(r,)`` with a tree substitutes that
    tree for the letter: the result's leaves then spell the substituted
    word, over the trees' alphabet.
    """
    if not is_super_ls(w):
        raise ValueError(f"not a super-Lyndon-Shirshov word: {str(w)!r}")
    return _standard(w.alphabet, w.letters, {} if memo is None else memo)


def _standard(
    alphabet: Alphabet, letters: tuple[int, ...], memo: dict[tuple[int, ...], NcMonomial]
) -> NcMonomial:
    """The standard bracketing of the super-LS letter tuple ``letters``, via ``memo``.

    Recurses on letter tuples, testing each suffix with ``_is_ls_letters``,
    so no Word is built but those of the returned tree.
    """
    m = memo.get(letters)
    if m is not None:
        return m
    if len(letters) == 1:
        m = NcMonomial.leaf(alphabet, letters[0])
    elif _is_ls_letters(letters):
        i = next(i for i in range(1, len(letters)) if _is_ls_letters(letters[i:]))
        m = NcMonomial.pair(
            _standard(alphabet, letters[:i], memo), _standard(alphabet, letters[i:], memo)
        )
    else:
        half = _standard(alphabet, letters[: len(letters) // 2], memo)
        m = NcMonomial.pair(half, half)
    memo[letters] = m
    return m


def is_admissible(m: NcMonomial) -> bool:
    """Expansion has leading word ``m.word`` with the standard coefficient.

    The underlying word must be super-LS; the required coefficient is 1 for
    an LS word and 2 for an odd square.  The leading term comes by
    recursion, and ``m`` is expanded only if that cancels.  The free
    algebra is a domain and deglex a monomial order, so lead([u,v]) is the
    larger of lead(u)lead(v) and lead(v)lead(u), the second with sign
    -(-1)^{|u||v|}; equal words add their coefficients.
    """
    w = m.word
    coeff = _standard_coefficient(w)
    if coeff is None:
        raise ValueError(f"underlying word is not super-Lyndon-Shirshov: {str(w)!r}")
    lead = _lead(m)
    if lead is not None:
        return lead == (w.letters, coeff)
    e = expand(m)
    return bool(e) and e.leading() == (w, coeff)


def _lead(m: NcMonomial) -> Optional[tuple[tuple[int, ...], int]]:
    """(letters, coefficient) of the leading term of expand(m), or None if it cancels.

    Each node's result is kept on it, so a shared subtree is visited once.
    """
    lead = m._leading
    if lead is not _UNSET:
        return lead
    if m.is_leaf:
        lead = (m.rank,), 1
    else:
        left, right = _lead(m.left), _lead(m.right)
        if left is None or right is None:
            lead = None
        else:
            (u, cu), (v, cv) = left, right
            uv, vu, c = u + v, v + u, cu * cv
            swapped = c if m.left.parity and m.right.parity else -c
            if uv != vu:
                lead = (uv, c) if uv > vu else (vu, swapped)
            else:
                lead = (uv, c + swapped) if c + swapped else None
    m._leading = lead
    return lead


# -- text form -----------------------------------------------------------------


def parse_monomial(alphabet: Alphabet, text: str) -> NcMonomial:
    """Parse the "[u,v]" nesting syntax with symbol names at the leaves."""
    pos = 0

    def parse() -> NcMonomial:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            raise ValueError(f"unexpected end of monomial text {text!r}")
        if text[pos] == "[":
            pos += 1
            left = parse()
            expect(",")
            right = parse()
            expect("]")
            return NcMonomial.pair(left, right)
        start = pos
        while pos < len(text) and text[pos] not in "[],":
            pos += 1
        name = text[start:pos].strip()
        if not name:
            raise ValueError(f"missing symbol name at offset {start} in {text!r}")
        return NcMonomial.leaf(alphabet, alphabet.symbol(name))

    def expect(ch: str) -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != ch:
            raise ValueError(f"expected {ch!r} at offset {pos} in {text!r}")
        pos += 1

    m = parse()
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos != len(text):
        raise ValueError(f"trailing characters at offset {pos} in {text!r}")
    return m
