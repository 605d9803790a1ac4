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

from typing import Optional

from .poly import LetterTerms, Poly, bracket_terms, from_letter_terms
from .words import (
    Alphabet,
    Word,
    _is_ls_letters,
    _standard_coefficient,
    is_super_ls,
)


class NcMonomial:
    """A non-associative word: a leaf symbol or a pair of monomials.

    Each node is built with its parity, the XOR of its children's, and the
    leading term of its expansion, made from its children's; it keeps its
    text once ``str`` has made it, so a subtree shared by many trees is
    printed once.  A pair's word, its children's joined, is not checked again.

    ``_leading`` is ``(letters, coefficient)`` of the deglex-leading term of
    :func:`expand`, or None when that term cancels.  The free algebra is a
    domain and deglex a monomial order, so lead([u,v]) is the larger of
    lead(u)lead(v) and lead(v)lead(u), the second with sign -(-1)^{|u||v|};
    equal words add their coefficients.
    """

    __slots__ = (
        "alphabet", "rank", "left", "right", "parity", "_word", "_hash", "_leading", "_text"
    )

    def __init__(self, alphabet, rank, left, right, word, parity, leading):
        # internal; use the leaf/pair constructors
        self.alphabet = alphabet
        self.rank = rank
        self.left = left
        self.right = right
        self.parity = parity
        self._word = word
        self._leading = leading
        self._text = None if rank is None else alphabet._names[rank]  # a pair's: on first str
        if rank is not None:
            self._hash = hash((alphabet._hash, "leaf", rank))
        else:
            self._hash = hash((alphabet._hash, "pair", left._hash, right._hash))

    @classmethod
    def leaf(cls, alphabet: Alphabet, rank: int) -> "NcMonomial":
        word = Word(alphabet, (rank,))
        return cls(alphabet, rank, None, None, word, alphabet.parities[rank], ((rank,), 1))

    @classmethod
    def pair(cls, left: "NcMonomial", right: "NcMonomial") -> "NcMonomial":
        if left.alphabet != right.alphabet:
            raise ValueError("monomials over different alphabets")
        word = Word._of(left.alphabet, left._word.letters + right._word.letters)
        leading = None
        if left._leading is not None and right._leading is not None:
            (u, cu), (v, cv) = left._leading, right._leading
            uv, vu, c = u + v, v + u, cu * cv
            swapped = c if left.parity and right.parity else -c
            if uv != vu:
                leading = (uv, c) if uv > vu else (vu, swapped)
            elif c + swapped:
                leading = (uv, c + swapped)
        return cls(left.alphabet, None, left, right, word, left.parity ^ right.parity, leading)

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
        if self.alphabet != other.alphabet:
            return False
        # node pairs still to compare, on an explicit stack so any depth is
        # walked; equal trees have equal hashes, and a shared node equals itself
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.rank != b.rank:
                return False
            if a.rank is None:
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # post-order over the nodes not yet printed, on an explicit stack so
        # any depth is walked; a leaf has its text from construction
        stack = [self]
        while stack:
            node = stack[-1]
            if node._text is not None:
                stack.pop()
            elif node.left._text is None:
                stack.append(node.left)
            elif node.right._text is None:
                stack.append(node.right)
            else:
                node._text = f"[{node.left._text},{node.right._text}]"
                stack.pop()
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
    """The expansion of ``m``, walked in post-order on explicit stacks.

    No recursion, so any depth is walked.  ``values`` holds the expansions
    of the complete subtrees not yet bracketed; a ``None`` on the node
    stack marks where the top two are bracketed.  A shared subtree is
    expanded at each place it occurs.
    """
    values: list[LetterTerms] = []
    stack: list[Optional[NcMonomial]] = [m]
    while stack:
        node = stack.pop()
        if node is None:
            right = values.pop()
            values.append(bracket_terms(parities, values.pop(), right))
        elif node.rank is not None:
            values.append({(node.rank,): 1})
        else:
            stack += (None, node.right, node.left)
    return values[0]


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
    an LS word and 2 for an odd square.  The leading term is the one ``m``
    was built with, and ``m`` is expanded only if that cancels.
    """
    w = m.word
    coeff = _standard_coefficient(w)
    if coeff is None:
        raise ValueError(f"underlying word is not super-Lyndon-Shirshov: {str(w)!r}")
    if m._leading is not None:
        return m._leading == (w.letters, coeff)
    e = expand(m)
    return bool(e) and e.leading() == (w, coeff)


# -- text form -----------------------------------------------------------------


def parse_monomial(alphabet: Alphabet, text: str) -> NcMonomial:
    """Parse the "[u,v]" nesting syntax with symbol names at the leaves.

    A stack parser, so any depth is read: ``unclosed`` holds one entry per
    unclosed bracket, None until its left child is complete.
    """
    pos, end = 0, len(text)

    def skip_space() -> None:
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_space()
        if pos >= end or text[pos] != ch:
            raise ValueError(f"expected {ch!r} at offset {pos} in {text!r}")
        pos += 1

    unclosed: list[Optional[NcMonomial]] = []
    while True:
        skip_space()
        if pos >= end:
            raise ValueError(f"unexpected end of monomial text {text!r}")
        if text[pos] == "[":
            pos += 1
            unclosed.append(None)
            continue
        start = pos
        while pos < end and text[pos] not in "[],":
            pos += 1
        name = text[start:pos].strip()
        if not name:
            raise ValueError(f"missing symbol name at offset {start} in {text!r}")
        m = NcMonomial.leaf(alphabet, alphabet.symbol(name).rank)
        # a complete right child closes its bracket, and so on outwards
        while unclosed and unclosed[-1] is not None:
            left = unclosed.pop()
            expect("]")
            m = NcMonomial.pair(left, m)
        if not unclosed:
            break
        unclosed[-1] = m
        expect(",")
    skip_space()
    if pos != end:
        raise ValueError(f"trailing characters at offset {pos} in {text!r}")
    return m
