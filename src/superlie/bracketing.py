"""Non-associative monomials: bracketings of words and their expansions.

An :class:`NcMonomial` is a binary tree with symbols at the leaves; reading
the leaves left to right recovers an associative word (``m.word``).  Every
super-Lyndon-Shirshov word carries exactly one bracketing satisfying the
recursive Lyndon-Shirshov monomial condition: split off the longest proper
LS suffix (a square ``uu`` in the middle); ``standard_bracket`` builds every
split in one pass, whose factors decide whether the word is super-LS.
``expand`` and check (iv)'s normal forms are one evaluator,
:func:`_normal_forms`, without and with relations.  A bracketing of a
super-LS word ``w`` is *admissible* when its expansion under the
superbracket has leading word ``w`` with the same leading coefficient as
the standard bracketing (1 for LS words, 2 for odd squares).  Any
admissible bracketing may replace the standard one as a basis;
``is_admissible`` checks any tree, testing its word for super-LS once.
"""

from __future__ import annotations

from typing import Container, Optional, Sequence

from .poly import LetterTerms, Poly, bracket_terms
from .rewrite import RewriteSystem, _reduce_letters
from .words import Alphabet, Word, _parity, is_super_ls


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
        self._text = None if rank is None else alphabet.names[rank]  # a pair's: on first str
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

    The free expansion is the normal form modulo no relations: one
    :func:`_normal_forms` walk with no system and no memo, on letter tuples
    with int coefficients; the one Poly built keeps them as its numerators.
    """
    return Poly._of(m.alphabet, 1, _normal_forms((m,))[0])


def _normal_forms(
    roots: Sequence[NcMonomial],
    system: Optional[RewriteSystem] = None,
    memo: Optional[dict[NcMonomial, LetterTerms]] = None,
) -> list[LetterTerms]:
    """Each root's normal form modulo ``system`` as an int letter-tuple dict.

    NF(leaf) = leaf and NF([u,v]) is the reduction of [NF(u), NF(v)]: the
    reduction of the free expansion when the relations form a
    Groebner-Shirshov basis, and with no system the free expansion itself.
    With a system each form is a positive int multiple of NF: scaling
    changes no test of linear independence, the one check (iv) makes.  The
    trees are walked in post-order on explicit stacks, so any depth is
    walked: ``values`` holds the forms of the complete subtrees not yet
    bracketed, and a ``None`` on the node stack marks where the top two are
    bracketed.  ``memo`` maps the subtrees evaluated to their forms, found
    by identity when equal subtrees are one object; never write its forms.
    With no memo no form outlives the call.

    Every leading word must have length 2 (raises ValueError otherwise).
    NF(u) and NF(v) are sums of reduced words, so a product ab holds a
    leading word exactly when the junction pair (a[-1], b[0]) is one:
    :func:`bracket_terms` flags those words, and they seed
    :func:`_reduce_letters`.  The sign -(-1)^{|u||v|} is read from the
    children's parities, each form being parity-homogeneous as the
    relations are.
    """
    junctions: Container = frozenset()
    if system is not None:
        if any(rule.leading_len != 2 for rule in system.rules):
            raise ValueError("junction normal forms need every leading word of length 2")
        junctions = system._index
    get = (memo if memo is not None else {}).get
    # each root leaves one form on ``values``: the roots' forms in order
    values: list[LetterTerms] = []
    stack: list[Optional[NcMonomial]] = []
    for root in roots:
        stack.append(root)
        while stack:
            node = stack.pop()
            if node is None:  # the top two values are the next node's children's
                node = stack.pop()
                right = values.pop()
                left = values.pop()
            else:
                form = get(node)
                if form is None and node.rank is not None:
                    form = {(node.rank,): 1}
                    if memo is not None:
                        memo[node] = form
                if form is not None:
                    values.append(form)
                    continue
                left, right = get(node.left), get(node.right)
                if left is None or right is None:
                    stack += (node, None, node.right, node.left)
                    continue
            form, start = bracket_terms(left, right, node.left.parity & node.right.parity, junctions)
            if start:
                _reduce_letters(form, system, True, start)
                form = dict(form)  # compact: a dict keeps the slots of the words popped
            if memo is not None:
                memo[node] = form
            values.append(form)
    return values


def standard_bracket(
    w: Word, memo: Optional[dict[tuple[int, ...], NcMonomial]] = None
) -> NcMonomial:
    """The unique super-LS monomial whose leaves spell ``w``.

    LS words of length > 1 split as w = uv with v the longest proper LS
    suffix; squares uu (u odd LS) split in the middle.  One pass from right
    to left builds every split: ``factors`` holds the LS factorisation of
    the suffix read so far, leftmost factor on top, each as (end, tree).
    Each letter starts a new factor, which takes in the top one while it
    is greater in the lex order; the factor taken in is then the longest
    proper LS suffix of the merged one.  The finished stack, the word's
    unique Chen-Fox-Lyndon factorisation, decides: an LS word ends as one
    factor, and a square uu, u odd over ``w.alphabet``, as two equal ones,
    bracketed as [U, U]; any other word, the empty one too, raises ValueError.

    ``memo``, when given, maps letter tuples to the trees already built for
    them, in the way ``copy.deepcopy`` takes one: every subtree is looked up
    there when its letters are complete, and stored there if it was not, so
    trees made with one memo share their equal subtrees as one object.
    Share a memo only among words over one alphabet.  A seeded entry is
    used as given, so seeding each single letter ``(r,)`` with a tree
    substitutes that tree for the letter: the result's leaves then spell
    the substituted word, over the trees' alphabet.  A rejected word may
    leave the trees of its LS factors in the memo, each one valid.
    """
    alphabet, letters = w.alphabet, w.letters
    memo = {} if memo is None else memo
    above = (len(alphabet),)  # ends a segment so that a prefix sorts greater
    factors: list[tuple[int, NcMonomial]] = []
    for start in range(len(letters) - 1, -1, -1):
        end = start + 1
        m = memo.get(letters[start:end])
        if m is None:
            m = memo[letters[start:end]] = NcMonomial.leaf(alphabet, letters[start])
        while factors and letters[start:end] + above > letters[end : factors[-1][0]] + above:
            end, right = factors.pop()
            segment = letters[start:end]
            merged = memo.get(segment)
            if merged is None:
                merged = memo[segment] = NcMonomial.pair(m, right)
            m = merged
        factors.append((end, m))
    if len(factors) == 2:  # a square uu of an odd u, each half one factor
        half = factors[1][0]
        if letters[:half] == letters[half:] and _parity(alphabet, letters[:half]):
            return memo.setdefault(letters, NcMonomial.pair(factors[1][1], factors[0][1]))
    elif len(factors) == 1:
        return m
    raise ValueError(f"not a super-Lyndon-Shirshov word: {str(w)!r}")


def is_admissible(m: NcMonomial) -> bool:
    """Expansion has leading word ``m.word`` with the standard coefficient.

    The underlying word must be super-LS, one :func:`is_super_ls` scan; the
    required coefficient is 2 for a square, then an odd one, and 1 for an
    LS word, never a proper power.  The leading term is the one ``m`` was
    built with, and ``m`` is expanded only if that cancels.
    """
    w = m.word
    if not is_super_ls(w):
        raise ValueError(f"underlying word is not super-Lyndon-Shirshov: {str(w)!r}")
    half = len(w) // 2
    coeff = 2 if w.letters[:half] == w.letters[half:] else 1
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
        m = NcMonomial.leaf(alphabet, alphabet.rank(name))
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
