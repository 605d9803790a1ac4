"""Ordered super-alphabets, associative words, and Lyndon-Shirshov recognition.

Two strict total orders on words over a fixed alphabet are used throughout
the package:

* lex -- lexicographic, with the convention that a proper prefix is GREATER
  than its extensions ("t" > "tx" > "txx").  This is the opposite of
  dictionary order.  Lyndon-Shirshov recognition, leading words and standard
  bracketings all depend on this convention, so it must not be "fixed".
  ``_lex_key`` is its sort key.
* deglex -- by length first, ties broken by lex; ``deglex_key`` is its sort
  key.

A word is a Lyndon-Shirshov (LS) word when it is strictly greater, in the
lexicographic order above, than every proper cyclic rotation of itself.  A
super-LS word is an LS word, or a square ``uu`` where ``u`` is an odd LS
word.  Everything here is a pure value: alphabets and words are immutable and
safe to share.  Every alphabet holds its names to one rule, checked when it
is built (:func:`_check_name`), so a word's text parses back to it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence


def _check_name(name: object, position: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``name`` is an ASCII identifier.

    That is a letter or '_', then letters, digits or '_': no operator, no
    dot and no "1", the empty word, so words and polynomials print to text
    that parses back to them.  ``position``, the name's index in a list of
    names, is given in the message.
    """
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
        where = "" if position is None else f" at position {position}"
        raise ValueError(
            f"bad symbol name {name!r}{where}: use letters, "
            "digits and '_', not starting with a digit"
        )


class Alphabet:
    """An immutable, totally ordered set of letters, each a name and a parity.

    A letter is its rank, its position in the order; ``names`` and
    ``parities`` list the letters' names and parities by rank.  Every name
    must pass :func:`_check_name`, so every alphabet's word text parses back.
    Words carry a reference to their alphabet; two alphabets are considered
    the same when their names and parities agree, so words remain comparable
    across independently constructed but identical alphabets.
    """

    __slots__ = ("names", "parities", "_by_name", "_key", "_hash", "_ranks", "_table")

    def __init__(self, names: Sequence[str], parities: Sequence[int]):
        names, parities = tuple(names), tuple(parities)
        if not names:
            raise ValueError("alphabet must be non-empty")
        if len(parities) != len(names):
            raise ValueError(f"expected one parity per name, got {len(parities)} for {len(names)}")
        for i, (name, parity) in enumerate(zip(names, parities)):
            if parity not in (0, 1):
                raise ValueError(f"parity must be 0 or 1, got {parity!r}")
            _check_name(name, i)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbol names in {list(names)}")
        self._fill(names, parities)

    @classmethod
    def _of(cls, names: tuple[str, ...], parities: tuple[int, ...]) -> "Alphabet":
        """The alphabet of ``names`` and ``parities``, unchecked.

        The caller vouches for what the constructor checks: the names are
        distinct and pass :func:`_check_name`, and each has one parity, 0 or 1.
        """
        alphabet = object.__new__(cls)
        alphabet._fill(names, parities)
        return alphabet

    def _fill(self, names: tuple[str, ...], parities: tuple[int, ...]) -> None:
        self.names = names
        self.parities = parities
        self._by_name = {name: r for r, name in enumerate(names)}
        self._key = (names, parities)
        self._hash = hash(self._key)
        self._ranks = frozenset(range(len(names)))
        joined = "".join(names)
        # rank r -> byte of its name, when every name is one character (None:
        # words join their names with '.'); _texts formats words through it
        self._table = (
            bytes.maketrans(bytes(range(len(names))), joined.encode())
            if len(joined) == len(names)
            else None
        )

    @classmethod
    def from_names(cls, names: Iterable[str], odd: Iterable[str] = ()) -> "Alphabet":
        """Build an alphabet from names in increasing order; ``odd`` marks parities.

        The constructor checks every name before one is hashed, as each is
        looked up in ``odd`` by equality; each odd name is checked before
        ``odd`` is hashed and sorted.
        """
        names, odd = tuple(names), tuple(odd)
        alphabet = cls(names, [1 if name in odd else 0 for name in names])
        for name in odd:
            _check_name(name)
        unknown = set(odd) - alphabet._by_name.keys()
        if unknown:
            raise ValueError(f"odd names not in alphabet: {sorted(unknown)}")
        return alphabet

    def __len__(self) -> int:
        return len(self.names)

    def rank(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown symbol name {name!r}") from None

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Alphabet) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [n + (":odd" if p else "") for n, p in zip(self.names, self.parities)]
        return f"Alphabet({', '.join(parts)})"

    # -- word construction -------------------------------------------------

    def empty_word(self) -> "Word":
        return Word(self, ())

    def word(self, text: str) -> "Word":
        """Parse the textual form produced by ``str(word)``.

        Single-character alphabets join names with nothing ("txx"); alphabets
        with a multi-character name join with '.' ("t.x1.x1").  The token "1",
        never a name, denotes the empty word.
        """
        text = text.strip()
        if text in ("", "1"):
            return self.empty_word()
        names = text.split(".") if self._table is None or "." in text else text
        try:
            letters = tuple(map(self._by_name.__getitem__, names))
        except KeyError:  # rank names the first unknown name
            letters = tuple(map(self.rank, names))
        return Word(self, letters)


class Word:
    """An associative word: a finite sequence of symbol ranks (maybe empty).

    A rank is an ``int`` (``True`` counts as 1) in ``0 .. len(alphabet) - 1``.
    ``Word(alphabet, letters)`` checks every rank; the words the library
    generates from an alphabet's own ranks (super-LS words, reduced or not,
    basis words, a tree's, a Poly term's or a step's word, products and
    subwords of words) come from ``Word._of`` and are not checked again.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Sequence[int]):
        letters = tuple(letters)
        # the rank set compares by value, so 1.0 passes it as rank 1; a sum
        # of ints is an int, and one with such a value in it is not
        if not (alphabet._ranks.issuperset(letters) and type(sum(letters)) is int):
            bad = next(r for r in letters if type(r) not in (int, bool) or r not in alphabet._ranks)
            raise ValueError(f"letter rank {bad!r} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.letters = letters

    @classmethod
    def _of(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        """The word of ``letters``, a tuple of ranks of ``alphabet``, unchecked."""
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        return w

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def parity(self) -> int:
        return _parity(self.alphabet, self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.alphabet._hash, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation."""
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return Word._of(self.alphabet, self.letters + other.letters)

    def sub(self, start: int, stop: int) -> "Word":
        return Word._of(self.alphabet, self.letters[start:stop])

    def __str__(self) -> str:
        return _texts(self.alphabet, (self,))[0]

    def __repr__(self) -> str:
        return f"Word({self})"


def _texts(alphabet: Alphabet, words: Iterable[Word]) -> list[str]:
    """``str(w)`` of each word ``w`` over ``alphabet``, the table or names read once.

    Ranks go through the byte table when every name is one character;
    otherwise the names are joined with '.'.  The empty word is "1", the
    token :meth:`Alphabet.word` reads back as it.
    """
    table = alphabet._table
    if table is not None:
        return [bytes(w.letters).translate(table).decode() or "1" for w in words]
    names = alphabet.names
    return [".".join([names[r] for r in w.letters]) or "1" for w in words]


def _parity(alphabet: Alphabet, letters: Iterable[int]) -> int:
    parities = alphabet.parities
    return sum([parities[r] for r in letters]) & 1


def _lex_key(w: Word) -> tuple[int, ...]:
    """Sort key realizing the lex order: ending in a rank above all, a prefix sorts last."""
    return w.letters + (len(w.alphabet),)


def deglex_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing ascending deglex order."""
    return (len(w.letters), w.letters)


def _is_ls_letters(letters: tuple[int, ...]) -> bool:
    # rotations have the word's length, so the lex order is plain tuple order here
    return all(letters > letters[k:] + letters[:k] for k in range(1, len(letters)))


def _standard_coefficient(w: Word) -> Optional[int]:
    """1 if ``w`` is LS, 2 if ``w = uu`` with ``u`` an odd LS word, else None.

    The leading coefficient that the expansion of a super-LS word's standard
    bracketing must have; the empty word is neither.  An LS word costs one
    rotation scan.
    """
    letters = w.letters
    if not letters:
        return None
    if _is_ls_letters(letters):
        return 1
    half, odd_length = divmod(len(letters), 2)
    u = letters[:half]
    if odd_length or u != letters[half:] or not _parity(w.alphabet, u):
        return None
    return 2 if _is_ls_letters(u) else None


def is_super_ls(w: Word) -> bool:
    """True iff ``w`` is LS, or ``w = uu`` with ``u`` an odd LS word."""
    return _standard_coefficient(w) is not None


def enumerate_super_ls(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All super-LS words of length <= max_len, in deglex order.

    The unconstrained call of :func:`_super_ls_tuples`, the one generator
    of super-LS words.  Its two prunes, leaves and rank 0, make it about as
    fast as Duval's algorithm (TCS 60, 1988), which ``tests/test_words.py``
    keeps as the oracle.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    of = Word._of  # the walk yields ranks of the alphabet only
    return [
        of(alphabet, letters)
        for bucket in _super_ls_tuples(alphabet.parities, max_len)
        for letters in bucket
    ]


def _super_ls_tuples(
    parities: Sequence[int],
    max_len: int,
    successors: Optional[Callable[[tuple[int, ...]], Sequence[int]]] = None,
    weights: Optional[Sequence[int]] = None,
) -> list[list[tuple[int, ...]]]:
    """Super-LS letter tuples of total weight <= max_len, bucketed by weight.

    Letters are ranks ``0 .. len(parities) - 1``; a letter weighs 1 unless
    ``weights`` says otherwise.  ``successors(prefix)`` lists, ascending,
    the letters allowed after ``prefix``; ``None`` allows every letter.
    Bucket ``n`` holds, sorted, the tuples of weight ``n``.  The letters
    are indexed once by weight, so each node's loop walks only the letters
    light enough to fit after it.

    Two words of one length compare as tuples, so LS is Lyndon over the
    reversed order, and the walk grows prenecklaces layer by layer (Cattell,
    Ruskey, Sawada, Serra and Miers, J. Algorithms 37, 2000) with the
    comparison turned round: a child letter is at most the letter one
    period back; an equal one keeps the period and a smaller one starts a
    new period, the whole word.  A node whose period is its length is LS.
    Every prefix of an LS word is a prenecklace, is reduced when the word
    is, and weighs no more, so pruning by ``successors`` and by weight
    loses no word.  For each odd LS ``u`` the square ``uu`` is added when
    it fits and, given ``successors``, every letter across the junction is
    allowed.  Two prunes skip nodes that give no word:

    * A leaf, a child that even the lightest letter cannot extend, is
      recorded in its parent's loop, not visited.  It is LS exactly when
      its letter starts a new period (``c < bound``), as an equal letter
      keeps the parent's period, shorter than the leaf; its square weighs
      at least the leaf plus the lightest letter, more than ``max_len``.
    * A node that starts with rank 0 is not extended: no letter of a
      prenecklace exceeds its first, so the nodes below ``(0,)`` are its
      powers, and only ``(0,)`` and its square are super-LS.

    A layer is the nodes of one length, as ``(letters, period, weight)``;
    the children of a layer that can still grow make up the next.  Nothing
    recurses, so a constrained walk may go as deep as ``max_len`` allows.
    """
    weights = weights or (1,) * len(parities)
    limit = max_len - min(weights)  # some letter fits after a node this heavy or lighter
    heaviest = max(weights)
    # fits[r]: the letters, ascending, that weigh at most r
    fits = [[c for c, w in enumerate(weights) if w <= r] for r in range(heaviest + 1)]
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(max_len + 1)]
    layer = []
    for c in fits[min(max_len, heaviest)] if successors is None else successors(()):
        if weights[c] <= limit:
            layer.append(((c,), 1, weights[c]))
        elif weights[c] <= max_len:
            buckets[weights[c]].append((c,))
    while layer:
        children = []
        for u, period, weight in layer:
            n = len(u)
            if period == n:
                buckets[weight].append(u)
                if 2 * weight <= max_len and sum([parities[c] for c in u]) & 1 and (
                    successors is None
                    or all(c in successors(u + u[:i]) for i, c in enumerate(u))
                ):
                    buckets[2 * weight].append(u + u)
                if not u[0]:
                    continue
            bound = u[-period]
            room = max_len - weight
            light = fits[room] if room < heaviest else fits[heaviest]
            for c in light if successors is None else successors(u):
                if c > bound:
                    break
                grown = weight + weights[c]
                if grown <= limit:
                    children.append((u + (c,), period if c == bound else n + 1, grown))
                elif c < bound and grown <= max_len:
                    buckets[grown].append(u + (c,))
        layer = children
    for bucket in buckets:
        bucket.sort()
    return buckets
