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
word.  Everything here is a pure value: alphabets, symbols and words are
immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Symbol:
    """One generator: position in the alphabet order, display name, parity."""

    rank: int
    name: str
    parity: int

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity!r}")
        if not self.name:
            raise ValueError("symbol name must be non-empty")


def _check_name(name: object, position: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``name`` passes the rule of :meth:`Alphabet.from_names`.

    ``position``, the name's index in a list of names, is given in the message.
    """
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
        where = "" if position is None else f" at position {position}"
        raise ValueError(
            f"bad symbol name {name!r}{where}: use letters, "
            "digits and '_', not starting with a digit"
        )


class Alphabet:
    """An immutable, totally ordered set of symbols.

    Words carry a reference to their alphabet; two alphabets are considered
    the same when their (name, parity) sequences agree, so words remain
    comparable across independently constructed but identical alphabets.
    ``parities`` lists the symbols' parities by rank.
    """

    __slots__ = (
        "symbols", "parities", "_by_name", "_names", "_key", "_hash", "_ranks", "_dotted", "_table"
    )

    def __init__(self, symbols: Sequence[Symbol]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        for i, s in enumerate(symbols):
            if s.rank != i:
                raise ValueError(
                    f"symbol ranks must be 0..{len(symbols) - 1} in order, "
                    f"got rank {s.rank} at position {i}"
                )
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbol names in {names}")
        self.symbols = symbols
        self.parities = tuple([s.parity for s in symbols])
        self._by_name = dict(zip(names, symbols))
        self._names = tuple(names)
        self._key = tuple(zip(names, self.parities))
        self._hash = hash(self._key)
        self._ranks = frozenset(range(len(symbols)))
        joined = "".join(names)  # names are non-empty
        self._dotted = len(joined) > len(names)
        # rank r -> byte of its name, when every name is one ASCII character;
        # _texts formats words through it
        self._table = (
            None
            if self._dotted or not joined.isascii()
            else bytes.maketrans(bytes(range(len(names))), joined.encode())
        )

    @classmethod
    def from_names(cls, names: Iterable[str], odd: Iterable[str] = ()) -> "Alphabet":
        """Build an alphabet from names in increasing order; ``odd`` marks parities.

        Names must be ASCII identifiers (a letter or '_', then letters,
        digits or '_'): no operator, no dot and no "1", the empty word, so
        words and polynomials print to text that parses back to them.
        """
        names = list(names)
        for i, name in enumerate(names):
            _check_name(name, i)
        odd = set(odd)
        unknown = odd - set(names)
        if unknown:
            raise ValueError(f"odd names not in alphabet: {sorted(unknown)}")
        return cls(
            tuple(
                Symbol(i, name, 1 if name in odd else 0)
                for i, name in enumerate(names)
            )
        )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, rank: int) -> Symbol:
        return self.symbols[rank]

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown symbol name {name!r}") from None

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Alphabet) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [s.name + (":odd" if s.parity else "") for s in self.symbols]
        return f"Alphabet({', '.join(parts)})"

    # -- word construction -------------------------------------------------

    def empty_word(self) -> "Word":
        return Word(self, ())

    def word_of_names(self, names: Iterable[str]) -> "Word":
        return Word(self, tuple(self.symbol(n).rank for n in names))

    def word(self, text: str) -> "Word":
        """Parse the textual form produced by ``str(word)``.

        Single-character alphabets join names with nothing ("txx"); alphabets
        with a multi-character name join with '.' ("t.x1.x1").  The token "1"
        denotes the empty word unless "1" is itself a symbol name.
        """
        text = text.strip()
        if text == "":
            return self.empty_word()
        if text == "1" and "1" not in self._by_name:
            return self.empty_word()
        if self._dotted or "." in text:
            return self.word_of_names(text.split("."))
        return self.word_of_names(text)


class Word:
    """An associative word: a finite sequence of symbol ranks (maybe empty).

    A rank is an ``int`` (``True`` counts as 1) in ``0 .. len(alphabet) - 1``.
    ``Word(alphabet, letters)`` checks every rank; the words the library
    generates from an alphabet's own ranks (super-LS words, enveloping basis
    words, a tree's word) come from ``Word._of`` and are not checked again.
    """

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Sequence[int]):
        letters = tuple(letters)
        # the rank set compares by value, so 1.0 passes it as rank 1; a sum
        # of ints is an int, and one with such a value in it is not
        if not (alphabet._ranks.issuperset(letters) and type(sum(letters)) is int):
            bad = next(r for r in letters if type(r) not in (int, bool) or r not in alphabet._ranks)
            raise ValueError(f"letter rank {bad!r} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.letters = letters
        self._hash = hash((alphabet._hash, letters))

    @classmethod
    def _of(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        """The word of ``letters``, a tuple of ranks of ``alphabet``, unchecked."""
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        w._hash = hash((alphabet._hash, letters))
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
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation."""
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def sub(self, start: int, stop: int) -> "Word":
        return Word(self.alphabet, self.letters[start:stop])

    def __str__(self) -> str:
        return _texts(self.alphabet, (self,))[0]

    def __repr__(self) -> str:
        return f"Word({str(self) or '1'})"


def _texts(alphabet: Alphabet, words: Iterable[Word]) -> list[str]:
    """``str(w)`` of each word ``w`` over ``alphabet``, the table or names read once.

    Ranks go through the byte table when every name is one ASCII character;
    otherwise the names are joined, with '.' when one is longer than that.
    """
    table = alphabet._table
    if table is not None:
        return [bytes(w.letters).translate(table).decode() for w in words]
    names, sep = alphabet._names, "." if alphabet._dotted else ""
    return [sep.join([names[r] for r in w.letters]) for w in words]


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
    bracketing must have.  An LS word costs one rotation scan.
    """
    letters = w.letters
    if not letters:
        raise ValueError("the empty word is not eligible")
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

    Two words of one length compare as tuples, so a word is LS exactly when
    it is a classical Lyndon word (smaller than its rotations) over the
    reversed alphabet, rank r read as ``len(alphabet) - 1 - r``.  Duval's
    algorithm (TCS 60, 1988) steps from each such word straight to the
    next, so no other word is visited; the squares ``uu`` of the odd ones
    with ``2|u| <= max_len`` are added, and each length is sorted.  The
    constrained paths use :func:`_super_ls_tuples` instead: its walk also
    visits the prenecklaces that are not LS, which costs 1.3 to 1.9 times
    Duval's time here, where no constraint prunes them (3 or 4 letters at
    lengths 7 and 8, Python 3.11).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(max_len + 1)]
    # Duval's successor in original ranks: the reversed alphabet's first
    # letter is rank len - 1 and its last is rank 0
    w = [len(alphabet) - 1]
    while w:
        u = tuple(w)
        by_length[len(u)].append(u)
        if 2 * len(u) <= max_len and _parity(alphabet, u):
            by_length[2 * len(u)].append(u + u)
        period = len(w)
        while len(w) < max_len:
            w.append(w[-period])
        while w and w[-1] == 0:
            w.pop()
        if w:
            w[-1] -= 1
    out = []
    of = Word._of  # the walk yields ranks of the alphabet only
    for words in by_length:
        words.sort()
        out.extend([of(alphabet, letters) for letters in words])
    return out


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
    Bucket ``n`` holds, sorted, the tuples of weight ``n``.

    LS is Lyndon over the reversed order, so the walk grows prenecklaces
    depth-first (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 37,
    2000) with the comparison turned round: a child letter is at most the
    letter one period back; an equal one keeps the period and a smaller one
    starts a new period, the whole word.  A node whose period is its length
    is LS.  Every prefix of an LS word is a prenecklace, is reduced when
    the word is, and weighs no more, so pruning by ``successors`` and by
    weight loses no word.  For each odd LS ``u`` the
    square ``uu`` is added when it fits and every letter across the
    junction is allowed.
    """
    weights = weights or (1,) * len(parities)
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(max_len + 1)]

    def allowed(prefix: tuple[int, ...]) -> Sequence[int]:
        return range(len(parities)) if successors is None else successors(prefix)

    def grow(u: tuple[int, ...], period: int, weight: int, odd: int) -> None:
        n = len(u)
        if period == n:
            buckets[weight].append(u)
            if odd and 2 * weight <= max_len and all(
                c in allowed(u + u[:i]) for i, c in enumerate(u)
            ):
                buckets[2 * weight].append(u + u)
        bound = u[n - period]
        for c in allowed(u):
            if c > bound:
                break
            grown = weight + weights[c]
            if grown <= max_len:
                grow(u + (c,), period if c == bound else n + 1, grown, odd ^ parities[c])

    for c in allowed(()):
        if weights[c] <= max_len:
            grow((c,), 1, weights[c], parities[c])
    del grow  # it refers to itself: free what it holds now, not at a later gc pass
    for bucket in buckets:
        bucket.sort()
    return buckets
