"""Rewriting in the free associative superalgebra with replayable traces.

A :class:`RewriteSystem` is a finite list of monic, parity-homogeneous
relations with pairwise distinct leading words.  ``reduce`` eliminates every
occurrence of a leading word, always producing deglex-smaller words, so it
terminates; the returned :class:`ReductionTrace` replays to the same normal
form and certifies that input minus output lies in the two-sided ideal of
the rules.

``assoc_compositions`` enumerates the overlap and inclusion compositions of
two rules, and ``is_gsb`` checks that the compositions of every pair of
rules reduce to zero -- the closure property that makes the set of reduced
words a basis of the quotient.  When the check fails, normal forms of other inputs may depend
on the rewriting strategy; both built-in strategies are exposed so that the
agreement can be tested rather than assumed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import neg
from typing import Iterable, Sequence

from .poly import LetterTerms, Poly, from_letter_terms, superbracket
from .words import Alphabet, Word, _super_ls_tuples, deglex_key

# A step table holding this many entries is emptied before it takes another
# (about 12 MiB of words of length 9); read at each new entry.
_STEPS_KEPT = 1 << 16

LARGEST_LEFTMOST = "largest-leftmost"
SMALLEST_RIGHTMOST = "smallest-rightmost"
STRATEGIES = (LARGEST_LEFTMOST, SMALLEST_RIGHTMOST)


class _Record:
    """A slotted, immutable record whose ``__slots__`` name its fields, in order.

    Two records are equal, and hash alike, when they are of one class and
    their fields are equal; the repr reads ``Name(field=value, ...)``.  A
    subclass's ``__init__`` hands every field, in order, to this one.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class RewriteRule:
    """A monic relation with cached leading word.

    For the kernel of :func:`reduce` it also keeps its body as integers:
    ``_denominator``, the leading numerator, and ``_tail_terms``, the other
    terms (the body without its leading term), each as its letters, its
    numerator and its letters negated (a piece of a largest-leftmost heap
    key).  The body being monic, a step's leading term cancels the whole
    rewritten word, so a step frames only the tail.
    """

    __slots__ = ("body", "leading_word", "leading_len", "_denominator", "_tail_terms")

    def __init__(self, body: Poly):
        if body.is_zero():
            raise ValueError("a rewrite rule cannot be zero")
        if body.parity() is None:
            raise ValueError(f"rule body must be parity-homogeneous: {body}")
        body = body.make_monic()
        self.body = body
        self.leading_word = body.leading()[0]
        self.leading_len = len(self.leading_word)
        nums = body._nums
        self._denominator = body._den
        self._tail_terms = tuple(
            (u.letters, nums[u], tuple(map(neg, u.letters))) for u, _ in body.terms()[1:]
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RewriteRule) and self.body == other.body

    def __hash__(self) -> int:
        return hash(self.body)

    def __repr__(self) -> str:
        return f"RewriteRule({self.body})"


class _Steps(dict):
    """One strategy's step table: a word's letters to its (rule index, position).

    A reduced word maps to None.  Reading a word not in the table finds its
    step and enters it (``__missing__``): positions in the strategy's order,
    each probed once per leading-word length (ascending), keeping the
    first-listed rule found there (``leftmost``) or the last-listed one.  A
    table holding ``_STEPS_KEPT`` entries is emptied before it takes
    another; a dropped word is found again when next read.  It keeps
    ``index.get``, not the system, so that they form no reference cycle.
    """

    __slots__ = ("_get", "_lengths", "_leftmost")

    def __init__(self, index: dict, lengths: tuple[int, ...], leftmost: bool):
        super().__init__()
        self._get, self._lengths, self._leftmost = index.get, lengths, leftmost

    def __missing__(self, letters: tuple[int, ...]):
        get, lengths, leftmost = self._get, self._lengths, self._leftmost
        n = len(letters)
        last = n - (lengths[0] if lengths else 0)  # an empty leading word occurs at n too
        hit = None
        for pos in range(last + 1) if leftmost else range(last, -1, -1):
            found = None
            for k in lengths:
                if pos + k > n:
                    break
                i = get(letters[pos : pos + k])
                # the rules found at one position differ, so i != found here:
                # keep the smaller index for leftmost, the larger otherwise
                if i is not None and (found is None or (i < found) == leftmost):
                    found = i
            if found is not None:
                hit = (found, pos)
                break
        if len(self) >= _STEPS_KEPT:
            self.clear()
        self[letters] = hit
        return hit


class RewriteSystem:
    """An ordered list of rewrite rules over one alphabet.

    The rules are indexed once, by the letters of their leading words, with
    the set of leading-word lengths alongside.  ``_steps`` holds a
    :class:`_Steps` table on that index per strategy, ``_steps[True]`` for
    largest-leftmost and ``_steps[False]`` for smallest-rightmost: the one
    step finder, shared by every reduction, :func:`is_reduced_word`, check
    (iv) and :func:`enumerate_reduced_super_ls`.  Each grows by one entry
    per distinct word read and bounds itself at all times; it saves work
    only where a later read by the same system meets a word again.
    """

    __slots__ = ("alphabet", "rules", "_index", "_lengths", "_steps")

    def __init__(self, alphabet: Alphabet, rules: Iterable[RewriteRule] = ()):
        rules = tuple(rules)
        index: dict[tuple[int, ...], int] = {}
        for i, rule in enumerate(rules):
            if rule.body.alphabet != alphabet:
                raise ValueError("rule over a different alphabet")
            if rule.leading_word.letters in index:
                raise ValueError(
                    f"rules[{i}]: duplicate leading word {str(rule.leading_word) or '1'!r}"
                )
            index[rule.leading_word.letters] = i
        self.alphabet = alphabet
        self.rules = rules
        self._index = index
        self._lengths = tuple(sorted({rule.leading_len for rule in rules}))
        self._steps = (_Steps(index, self._lengths, False), _Steps(index, self._lengths, True))

    @classmethod
    def from_polys(cls, alphabet: Alphabet, polys: Iterable[Poly]) -> "RewriteSystem":
        return cls(alphabet, (RewriteRule(p) for p in polys))

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"RewriteSystem({[str(r.leading_word) for r in self.rules]})"


def is_reduced_word(w: Word, system: RewriteSystem) -> bool:
    """True iff no leading word of the system occurs as a contiguous subword.

    That is, iff the word has no step in the system's largest-leftmost table.
    """
    return system._steps[True][w.letters] is None


class ReductionStep(_Record):
    """One rewrite: the full word replaced, which rule, at which offset."""

    __slots__ = ("word", "rule_index", "position")

    def __init__(self, word: Word, rule_index: int, position: int):
        super().__init__(word, rule_index, position)


class ReductionTrace:
    """The step sequence of one reduction, replayable against the input.

    It holds the steps as (letters, rule index, position) tuples, as the
    kernel of :func:`reduce` records them; ``steps`` builds the
    :class:`ReductionStep` objects on first read and keeps them, and
    ``len`` counts without building any.
    """

    __slots__ = ("_raw", "_steps", "normal_form")

    def __init__(self, raw: Sequence[tuple[tuple[int, ...], int, int]], normal_form: Poly):
        self._raw = raw
        self._steps = None
        self.normal_form = normal_form

    @property
    def steps(self) -> tuple[ReductionStep, ...]:
        if self._steps is None:
            alphabet = self.normal_form.alphabet
            self._steps = tuple(
                ReductionStep(Word(alphabet, w), i, pos) for w, i, pos in self._raw
            )
        return self._steps

    def replay(self, p: Poly, system: RewriteSystem) -> tuple[Poly, Poly]:
        """Re-run the steps on ``p``; returns (final form, ideal member).

        The second component is the accumulated sum of c * a * rule * b
        contributions, so p = final + ideal member exactly.
        """
        current = p
        ideal_part = Poly.zero(p.alphabet)
        for step in self.steps:
            coeff = current.coefficient(step.word)
            if not coeff:
                raise ValueError(f"trace does not apply: {str(step.word)!r} absent")
            rule = system.rules[step.rule_index]
            contribution = coeff * _framed(rule, step.word, step.position)
            current = current - contribution
            ideal_part = ideal_part + contribution
        return current, ideal_part

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return f"ReductionTrace({len(self)} steps -> {self.normal_form})"


def _framed(rule: RewriteRule, word: Word, position: int) -> Poly:
    """a * rule.body * b for the occurrence of the leading word inside ``word``."""
    prefix = Poly.monomial(word.sub(0, position))
    suffix = Poly.monomial(word.sub(position + rule.leading_len, len(word)))
    return prefix * rule.body * suffix


def reduce(
    p: Poly, system: RewriteSystem, strategy: str = LARGEST_LEFTMOST
) -> tuple[Poly, ReductionTrace]:
    """Rewrite until every supported word is reduced; exact and terminating.

    Each step takes one word ``w`` of the current polynomial, an occurrence
    of a leading word in it and the rule it names, and subtracts the word's
    coefficient times ``prefix * rule * suffix``.  ``largest-leftmost``
    takes the deglex-largest word containing a leading word, its leftmost
    occurrence, and at that position the first-listed rule;
    ``smallest-rightmost`` takes the deglex-smallest such word, its
    rightmost occurrence and the last-listed rule.  Every step replaces
    ``w`` by strictly deglex-smaller words.  On a system closed under
    composition the normal form does not depend on the strategy; otherwise
    it may, which is why the strategy is explicit.

    The kernel keeps the polynomial as one dict from letters to integer
    numerators over one common denominator (see :func:`_reduce_letters`),
    starting from the numerators and the denominator of ``p``, and hands
    both to :func:`~superlie.poly.from_letter_terms`, which builds the one
    normal form.
    The words that contain a leading word wait in a heap ordered by the
    strategy.  A word's step is read from the system's step table for the
    strategy, the one step finder every caller shares (see
    :class:`_Steps`).  A word that cancels stays in the heap until popped
    and is skipped, and is pushed again if it comes back.  Whether a word
    is reducible depends on the word alone, so the heap's top is the word
    the rule above names: the index, the step table and the heap do not
    change which step is taken.  The trace keeps the kernel's steps as
    letter tuples and builds its :class:`ReductionStep` objects when
    ``trace.steps`` is first read.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    alphabet = p.alphabet
    if alphabet != system.alphabet:
        raise ValueError("polynomial over a different alphabet than the system")
    terms = {w.letters: n for w, n in p._nums.items()}
    leftmost = strategy == LARGEST_LEFTMOST
    steps, den = _reduce_letters(terms, system, leftmost, p._den)
    normal_form = from_letter_terms(alphabet, terms, den)
    return normal_form, ReductionTrace(steps, normal_form)


def _reduce_letters(
    acc: LetterTerms, system: RewriteSystem, leftmost: bool, den: int = 1
) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
    """The kernel of :func:`reduce`: rewrite the letter dict ``acc`` in place.

    ``leftmost`` picks the strategy.  Each word's step is read, once per
    sight, from ``system._steps[leftmost]``, the one step finder shared by
    every caller, which bounds itself (see :class:`_Steps`).  Returns the
    steps as (letters, rule index, position), and the denominator of the
    normal form, which ``acc`` is left holding as int numerators.

    The arithmetic is on ints over one common denominator ``den``, the
    ``acc`` given standing for ``acc / den``.  On entry ``acc`` is scaled by
    the lcm of its denominators, and ``den`` with it (skipped when every
    value is an int).  A step on a word with coefficient ``C`` removes the
    word and subtracts ``C // D`` times the framed tail of its rule, ``D``
    being the rule's denominator: the rule is monic, so its framed leading
    term would remove exactly ``C``.  When ``D`` does not divide ``C``, the
    whole dict and ``den`` are first multiplied by ``D // gcd(C, D)``.
    Scaling by a nonzero constant keeps the set of words, so the steps are
    those of the rational reduction.  Nothing is divided back, and the
    numerators and ``den`` may share a factor.

    A largest-leftmost heap entry is (minus the length, the negated
    letters, the letters).  A framed word's negated letters are sliced from
    its rewritten word's key around the occurrence, with the rule term's
    negated letters between.
    """
    rules = system.rules
    hits = system._steps[leftmost]
    if not all(type(c) is int for c in acc.values()):
        scale = lcm(*[c.denominator for c in acc.values()])
        for w, c in acc.items():
            acc[w] = c.numerator * (scale // c.denominator)
        den *= scale
    if leftmost:  # max-heap by deglex
        heap = [(-len(w), tuple(map(neg, w)), w) for w in acc if hits[w] is not None]
    else:  # min-heap by deglex
        heap = [(len(w), w) for w in acc if hits[w] is not None]
    heapify(heap)
    steps: list[tuple[tuple[int, ...], int, int]] = []
    while heap:
        top = heappop(heap)
        word = top[-1]
        coeff = acc.pop(word, None)
        if coeff is None:  # cancelled since it was pushed
            continue
        rule_index, position = hits[word]
        rule = rules[rule_index]
        d = rule._denominator
        if d != 1:
            if coeff % d:
                m = d // gcd(coeff, d)
                for w in acc:
                    acc[w] *= m
                den *= m
                coeff *= m
            coeff //= d
        end = position + rule.leading_len
        prefix, suffix = word[:position], word[end:]
        for u, c, neg_u in rule._tail_terms:
            framed = prefix + u + suffix
            if framed in acc:
                rest = acc[framed] - coeff * c
                if rest:
                    acc[framed] = rest
                else:
                    del acc[framed]
            else:
                acc[framed] = -coeff * c
                if hits[framed] is not None:
                    if leftmost:
                        negs = top[1]
                        key = negs[:position] + neg_u + negs[end:]
                        heappush(heap, (-len(framed), key, framed))
                    else:
                        heappush(heap, (len(framed), framed))
        steps.append((word, rule_index, position))
    return steps, den


def assoc_compositions(p: RewriteRule, q: RewriteRule) -> list[tuple[Word, Poly]]:
    """All overlap and inclusion compositions of the leading words.

    Overlaps: w = pbar*a = b*qbar with a non-empty proper overlap (neither
    leading word containing the other); the composition is p*a - b*q.
    Inclusions: w = pbar = b*qbar*a at every position; the composition is
    p - b*q*a.  Containment of pbar inside qbar is found when the pair is
    visited in the opposite order, and the identity inclusion of a rule in
    itself is skipped as definitionally zero.
    """
    alphabet = p.body.alphabet
    if alphabet != q.body.alphabet:
        raise ValueError("rules over different alphabets")
    pl = p.leading_word.letters
    ql = q.leading_word.letters
    of = Word._of  # the letters come from the rules' own words
    out: list[tuple[Word, Poly]] = []
    for k in range(1, min(len(pl), len(ql))):
        if pl[len(pl) - k :] == ql[:k]:
            word = of(alphabet, pl + ql[k:])
            tail = Poly.monomial(of(alphabet, ql[k:]))
            head = Poly.monomial(of(alphabet, pl[: len(pl) - k]))
            out.append((word, p.body * tail - head * q.body))
    if len(ql) <= len(pl):
        for i in range(len(pl) - len(ql) + 1):
            if pl[i : i + len(ql)] != ql:
                continue
            if p is q and len(pl) == len(ql):
                continue
            head = Poly.monomial(of(alphabet, pl[:i]))
            tail = Poly.monomial(of(alphabet, pl[i + len(ql) :]))
            out.append((p.leading_word, p.body - head * q.body * tail))
    return out


class CompositionCheck(_Record):
    """One composition of a rule pair and the outcome of reducing it."""

    __slots__ = ("left", "right", "word", "composition", "normal_form", "trace", "passed")

    def __init__(
        self, left: int, right: int, word: Word, composition: Poly, normal_form: Poly,
        trace: ReductionTrace, passed: bool,
    ):
        super().__init__(left, right, word, composition, normal_form, trace, passed)

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "word": str(self.word),
            "normal_form": str(self.normal_form),
            "passed": self.passed,
        }


class GsbReport:
    """Outcome of the closure check: every composition and its normal form."""

    __slots__ = ("checks", "passed")

    def __init__(self, checks: Sequence[CompositionCheck]):
        self.checks = tuple(checks)
        self.passed = all(c.passed for c in self.checks)

    def failures(self) -> tuple[CompositionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "compositions": [c.to_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [
            f"composition closure: {'PASS' if self.passed else 'FAIL'}"
            f" ({len(self.checks)} compositions)"
        ]
        for c in self.checks:
            status = "ok" if c.passed else f"NONZERO: {c.normal_form}"
            lines.append(
                f"  rules ({c.left},{c.right}) at {str(c.word)!r}: {status}"
            )
        return "\n".join(lines)


def is_gsb(system: RewriteSystem) -> GsbReport:
    """Reduce every composition of two rules (self-pairs included) by the system.

    Passes iff every composition has normal form zero.  A pair (p, q) has
    a composition only when q's leading word overlaps the end of p's or
    lies inside it, so when q's leading word starts with a letter of p's,
    or is empty, as the empty word occurs at every position.  The rules are
    indexed by the first letter of their leading words, and only the pairs
    the index names are composed.  Checks are reported in deglex order of
    the composition word, then by rule indices.
    """
    rules = system.rules
    by_first: dict[tuple[int, ...], list[int]] = {}
    for j, q in enumerate(rules):
        by_first.setdefault(q.leading_word.letters[:1], []).append(j)
    everywhere = by_first.get((), [])
    checks: list[CompositionCheck] = []
    for i, p in enumerate(rules):
        partners = everywhere + [
            j for c in set(p.leading_word.letters) for j in by_first.get((c,), ())
        ]
        for j in sorted(partners):
            for word, composition in assoc_compositions(p, rules[j]):
                normal_form, trace = reduce(composition, system)
                checks.append(
                    CompositionCheck(
                        left=i,
                        right=j,
                        word=word,
                        composition=composition,
                        normal_form=normal_form,
                        trace=trace,
                        passed=normal_form.is_zero(),
                    )
                )
    checks.sort(key=lambda c: (deglex_key(c.word), c.left, c.right))
    return GsbReport(checks)


def enumerate_reduced_super_ls(system: RewriteSystem, max_len: int) -> list[Word]:
    """Super-LS words of length <= max_len containing no leading word, in deglex order.

    The words are generated, not filtered: :func:`_super_ls_tuples` walks
    the prenecklaces and never extends one past a leading word, which is
    exact because every prefix of a reduced word is reduced.  A leading word
    new to ``u c`` ends at ``c``, so the letters that may follow each tail
    of ``k - 1`` letters, ``k`` the longest leading word, are found once by
    :func:`is_reduced_word`; only returned words become Words.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    alphabet = system.alphabet
    k = max(system._lengths, default=0)
    allowed: dict[tuple[int, ...], list[int]] = {}

    def successors(letters: tuple[int, ...]) -> list[int]:
        tail = letters[max(len(letters) - k + 1, 0) :]
        if tail not in allowed:
            grown = (Word(alphabet, tail + (c,)) for c in range(len(alphabet)))
            allowed[tail] = [w.letters[-1] for w in grown if is_reduced_word(w, system)]
        return allowed[tail]

    buckets = _super_ls_tuples(alphabet.parities, max_len, successors)
    return [Word(alphabet, w) for bucket in buckets for w in bucket]


def lie_composition_len2(p: RewriteRule, q: RewriteRule, w: Word) -> Poly:
    """Composition [p, c] - [a, q] for length-2 leading words abc overlapping in b.

    Requires pbar = ab, qbar = bc and w = abc.  With both rules monic this
    matches the superbracket compositions of length-3 overlap words, the 1/2
    normalization of odd-square rules being absorbed by monicity.
    """
    pl = p.leading_word.letters
    ql = q.leading_word.letters
    if len(pl) != 2 or len(ql) != 2:
        raise ValueError("both leading words must have length 2")
    if pl[1] != ql[0]:
        raise ValueError("leading words must overlap in one letter")
    if w.letters != (pl[0], pl[1], ql[1]):
        raise ValueError(f"word {str(w)!r} is not the overlap of the leading words")
    alphabet = p.body.alphabet
    first = Poly.monomial(Word._of(alphabet, pl[:1]))
    last = Poly.monomial(Word._of(alphabet, ql[1:]))
    return superbracket(p.body, last) - superbracket(first, q.body)
