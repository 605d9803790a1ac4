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
from itertools import chain
from math import gcd
from operator import neg
from typing import Iterable, Sequence

from .poly import LetterTerms, Poly, from_letter_terms, superbracket
from .words import Alphabet, Word, _super_ls_tuples, _words, deglex_key

# A step table holding this many entries is emptied before it takes another.
_STEPS_KEPT = 1 << 16

LARGEST_LEFTMOST = "largest-leftmost"
SMALLEST_RIGHTMOST = "smallest-rightmost"
STRATEGIES = (LARGEST_LEFTMOST, SMALLEST_RIGHTMOST)


class _Frozen:
    """A slotted base whose instances refuse assignment and deletion.

    A subclass sets its slots once, in ``__init__``, through
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Record(_Frozen):
    """An immutable record whose ``__slots__`` name its fields, in order.

    A record is built from every field, each given by position or by name,
    the positional ones first.  Two records are equal, and hash alike, when
    they are of one class and their fields are equal; the repr reads
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *values, **fields) -> None:
        if fields:
            try:
                values += tuple([fields.pop(f) for f in self.__slots__[len(values) :]])
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__} is missing field {missing}") from None
            if fields:
                raise TypeError(
                    f"{type(self).__name__} got an unexpected field {next(iter(fields))!r}"
                )
        try:
            for name, value in zip(self.__slots__, values, strict=True):
                object.__setattr__(self, name, value)
        except ValueError:
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            ) from None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

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
    """A monic relation with cached leading word, its deglex-largest word.

    For :func:`_reduce_letters` it keeps the body as integers: the
    denominator, and ``_tail_terms``, the terms other than the leading one
    in descending deglex order, each as its letters, its numerator and its
    letters negated.
    """

    __slots__ = ("body", "leading_word", "leading_len", "_denominator", "_tail_terms")

    def __init__(self, body: Poly):
        if body.is_zero():
            raise ValueError("a rewrite rule cannot be zero")
        if body.parity() is None:
            raise ValueError(f"rule body must be parity-homogeneous: {body}")
        body = body.make_monic()
        nums = body._nums
        _, lead = max(zip(map(len, nums), nums))
        self.body = body
        self.leading_word = Word._of(body.alphabet, lead)
        self.leading_len = len(lead)
        self._denominator = body._den
        tail = sorted([(len(u), u, n) for u, n in nums.items() if u != lead], reverse=True)
        self._tail_terms = tuple([(u, n, tuple(map(neg, u))) for _, u, n in tail])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RewriteRule) and self.body == other.body

    def __hash__(self) -> int:
        return hash(self.body)

    def __repr__(self) -> str:
        return f"RewriteRule({self.body})"


class _Steps(dict):
    """One strategy's step table: a word's letters to its (rule index, position).

    A reduced word maps to None.  Reading a word not in the table finds its
    step, as :func:`reduce` defines it for the strategy, and enters it.  The
    table bounds its own size: when full it is emptied, and a dropped word
    is found again when next read.  It keeps ``index.get``, not the system,
    so that they form no reference cycle.
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

    The rules are indexed by the letters of their leading words.
    ``_steps`` holds one :class:`_Steps` table per strategy,
    ``_steps[True]`` for largest-leftmost: the one step finder that every
    reader of the system shares.
    """

    __slots__ = ("alphabet", "rules", "_index", "_lengths", "_steps")

    def __init__(self, alphabet: Alphabet, rules: Iterable[RewriteRule] = ()):
        rules = tuple(rules)
        index: dict[tuple[int, ...], int] = {}
        for i, rule in enumerate(rules):
            if rule.body.alphabet is not alphabet and rule.body.alphabet != alphabet:
                raise ValueError("rule over a different alphabet")
            if rule.leading_word.letters in index:
                raise ValueError(f"rules[{i}]: duplicate leading word {str(rule.leading_word)!r}")
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


class ReductionTrace:
    """The step sequence of one reduction, replayable against the input.

    It holds the steps as (letters, rule index, position) tuples, as the
    kernel of :func:`reduce` records them; each read of ``steps`` builds
    the :class:`ReductionStep` objects, and ``len`` counts without building
    any.
    """

    __slots__ = ("_raw", "normal_form")

    def __init__(self, raw: Sequence[tuple[tuple[int, ...], int, int]], normal_form: Poly):
        self._raw = raw
        self.normal_form = normal_form

    @property
    def steps(self) -> tuple[ReductionStep, ...]:
        of, alphabet = Word._of, self.normal_form.alphabet
        return tuple(ReductionStep(of(alphabet, w), i, pos) for w, i, pos in self._raw)

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
    ``w`` by strictly deglex-smaller words, so the reduction terminates.
    On a system closed under composition the normal form does not depend
    on the strategy; otherwise it may, which is why the strategy is
    explicit.  The arithmetic is exact, and ``p`` is left as it was.  The
    trace replays the steps against ``p`` (see :meth:`ReductionTrace.replay`).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    alphabet = p.alphabet
    if alphabet is not system.alphabet and alphabet != system.alphabet:
        raise ValueError("polynomial over a different alphabet than the system")
    nums = p._nums
    terms = dict(nums)
    steps, factor = _reduce_letters(terms, system, strategy == LARGEST_LEFTMOST, nums)
    normal_form = from_letter_terms(alphabet, terms, p._den * factor)
    return normal_form, ReductionTrace(steps, normal_form)


def _reduce_letters(
    acc: LetterTerms, system: RewriteSystem, leftmost: bool, start: Iterable
) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
    """The reduction kernel: rewrite the letter dict ``acc`` in place.

    ``leftmost`` picks the strategy of :func:`reduce`.  ``start`` must hold
    every reducible word of ``acc``; it is only read, a word of it not in
    ``acc`` is skipped, and so is a repeat.  Returns the steps as (letters,
    rule index, position), and the factor ``acc`` was scaled by: ``acc`` is
    left holding that factor times its normal form, as ints.

    The walk.  The reducible words of ``start`` are taken out of ``acc``
    onto a worklist of (minus the length, the negated letters, the letters,
    the step, the coefficient) entries, so ``acc`` holds only irreducible
    words.  Whether a word is reducible depends on the word alone, so the
    worklist's next word is the one the strategy names.  A word's step is
    read from ``system._steps[leftmost]`` (see :class:`_Steps`) each time
    it is seeded, and each time a step frames it while it is not in
    ``acc``.  A step on a word with coefficient ``C`` removes the word and
    subtracts ``C // D`` times the framed tail of its rule, ``D`` being the
    rule's denominator: the rule is monic, so its framed leading term
    would remove exactly ``C``.  A framed word already in ``acc`` is
    updated there, an irreducible one is put into it, and a reducible one
    is pushed.  When ``D`` does not divide ``C``, ``acc``, the worklist and the
    factor are first multiplied by ``D // gcd(C, D)``: scaling keeps the
    set of words, so the steps are those of the rational reduction, and
    nothing is divided back.

    For largest-leftmost the worklist is a heap, largest word on top; a
    framed word's key is sliced from its rewritten word's key around the
    occurrence.  A word framed again while it waits gets another entry;
    its entries have equal keys, come off the heap one after the other and
    are summed, a sum of zero taking no step.  For smallest-rightmost it is
    a stack, whose entries need no key (0 and None): when it rewrites
    ``w``, every other reducible word left is larger than ``w`` and every
    word the step frames is smaller, so a reducible framed word is new and
    nothing else touches its coefficient before it is rewritten.  A step
    pushes its reducible framed words largest first, as the rule lists its
    tail, so each cascade is walked depth-first, smallest word first, and
    no word is on the stack twice.
    """
    rules = system.rules
    hits = system._steps[leftmost]
    get = acc.get
    steps: list[tuple[tuple[int, ...], int, int]] = []
    factor = 1
    work = []
    for w in start:  # acc loses its seeds
        if w in acc and (hit := hits[w]) is not None:
            if leftmost:
                work.append((-len(w), tuple(map(neg, w)), w, hit, acc.pop(w)))
            else:
                work.append((0, None, w, hit, acc.pop(w)))
    if leftmost:
        heapify(work)  # a max-heap by deglex
        pop = heappop
    else:
        work.sort(key=lambda e: (len(e[2]), e[2]), reverse=True)  # the smallest word last
        pop = list.pop
    while work:
        _, negs, word, (rule_index, position), coeff = pop(work)
        while leftmost and work and work[0][2] == word:  # the word's other entries
            coeff += heappop(work)[4]
        if not coeff:  # they cancel: no step
            continue
        rule = rules[rule_index]
        d = rule._denominator
        if d != 1:
            if coeff % d:
                m = d // gcd(coeff, d)
                for w in acc:
                    acc[w] *= m
                work[:] = [(k, n, w, h, c * m) for k, n, w, h, c in work]
                factor *= m
                coeff *= m
            coeff //= d
        end = position + rule.leading_len
        prefix, suffix = word[:position], word[end:]
        for u, c, neg_u in rule._tail_terms:
            framed = prefix + u + suffix
            held = get(framed)
            if held is not None:
                rest = held - coeff * c
                if rest:
                    acc[framed] = rest
                else:
                    del acc[framed]
            elif (hit := hits[framed]) is None:
                acc[framed] = -coeff * c
            elif leftmost:
                key = negs[:position] + neg_u + negs[end:]
                heappush(work, (-len(framed), key, framed, hit, -coeff * c))
            else:
                work.append((0, None, framed, hit, -coeff * c))
        steps.append((word, rule_index, position))
    return steps, factor


def assoc_compositions(p: RewriteRule, q: RewriteRule) -> list[tuple[Word, Poly]]:
    """All overlap and inclusion compositions of the leading words.

    Overlaps: w = pbar*a = b*qbar with a non-empty proper overlap (neither
    leading word containing the other); the composition is p*a - b*q.
    Inclusions: w = pbar = b*qbar*a at every position; the composition is
    p - b*q*a.  Containment of pbar inside qbar is found when the pair is
    visited in the opposite order, and the identity inclusion of a rule in
    itself is skipped as definitionally zero.  The words a and b are
    monomials built on their letters, sliced from the rules' own words.
    """
    alphabet = p.body.alphabet
    if alphabet is not q.body.alphabet and alphabet != q.body.alphabet:
        raise ValueError("rules over different alphabets")
    pl = p.leading_word.letters
    ql = q.leading_word.letters
    of = Poly._of
    out: list[tuple[Word, Poly]] = []
    for k in range(1, min(len(pl), len(ql))):
        if pl[len(pl) - k :] == ql[:k]:
            word = Word._of(alphabet, pl + ql[k:])
            tail = of(alphabet, 1, {ql[k:]: 1})
            head = of(alphabet, 1, {pl[: len(pl) - k]: 1})
            out.append((word, p.body * tail - head * q.body))
    if len(ql) <= len(pl):
        for i in range(len(pl) - len(ql) + 1):
            if pl[i : i + len(ql)] != ql:
                continue
            if p is q and len(pl) == len(ql):
                continue
            head = of(alphabet, 1, {pl[:i]: 1})
            tail = of(alphabet, 1, {pl[i + len(ql) :]: 1})
            out.append((p.leading_word, p.body - head * q.body * tail))
    return out


class CompositionCheck(_Record):
    """One composition of a rule pair and the outcome of reducing it."""

    __slots__ = ("left", "right", "word", "composition", "normal_form", "trace", "passed")

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "word": str(self.word),
            "normal_form": str(self.normal_form),
            "passed": self.passed,
        }


class GsbReport(_Record):
    """Outcome of the closure check: every composition and its normal form."""

    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CompositionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "compositions": [c.to_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        # one pass over the checks gives the lines and the verdict: passed would walk them again
        lines, verdict = [], "PASS"
        for c in self.checks:
            if not c.passed:
                verdict = "FAIL"
            status = "ok" if c.passed else f"NONZERO: {c.normal_form}"
            lines.append(f"  rules ({c.left},{c.right}) at {str(c.word)!r}: {status}")
        header = f"composition closure: {verdict} ({len(self.checks)} compositions)"
        return "\n".join([header, *lines])


def is_gsb(system: RewriteSystem) -> GsbReport:
    """Reduce every composition of two rules (self-pairs included) by the system.

    Passes iff every composition has normal form zero.  A pair (p, q) has a
    composition only when q's leading word is empty, as the empty word occurs
    at every position; or starts with a letter of p's after its first, for
    an overlap with the end of p's or an inclusion past position 0; or starts
    with p's first letter and is shorter, for an inclusion at 0.  The rules
    are indexed by the first letter of their leading words, and only these
    pairs, each once, are composed.  Checks are reported in deglex order of
    the composition word, then by rule indices.
    """
    rules = system.rules
    by_first: dict[tuple[int, ...], list[int]] = {}
    for j, q in enumerate(rules):
        by_first.setdefault(q.leading_word.letters[:1], []).append(j)
    everywhere = by_first.get((), [])
    checks: list[CompositionCheck] = []
    for i, p in enumerate(rules):
        pl = p.leading_word.letters
        later = set(pl[1:])
        partners = everywhere + [j for c in later for j in by_first.get((c,), ())]
        if pl and pl[0] not in later:
            partners += [
                j for j in by_first.get(pl[:1], ()) if len(rules[j].leading_word) < len(pl)
            ]
        for j in sorted(partners):
            for word, composition in assoc_compositions(p, rules[j]):
                normal_form, trace = reduce(composition, system)
                checks.append(CompositionCheck(
                    i, j, word, composition, normal_form, trace, normal_form.is_zero()
                ))
    checks.sort(key=lambda c: (deglex_key(c.word), c.left, c.right))
    return GsbReport(tuple(checks))


def enumerate_reduced_super_ls(system: RewriteSystem, max_len: int) -> list[Word]:
    """Super-LS words of length <= max_len containing no leading word, in deglex order.

    The words are generated, not filtered: :func:`_super_ls_tuples` walks
    the prenecklaces and never extends one past a leading word, which is
    exact because every prefix of a reduced word is reduced.  A leading word
    new to ``u c`` ends at ``c``, so the letters that may follow each tail
    of ``k - 1`` letters, ``k`` the longest leading word, are found once by
    :func:`is_reduced_word`; only the probes and the returned words become Words.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    alphabet = system.alphabet
    k = max(system._lengths, default=0)
    allowed: dict[tuple[int, ...], list[int]] = {}

    def successors(letters: tuple[int, ...]) -> list[int]:
        tail = letters[max(len(letters) - k + 1, 0) :]
        if tail not in allowed:
            grown = _words(alphabet, [tail + (c,) for c in range(len(alphabet))])
            allowed[tail] = [w.letters[-1] for w in grown if is_reduced_word(w, system)]
        return allowed[tail]

    buckets = _super_ls_tuples(alphabet.parities, max_len, successors)
    return _words(alphabet, chain.from_iterable(buckets))


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
    first = Poly._of(alphabet, 1, {pl[:1]: 1})
    last = Poly._of(alphabet, 1, {ql[1:]: 1})
    return superbracket(p.body, last) - superbracket(first, q.body)
