"""Rewriting in the free associative superalgebra with replayable traces.

A :class:`RewriteSystem` is a finite list of monic, parity-homogeneous
relations with pairwise distinct leading words.  ``reduce`` eliminates every
occurrence of a leading word, always producing deglex-smaller words, so it
terminates; the returned :class:`ReductionTrace` replays to the same normal
form and certifies that input minus output lies in the two-sided ideal of
the rules.

``assoc_compositions`` enumerates the overlap and inclusion compositions of
two rules, and ``is_gsb`` checks that all pairwise compositions reduce to
zero -- the closure property that makes the set of reduced words a basis of
the quotient.  When the check fails, normal forms of other inputs may depend
on the rewriting strategy; both built-in strategies are exposed so that the
agreement can be tested rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .poly import MIXED, Poly, superbracket
from .words import Alphabet, Word, deglex_key, is_super_ls

LARGEST_LEFTMOST = "largest-leftmost"
SMALLEST_RIGHTMOST = "smallest-rightmost"
STRATEGIES = (LARGEST_LEFTMOST, SMALLEST_RIGHTMOST)


class RewriteRule:
    """A monic relation with cached leading word."""

    __slots__ = ("body", "leading_word", "leading_len")

    def __init__(self, body: Poly):
        if body.is_zero():
            raise ValueError("a rewrite rule cannot be zero")
        if body.parity() == MIXED:
            raise ValueError(f"rule body must be parity-homogeneous: {body}")
        body = body.make_monic()
        self.body = body
        self.leading_word = body.leading()[0]
        self.leading_len = len(self.leading_word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RewriteRule) and self.body == other.body

    def __hash__(self) -> int:
        return hash(self.body)

    def __repr__(self) -> str:
        return f"RewriteRule({self.body})"


class RewriteSystem:
    """An ordered list of rewrite rules over one alphabet."""

    __slots__ = ("alphabet", "rules", "_by_leading")

    def __init__(self, alphabet: Alphabet, rules: Iterable[RewriteRule] = ()):
        rules = tuple(rules)
        by_leading: dict[Word, int] = {}
        for i, rule in enumerate(rules):
            if rule.body.alphabet != alphabet:
                raise ValueError("rule over a different alphabet")
            if rule.leading_word in by_leading:
                raise ValueError(
                    f"duplicate leading word {str(rule.leading_word)!r}"
                )
            by_leading[rule.leading_word] = i
        self.alphabet = alphabet
        self.rules = rules
        self._by_leading = by_leading

    @classmethod
    def from_polys(cls, alphabet: Alphabet, polys: Iterable[Poly]) -> "RewriteSystem":
        return cls(alphabet, (RewriteRule(p) for p in polys))

    def __len__(self) -> int:
        return len(self.rules)

    def leading_words(self) -> tuple[Word, ...]:
        return tuple(rule.leading_word for rule in self.rules)

    def rule_with_leading(self, word: Word) -> RewriteRule:
        try:
            return self.rules[self._by_leading[word]]
        except KeyError:
            raise ValueError(f"no rule with leading word {str(word)!r}") from None

    def __repr__(self) -> str:
        return f"RewriteSystem({[str(r.leading_word) for r in self.rules]})"


def is_reduced_word(w: Word, system: RewriteSystem) -> bool:
    """True iff no leading word of the system occurs as a contiguous subword."""
    letters = w.letters
    for rule in system.rules:
        probe = rule.leading_word.letters
        k = len(probe)
        if k > len(letters):
            continue
        if any(letters[i : i + k] == probe for i in range(len(letters) - k + 1)):
            return False
    return True


@dataclass(frozen=True)
class ReductionStep:
    """One rewrite: the full word replaced, which rule, at which offset."""

    word: Word
    rule_index: int
    position: int


class ReductionTrace:
    """The step sequence of one reduction, replayable against the input."""

    __slots__ = ("steps", "normal_form")

    def __init__(self, steps: Sequence[ReductionStep], normal_form: Poly):
        self.steps = tuple(steps)
        self.normal_form = normal_form

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
        return len(self.steps)

    def __repr__(self) -> str:
        return f"ReductionTrace({len(self.steps)} steps -> {self.normal_form})"


def _framed(rule: RewriteRule, word: Word, position: int) -> Poly:
    """a * rule.body * b for the occurrence of the leading word inside ``word``."""
    prefix = Poly.monomial(word.sub(0, position))
    suffix = Poly.monomial(word.sub(position + rule.leading_len, len(word)))
    return prefix * rule.body * suffix


def _find_rewrite(
    p: Poly, system: RewriteSystem, strategy: str
) -> Optional[tuple[Word, int, int]]:
    words = [w for w, _ in p.terms()]  # descending deglex
    if strategy == SMALLEST_RIGHTMOST:
        words.reverse()
    for word in words:
        letters = word.letters
        positions = range(len(letters))
        rule_order = enumerate(system.rules)
        if strategy == SMALLEST_RIGHTMOST:
            positions = reversed(positions)
            rule_order = reversed(list(rule_order))
        rule_list = list(rule_order)
        for pos in positions:
            for index, rule in rule_list:
                probe = rule.leading_word.letters
                if letters[pos : pos + len(probe)] == probe:
                    return word, index, pos
    return None


def reduce(
    p: Poly, system: RewriteSystem, strategy: str = LARGEST_LEFTMOST
) -> tuple[Poly, ReductionTrace]:
    """Rewrite until every supported word is reduced; exact and terminating.

    Every step replaces one word occurrence of a leading word by strictly
    deglex-smaller words.  On a system closed under composition the normal
    form does not depend on the strategy; otherwise it may, which is why the
    strategy is explicit.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if p.alphabet != system.alphabet:
        raise ValueError("polynomial over a different alphabet than the system")
    current = p
    steps: list[ReductionStep] = []
    while True:
        hit = _find_rewrite(current, system, strategy)
        if hit is None:
            break
        word, rule_index, position = hit
        coeff = current.coefficient(word)
        current = current - coeff * _framed(system.rules[rule_index], word, position)
        steps.append(ReductionStep(word, rule_index, position))
    return current, ReductionTrace(steps, current)


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
    out: list[tuple[Word, Poly]] = []
    for k in range(1, min(len(pl), len(ql))):
        if pl[len(pl) - k :] == ql[:k]:
            word = Word(alphabet, pl + ql[k:])
            tail = Poly.monomial(Word(alphabet, ql[k:]))
            head = Poly.monomial(Word(alphabet, pl[: len(pl) - k]))
            out.append((word, p.body * tail - head * q.body))
    if len(ql) <= len(pl):
        for i in range(len(pl) - len(ql) + 1):
            if pl[i : i + len(ql)] != ql:
                continue
            if p is q and len(pl) == len(ql):
                continue
            head = Poly.monomial(Word(alphabet, pl[:i]))
            tail = Poly.monomial(Word(alphabet, pl[i + len(ql) :]))
            out.append((Word(alphabet, pl), p.body - head * q.body * tail))
    return out


@dataclass(frozen=True)
class CompositionCheck:
    """One composition of a rule pair and the outcome of reducing it."""

    left: int
    right: int
    word: Word
    composition: Poly
    normal_form: Poly
    trace: ReductionTrace
    passed: bool

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
    """Reduce every pairwise composition (self-pairs included) by the system.

    Passes iff every composition has normal form zero.  Checks are reported
    in deglex order of the composition word, then by rule indices.
    """
    checks: list[CompositionCheck] = []
    for i, p in enumerate(system.rules):
        for j, q in enumerate(system.rules):
            for word, composition in assoc_compositions(p, q):
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

    Every prefix of a reduced word is reduced, so the reduced words are grown
    one letter at a time.  A leading word new to ``u c`` ends at ``c``, so
    only the last ``k`` letters are checked, ``k`` the longest leading word.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    alphabet = system.alphabet
    k = max((len(w) for w in system.leading_words()), default=0)
    out: list[Word] = []
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        layer = [
            grown
            for letters in layer
            for grown in (letters + (c,) for c in range(len(alphabet)))
            if is_reduced_word(Word(alphabet, grown[max(len(grown) - k, 0) :]), system)
        ]
        out.extend(w for w in (Word(alphabet, g) for g in layer) if is_super_ls(w))
    return out


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
    first = Poly.monomial(Word(alphabet, (pl[0],)))
    last = Poly.monomial(Word(alphabet, (ql[1],)))
    return superbracket(p.body, last) - superbracket(first, q.body)
