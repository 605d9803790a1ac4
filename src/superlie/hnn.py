"""Adjoining a stable letter to a finite-dimensional Lie superalgebra.

The input is a structure-constant table: an ordered homogeneous basis whose
first ``subalgebra_size`` symbols span a subalgebra, bracket coefficients,
and a derivation table on the subalgebra of parity ``d_parity``.  Appending
a maximal stable letter ``t`` of that parity and imposing

    [t, a] = d(a)        for a in the subalgebra basis

presents the extension.  This module builds the corresponding rewrite
relations, checks their closure under composition (associatively, and again
through the superbracket composition of each associative overlap, labelled
by the five length-3 shapes the relations admit), enumerates the bases of
the extension and of its enveloping algebra, produces the free generating
set of the complement, and verifies the direct sum decomposition degree by
degree.

Two documented reading decisions:

* The stable-letter relations are indexed by the subalgebra *basis*; a
  bracket of ``t`` with an arbitrary subalgebra element then reduces by
  linearity, so nothing is lost.
* The odd-square rules cover only odd basis symbols of the original algebra,
  never ``t`` itself.  Consequently ``tt`` stays a reduced word when ``t``
  is odd, and ``[t, t]`` is a basis monomial of the extension.
"""

from __future__ import annotations

import json
import types
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .bracketing import (
    NcMonomial,
    expand,
    is_admissible,
    standard_bracket,
)
from .linalg import rank
from .poly import LetterTerms, Poly, _to_fraction, bracket_terms, parse_rational
from .rewrite import (
    RewriteSystem,
    GsbReport,
    _reduce_letters,
    enumerate_reduced_super_ls,
    is_gsb,
    lie_composition_len2,
    reduce,
)
from .words import (
    Alphabet,
    Symbol,
    Word,
    _check_name,
    _lex_key,
    _super_ls_tuples,
    deglex_key,
)

Scalar = Union[int, Fraction]
CoeffMap = Mapping[int, Scalar]


def _clean_coeffs(coeffs: CoeffMap) -> dict[int, Fraction]:
    out = {}
    for v, c in dict(coeffs).items():
        c = _to_fraction(c)
        if c:
            out[v] = c
    return out


class StructureConstants:
    """Bracket and derivation tables over an ordered homogeneous basis.

    ``brackets`` maps ordered rank pairs (x, y) to {v: coefficient of v in
    [x, y]}; a missing pair is zero, and a missing mirror is derived through
    super anti-commutativity.  ``derivation`` maps subalgebra ranks to the
    coefficients of their image.  Construction is structural only: semantic
    coherence (Jacobi, derivation law, closure, parities) is the job of
    :func:`validate`, so corrupt tables can be represented and reported on.
    A table is immutable, its maps read-only views, so :func:`validate`
    computes its report once and keeps it.
    """

    __slots__ = ("alphabet", "subalgebra_size", "d_parity", "alpha", "beta", "_report")

    def __init__(
        self,
        alphabet: Alphabet,
        subalgebra_size: int,
        d_parity: int,
        brackets: Mapping[tuple[int, int], CoeffMap] = (),
        derivation: Mapping[int, CoeffMap] = (),
    ):
        size = len(alphabet)
        if not 0 <= subalgebra_size <= size:
            raise ValueError(f"subalgebra_size {subalgebra_size} out of range")
        if d_parity not in (0, 1):
            raise ValueError(f"d_parity must be 0 or 1, got {d_parity!r}")
        alpha: dict[tuple[int, int], Mapping[int, Fraction]] = {}
        for (x, y), coeffs in dict(brackets).items():
            self._check_rank(x, size)
            self._check_rank(y, size)
            cleaned = _clean_coeffs(coeffs)
            for v in cleaned:
                self._check_rank(v, size)
            alpha[(x, y)] = types.MappingProxyType(cleaned)
        beta: dict[int, Mapping[int, Fraction]] = {}
        for a, coeffs in dict(derivation).items():
            if not 0 <= a < subalgebra_size:
                raise ValueError(
                    f"derivation argument rank {a} is not a subalgebra symbol"
                )
            cleaned = _clean_coeffs(coeffs)
            for v in cleaned:
                self._check_rank(v, size)
            beta[a] = types.MappingProxyType(cleaned)
        for name, value in (
            ("alphabet", alphabet),
            ("subalgebra_size", subalgebra_size),
            ("d_parity", d_parity),
            ("alpha", types.MappingProxyType(alpha)),
            ("beta", types.MappingProxyType(beta)),
            ("_report", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _check_rank(r: int, size: int) -> None:
        if not 0 <= r < size:
            raise ValueError(f"rank {r} out of range for a basis of size {size}")

    def parity(self, rank: int) -> int:
        return self.alphabet.symbols[rank].parity

    def bracket_coeffs(self, x: int, y: int) -> Mapping[int, Fraction]:
        """Coefficients of [x, y], deriving the missing mirror by sign."""
        stored = self.alpha.get((x, y))
        if stored is not None:
            return stored
        mirror = self.alpha.get((y, x))
        if mirror is None:
            return {}
        # [x,y] = -(-1)^{|x||y|}[y,x]
        factor = 1 if (self.parity(x) and self.parity(y)) else -1
        return {v: factor * c for v, c in mirror.items()}

    def derivation_coeffs(self, a: int) -> Mapping[int, Fraction]:
        return self.beta.get(a, {})


@dataclass(frozen=True)
class Violation:
    """One failed identity, located by the symbols involved."""

    check: str
    indices: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "indices": list(self.indices),
            "detail": self.detail,
        }


class ValidationReport:
    """Every identity violated by a structure-constant table."""

    __slots__ = ("violations",)

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }

    def __str__(self) -> str:
        if self.passed:
            return "structure constants: PASS"
        lines = [f"structure constants: FAIL ({len(self.violations)} violations)"]
        for v in self.violations:
            lines.append(f"  {v.check}({', '.join(v.indices)}): {v.detail}")
        return "\n".join(lines)


def _accumulate(
    terms: Iterable[tuple[int, Mapping, Sequence[Mapping]]],
) -> dict[int, Fraction]:
    """By target u, the sum of sign * inner[v] * outer[v] over (sign, inner, outer) terms."""
    out: dict[int, Fraction] = {}
    for sign, inner, outer in terms:
        for v, c in inner.items():
            c = c if sign > 0 else -c
            for u, e in outer[v].items():
                out[u] = out.get(u, 0) + c * e
    return out


def _sign(p: int, q: int) -> int:
    return -1 if (p and q) else 1


def validate(sc: StructureConstants) -> ValidationReport:
    """Check every identity the tables must satisfy; report, never raise.

    The report is computed on the first call for a table and kept on it.
    Its checks, in report order:

    * ``anticommutativity``: an even symbol brackets to zero with itself,
      and a pair stored in both orientations agrees up to the sign;
    * five bilinear identities, each one row of data compared target by
      target: ``jacobi`` (super Jacobi on all ordered basis triples, its
      residual summed once per cyclic orbit),
      ``odd-square-right`` ([x,[y,y]] = 2[[x,y],y] for odd y),
      ``odd-square-left`` ([[x,x],y] = 2[x,[x,y]] for odd x),
      ``derivation-odd-square`` (d([a,a]) = 2[d(a),a] for odd a in the
      subalgebra) and ``derivation-law`` (on all subalgebra pairs);
    * ``subalgebra-closure``: the subalgebra is closed under the bracket;
    * ``parity``: every stored coefficient respects the parities.
    """
    if sc._report is None:
        object.__setattr__(sc, "_report", _check_identities(sc))
    return sc._report


def _check_identities(sc: StructureConstants) -> ValidationReport:
    violations: list[Violation] = []
    size = len(sc.alphabet)
    k = sc.subalgebra_size
    names = [s.name for s in sc.alphabet.symbols]
    parities = [s.parity for s in sc.alphabet.symbols]
    # ad[x][v] = [x, v] and right[y][v] = [v, y], mirrors included
    ad = [[sc.bracket_coeffs(x, v) for v in range(size)] for x in range(size)]
    right = [[ad[v][y] for v in range(size)] for y in range(size)]
    d = [sc.derivation_coeffs(v) for v in range(size)]

    def compare(check, case, lhs, rhs, factor, detail):
        """Report every target u where lhs[u] != factor * rhs[u]."""
        for u in sorted(lhs.keys() | rhs.keys()):
            lhs_u, rhs_u = lhs.get(u, 0), rhs.get(u, 0)
            if lhs_u != factor * rhs_u:
                indices = tuple(names[i] for i in (*case, u))
                violations.append(Violation(check, indices, detail.format(lhs_u, rhs_u)))

    # anti-commutativity: an even diagonal vanishes, then the mirror pairs of x
    for x in range(size):
        if sc.alpha.get((x, x)) and not parities[x]:
            detail = "an even symbol must bracket to zero with itself"
            violations.append(Violation("anticommutativity", (names[x], names[x]), detail))
        for y in range(x + 1, size):
            if (x, y) in sc.alpha and (y, x) in sc.alpha:
                sign = -_sign(parities[x], parities[y])
                required = {v: sign * c for v, c in sc.alpha[(x, y)].items()}
                compare("anticommutativity", (y, x), sc.alpha[(y, x)], required, 1,
                        "stored {}, anti-commutativity requires {}")

    # the bilinear identities, one row each: (check, index cases, factor,
    # detail, sides), where sides(*case) gives lhs and rhs, each summed by
    # _accumulate from (sign, inner, outer) terms
    odd = [x for x in range(size) if parities[x]]
    every, sub = range(size), range(k)
    # a triple whose three brackets vanish leaves no Jacobi residual
    triples = ((x, y, z) for x, y, z in product(every, repeat=3)
               if ad[y][z] or ad[z][x] or ad[x][y])
    residuals: dict[tuple[int, int, int], tuple] = {}

    def jacobi(x: int, y: int, z: int) -> tuple:
        # the three rotations of a triple sum the same three terms, so each
        # orbit's residual is summed once and compared for every triple
        orbit = min((x, y, z), (y, z, x), (z, x, y))
        sides = residuals.get(orbit)
        if sides is None:
            sides = residuals[orbit] = _accumulate([
                (_sign(parities[x], parities[z]), ad[y][z], ad[x]),
                (_sign(parities[y], parities[x]), ad[z][x], ad[y]),
                (_sign(parities[z], parities[y]), ad[x][y], ad[z]),
            ]), {}
        return sides

    rows = (
        # super Jacobi on all ordered triples: the residual must vanish
        ("jacobi", triples, 1, "residual {}", jacobi),
        # [x,[y,y]] = 2[[x,y],y] for odd y
        ("odd-square-right", ((x, y) for y in odd for x in every), 2, "{} != 2*({})",
         lambda x, y: (_accumulate([(1, ad[y][y], ad[x])]),
                       _accumulate([(1, ad[x][y], right[y])]))),
        # [[x,x],y] = 2[x,[x,y]] for odd x
        ("odd-square-left", product(odd, every), 2, "{} != 2*({})",
         lambda x, y: (_accumulate([(1, ad[x][x], right[y])]),
                       _accumulate([(1, ad[x][y], ad[x])]))),
        # d([a,a]) = 2[d(a),a] for odd a in the subalgebra
        ("derivation-odd-square", ((a,) for a in odd if a < k), 2, "{} != 2*({})",
         lambda a: (_accumulate([(1, ad[a][a], d)]), _accumulate([(1, d[a], right[a])]))),
        # d([a,b]) = [d(a),b] + (-1)^{|d||a|}[a,d(b)] on all subalgebra pairs
        ("derivation-law", product(sub, sub), 1, "{} != {}",
         lambda a, b: (_accumulate([(1, ad[a][b], d)]), _accumulate([
             (1, d[a], right[b]),
             (_sign(sc.d_parity, parities[a]), d[b], ad[a]),
         ]))),
    )
    for check, cases, factor, detail, sides in rows:
        for case in cases:
            compare(check, case, *sides(*case), factor, detail)

    # subalgebra closure
    for a in range(k):
        for b in range(a, k):
            for v, c in ad[a][b].items():
                if c and v >= k:
                    violations.append(
                        Violation(
                            "subalgebra-closure",
                            (names[a], names[b], names[v]),
                            f"coefficient {c} lands outside the subalgebra",
                        )
                    )

    # parity coherence of stored tables
    for (x, y), coeffs in sorted(sc.alpha.items()):
        want = (parities[x] + parities[y]) % 2
        for v, c in sorted(coeffs.items()):
            if c and parities[v] != want:
                violations.append(
                    Violation(
                        "parity",
                        (names[x], names[y], names[v]),
                        f"bracket of parities {parities[x]},{parities[y]} cannot "
                        f"hit a parity-{parities[v]} symbol",
                    )
                )
    for a, coeffs in sorted(sc.beta.items()):
        want = (parities[a] + sc.d_parity) % 2
        for v, c in sorted(coeffs.items()):
            if c and parities[v] != want:
                violations.append(
                    Violation(
                        "parity",
                        (names[a], names[v]),
                        f"derivation of parity {sc.d_parity} cannot map a "
                        f"parity-{parities[a]} symbol to a parity-{parities[v]} one",
                    )
                )

    return ValidationReport(violations)


class HnnPresentation:
    """A validated-shape extension input: tables plus the appended stable letter.

    The stable letter is strictly greater than every basis symbol and has the
    parity of the derivation.  All names, the stable letter's included, must
    pass the rule of :meth:`Alphabet.from_names`.  At least one complement
    symbol is required; extending by a derivation of the whole algebra is
    rejected because the result degenerates to a (semi)direct product.
    """

    __slots__ = ("constants", "alphabet", "t_rank", "_relations")

    def __init__(self, constants: StructureConstants, t_name: str = "t"):
        if constants.subalgebra_size >= len(constants.alphabet):
            raise ValueError(
                "the subalgebra must be proper: at least one complement symbol"
            )
        try:
            _check_name(t_name)
        except ValueError as exc:
            raise ValueError(f"stable letter: {exc}") from None
        base = constants.alphabet.symbols
        names = [s.name for s in base]
        if t_name in names:
            raise ValueError(
                f"stable letter name {t_name!r} collides with a generator"
            )
        self.constants = constants
        self.alphabet = Alphabet.from_names(
            names + [t_name],
            [s.name for s in base if s.parity] + [t_name] * constants.d_parity,
        )
        self.t_rank = len(base)
        self._relations = None

    def __repr__(self) -> str:
        return (
            f"HnnPresentation({self.alphabet!r}, "
            f"subalgebra_size={self.constants.subalgebra_size})"
        )


def _tail_poly(pres: HnnPresentation, coeffs: Mapping[int, Fraction]) -> Poly:
    return Poly(
        pres.alphabet,
        [(Word(pres.alphabet, (v,)), c) for v, c in sorted(coeffs.items())],
    )


def _require_valid(pres: HnnPresentation) -> None:
    report = validate(pres.constants)
    if not report.passed:
        raise ValueError(f"structure constants fail validation\n{report}")


def build_relations(pres: HnnPresentation) -> RewriteSystem:
    """The defining relations as a rewrite system, one for each leading word xy.

    The leading words are the pairs that :func:`_successors` does not allow:
    {xy : x > y} + {xx : x odd} + {t a : a in the subalgebra basis}.  Each
    relation is [x, y] expanded minus its tail: the bracket coefficients of
    x and y, or for x = t the derivation image of y.  Odd squares are stored
    monic, i.e. halved.  Raises when validation fails.  Built on the first
    call for a presentation and kept on it, as its tables are immutable.
    """
    if pres._relations is not None:
        return pres._relations
    _require_valid(pres)
    sc, t = pres.constants, pres.t_rank
    leaves = [NcMonomial.leaf(pres.alphabet, r) for r in range(len(pres.alphabet))]
    polys = [
        expand(NcMonomial.pair(leaves[x], leaves[y]))
        - _tail_poly(pres, sc.derivation_coeffs(y) if x == t else sc.bracket_coeffs(x, y))
        for x, allowed in enumerate(_successors(pres))
        for y in range(t + 1)
        if y not in allowed
    ]
    polys.sort(key=lambda p: deglex_key(p.leading()[0]))
    pres._relations = RewriteSystem.from_polys(pres.alphabet, polys)
    return pres._relations


@dataclass(frozen=True)
class LieCompositionCheck:
    """One length-3 superbracket composition, identified by its shape family."""

    family: int
    description: str
    word: Word
    normal_form: Poly
    passed: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "description": self.description,
            "word": str(self.word),
            "normal_form": str(self.normal_form),
            "passed": self.passed,
        }


class HnnGsbReport:
    """Associative closure report plus the superbracket composition families."""

    __slots__ = ("associative", "lie_checks", "passed")

    def __init__(self, associative: GsbReport, lie_checks: Sequence[LieCompositionCheck]):
        self.associative = associative
        self.lie_checks = tuple(lie_checks)
        self.passed = associative.passed and all(c.passed for c in self.lie_checks)

    def families_exercised(self) -> tuple[int, ...]:
        return tuple(sorted({c.family for c in self.lie_checks}))

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "associative": self.associative.to_dict(),
            "lie_compositions": [c.to_dict() for c in self.lie_checks],
        }

    def __str__(self) -> str:
        lines = [str(self.associative)]
        lines.append(
            f"superbracket compositions: "
            f"{'PASS' if all(c.passed for c in self.lie_checks) else 'FAIL'} "
            f"({len(self.lie_checks)} checked, families {list(self.families_exercised())})"
        )
        for c in self.lie_checks:
            status = "ok" if c.passed else f"NONZERO: {c.normal_form}"
            lines.append(f"  family {c.family} at {str(c.word)!r}: {status}")
        return "\n".join(lines)


# The description of each superbracket composition family, by its label.
_FAMILIES = {
    1: "pair/pair",
    2: "stable/pair",
    3: "pair/odd-square",
    4: "odd-square/pair",
    5: "stable/odd-square",
}


def verify_hnn_gsb(pres: HnnPresentation) -> HnnGsbReport:
    """Closure of the defining relations, checked twice over.

    First associatively (every overlap and inclusion composition reduces to
    zero), then through the superbracket composition of each of those
    overlaps.  Every leading word has length 2, so the overlaps are the
    words abc of two rules ab and bc, and the letters label five families:

      1. pair against pair,          x > y > z:            word xyz
      2. stable letter against pair, a > b in the subalgebra: word t a b
      3. pair against odd square,    x > y, y odd:         word x y y
      4. odd square against pair,    x odd, x > y:         word x x y
      5. stable letter against odd square, a odd subalgebra: word t a a

    The one other overlap, the self-overlap xxx of an odd square, is
    skipped: its superbracket composition is a multiple of [[x,x],x], which
    vanishes in the algebra by the odd-square identity ``validate`` checks.
    """
    system = build_relations(pres)
    associative = is_gsb(system)
    t = pres.t_rank
    checks: list[LieCompositionCheck] = []
    for overlap in associative.checks:
        if overlap.left == overlap.right:
            continue
        word = overlap.word
        a, b, c = word.letters
        if a == t:
            family = 5 if b == c else 2
        else:
            family = 3 if b == c else 4 if a == b else 1
        p, q = system.rules[overlap.left], system.rules[overlap.right]
        normal_form, _ = reduce(lie_composition_len2(p, q, word), system)
        checks.append(
            LieCompositionCheck(
                family, _FAMILIES[family], word, normal_form, normal_form.is_zero()
            )
        )
    checks.sort(key=lambda c: (c.family, deglex_key(c.word)))
    return HnnGsbReport(associative, checks)


# -- basis enumeration ----------------------------------------------------------


def _successors(pres: HnnPresentation) -> list[tuple[int, ...]]:
    """For each letter x, the letters y, ascending, for which xy is not a leading word.

    The leading words of the relations are xy for x > y, xx for odd x of
    the original basis, and t a for a in the subalgebra;
    :func:`build_relations` makes one relation for each pair left out here.
    So a word is reduced exactly when each pair of adjacent letters is
    allowed here.
    """
    t = pres.t_rank
    parities = [s.parity for s in pres.alphabet.symbols]
    succ = [
        tuple(y for y in range(x, t + 1) if not (y == x and parities[x]))
        for x in range(t)
    ]
    succ.append(tuple(range(pres.constants.subalgebra_size, t + 1)))
    return succ


def _walks(
    succ: Sequence[Sequence[int]], start: tuple[int, ...], max_len: int
) -> list[tuple[int, ...]]:
    """``start`` and its extensions along ``succ``, up to length ``max_len``.

    The words come layer by layer, each layer in lex order since ``succ``
    lists are ascending, so the whole list is in deglex order.  The empty
    start extends by every letter.
    """
    if len(start) > max_len:
        return []
    layer = [start]
    out = [start]
    for _ in range(len(start), max_len):
        layer = [
            w + (y,) for w in layer for y in (succ[w[-1]] if w else range(len(succ)))
        ]
        out.extend(layer)
    return out


def enumerate_uh_basis(pres: HnnPresentation, max_len: int) -> list[Word]:
    """Basis words of the enveloping algebra up to ``max_len``, in deglex order.

    These are the words avoiding every leading word of the relations, walked
    letter by letter along :func:`_successors`; no other word is generated.
    Raises ``ValueError`` when the tables fail validation.  The tests hold
    the walk to a subword scan of every word (every table shape on up to
    three basis symbols, and the example presentations in `fixtures/`).
    """
    _require_valid(pres)
    alphabet, of = pres.alphabet, Word._of  # the walk steps along ranks of the alphabet
    return [of(alphabet, w) for w in _walks(_successors(pres), (), max_len)]


# -- the free complement ---------------------------------------------------------


def free_generators_W(pres: HnnPresentation, max_len: int) -> list[NcMonomial]:
    """Left-combed generators [..[[t, x1], x2].., xs] of the free complement.

    One for every reduced word t x1 .. xs over the complement, that is with
    x1 <= .. <= xs and odd symbols at most once, of total length <= max_len,
    in deglex order of the underlying word.  The walk meets each word after
    its prefix, so each tree is its prefix's tree bracketed with one leaf.
    """
    t = pres.t_rank
    # from t the walk meets only complement letters and t; drop t as a successor
    succ = [tuple(y for y in ys if y != t) for ys in _successors(pres)]
    leaves = [NcMonomial.leaf(pres.alphabet, r) for r in range(len(pres.alphabet))]
    trees: dict[tuple[int, ...], NcMonomial] = {}
    for w in _walks(succ, (t,), max_len):
        trees[w] = NcMonomial.pair(trees[w[:-1]], leaves[w[-1]]) if len(w) > 1 else leaves[t]
    return list(trees.values())


class _WbarView:
    """The generators W of length <= max_len as letters of an alphabet of their own.

    Each letter is a left-combed generator from :func:`free_generators_W`.
    The letters are ordered purely lexicographically by their words (so "t"
    is the greatest letter, being a prefix of all others) and carry their
    word parities.  A view lives for one call of :func:`enumerate_h_basis`.
    """

    def __init__(self, pres: HnnPresentation, max_len: int):
        self.max_len = max_len
        self.generators = sorted(free_generators_W(pres, max_len), key=lambda m: _lex_key(m.word))
        self.letters = [m.word for m in self.generators]
        self.alphabet = Alphabet(
            tuple(
                Symbol(i, str(w), w.parity) for i, w in enumerate(self.letters)
            )
        )

    def super_ls_sequences(self) -> list[list[tuple[int, ...]]]:
        """The super-LS rank tuples over the letters, bucketed by total length.

        Bucket ``n`` holds, sorted, those of total length ``n <= max_len``:
        generated by :func:`_super_ls_tuples` with the letters' lengths as
        weights and their parities from ``alphabet``, not filtered.
        """
        return _super_ls_tuples(
            self.alphabet.parities, self.max_len, weights=[len(w) for w in self.letters]
        )


def enumerate_h_basis(pres: HnnPresentation, max_len: int) -> list[NcMonomial]:
    """Basis monomials of the extension up to ``max_len``, in deglex order.

    By the structure theorem the extension splits as H = A + L(W): the
    original algebra A plus the free Lie superalgebra on the left-combed
    generators W of :func:`free_generators_W`.  So the basis is the leaves
    of the original basis, and for every super-LS word over W (as letters,
    of total length <= ``max_len``, generated by
    :meth:`_WbarView.super_ls_sequences`) its standard bracketing with each
    letter replaced by its generator's tree.  Nothing here reads the
    relations: that these are admissible bracketings of exactly the
    reduced super-LS words of the relations is what
    :func:`verify_structure_theorem` checks at each degree.  The
    bracketings share one ``standard_bracket`` memo, seeded with each
    letter's generator tree, so every tree is built once, already over the
    base alphabet, and equal subtrees are one object.
    Raises ``ValueError`` when the tables fail validation or
    ``max_len < 1``.
    """
    _require_valid(pres)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    view = _WbarView(pres, max_len)
    # the complement leaves, each the right child of its generator [t, x]
    shared = {g.right.rank: g.right for g in view.generators if len(g) == 2}
    out = [
        shared.get(r) or NcMonomial.leaf(pres.alphabet, r) for r in range(pres.t_rank)
    ]
    # seeded with each letter's tree, the memo gives every bracketing over the base
    memo = {(r,): g for r, g in enumerate(view.generators)}
    for seq in chain.from_iterable(view.super_ls_sequences()):
        out.append(standard_bracket(Word(view.alphabet, seq), memo))
    out.sort(key=lambda m: deglex_key(m.word))
    return out


# -- the structure theorem, degree by degree -------------------------------------


@dataclass(frozen=True)
class StructureLengthCheck:
    """The four degree-n checks of the direct-sum decomposition."""

    length: int
    products: int
    pattern_words: int
    bijection_ok: bool
    ls_transfer_ok: bool
    admissibility_ok: bool
    h_basis_count: int
    independent_rank: int
    rank_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.bijection_ok
            and self.ls_transfer_ok
            and self.admissibility_ok
            and self.rank_ok
        )

    def to_dict(self) -> dict:
        # the fields in declaration order; asdict would deep-copy each value
        return {**vars(self), "passed": self.passed}


class StructureReport:
    """Per-degree verification that the extension splits off a free part."""

    __slots__ = ("max_len", "rows", "h_basis_counts", "passed")

    def __init__(
        self,
        max_len: int,
        rows: Sequence[StructureLengthCheck],
        h_basis_counts: Sequence[int],
    ):
        self.max_len = max_len
        self.rows = tuple(rows)
        self.h_basis_counts = tuple(h_basis_counts)
        self.passed = all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_len": self.max_len,
            "h_basis_counts": list(self.h_basis_counts),
            "lengths": [r.to_dict() for r in self.rows],
        }

    def __str__(self) -> str:
        lines = [
            f"structure decomposition: {'PASS' if self.passed else 'FAIL'} "
            f"(degrees 1..{self.max_len})",
            "basis counts by degree: "
            + ", ".join(str(c) for c in self.h_basis_counts),
        ]
        for r in self.rows:
            lines.append(
                f"  degree {r.length}: products={r.products} pattern={r.pattern_words}"
                f" bijection={'ok' if r.bijection_ok else 'FAIL'}"
                f" ls-transfer={'ok' if r.ls_transfer_ok else 'FAIL'}"
                f" admissible={'ok' if r.admissibility_ok else 'FAIL'}"
                f" rank={r.independent_rank}/{r.h_basis_count}"
                f"{'' if r.rank_ok else ' FAIL'}"
            )
        return "\n".join(lines)


def _normal_forms(
    monomials: Sequence[NcMonomial], system: RewriteSystem
) -> list[LetterTerms]:
    """Each monomial's normal form as a letter-tuple dict, memoised bottom-up.

    NF(leaf) = leaf, every leading word having length 2, and NF([u,v]) is
    the reduction of [NF(u), NF(v)].  That equals the reduction of the free
    expansion when the relations form a Groebner-Shirshov basis.  Every
    subtree of a basis monomial is a basis monomial, so each costs one
    bracket and one reduction; the basis of :func:`enumerate_h_basis`
    shares its equal subtrees, so the memo finds them by identity.  The
    returned dicts are shared: never write.
    """
    parities = system.alphabet.parities
    memo: dict[NcMonomial, LetterTerms] = {}
    hits: dict = {}  # the reduction step of each word, shared by every call

    def normal_form(m: NcMonomial) -> LetterTerms:
        form = memo.get(m)
        if form is None:
            if m.is_leaf:
                form = {(m.rank,): 1}
            else:
                form = bracket_terms(parities, normal_form(m.left), normal_form(m.right))
                _reduce_letters(form, system, True, hits)
            memo[m] = form
        return form

    forms = [normal_form(m) for m in monomials]
    del normal_form  # it refers to itself: free memo and hits now, not at a later gc pass
    return forms


def verify_structure_theorem(pres: HnnPresentation, max_len: int) -> StructureReport:
    """Four checks at every degree n <= max_len.

    (i)   concatenation maps the products of the generators W of total
          length n one-to-one onto the pattern words of length n: the
          reduced words that begin with t, walked along the leading words;
    (ii)  the words of the basis monomials of degree n that begin with t
          are exactly the reduced super-LS words of length n that do;
    (iii) the basis monomials of degree n spell exactly the reduced super-LS
          words of degree n of the defining relations, and each is
          admissible: its expansion leads with its own word at the standard
          coefficient;
    (iv)  reduced expansions of all basis monomials up to n are linearly
          independent and count-match the basis enumeration.

    (ii) is not independent: it is (iii)'s word equality restricted to the
    words that begin with t, kept as its own entry because it is the part
    the generators W are responsible for.  A failed (ii) fails (iii).

    (i) counts the products instead of listing them: P(0) = 1 and P(n) is
    the sum of P(n - |w|) over the w in W with |w| <= n.  Every pattern
    word must split at its t's into words of W; each split is a product
    whose concatenation is that word, so when P(n) equals the number of
    pattern words, concatenation is onto them and, by counting, one-to-one.
    As every word of W is t followed by complement letters only, this
    holds exactly when concatenation is a bijection.

    The basis is the one :func:`enumerate_h_basis` returns.  Its monomials
    that begin with t are the standard bracketings of the super-LS words
    over W with each letter's generator tree at its leaf, so each spells
    the concatenation of its letters' words, and (ii) compares these
    concatenations with the reduced super-LS words that begin with t:
    given (i), a product is super-LS over W iff its concatenation is
    super-LS over the base.
    The reference words of (iii) come from the relations, by
    :func:`enumerate_reduced_super_ls`; with (iv), a pass shows that the
    monomials from W are independent and, their number being the number of
    reduced super-LS words, span.  Nothing is expanded freely: (iii) reads
    each node's stored leading term by :func:`is_admissible`, and (iv) ranks
    the normal forms :func:`_normal_forms` memoises bottom-up.  These are
    the normal forms of the free expansions because the relations form a
    Groebner-Shirshov basis: :func:`build_relations` validates the tables,
    and :func:`verify_hnn_gsb`, run by ``hnn-verify`` on the same
    presentation, checks the closure.  In deglex order the monomials of
    degree <= n are a prefix of the basis, so one :func:`rank` call gives
    every degree's rank: the certificate entries below the prefix length.
    The tests hold this against free expansion, :func:`reduce`, the
    per-degree recomputation and a list of every product.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    system = build_relations(pres)
    basis = enumerate_h_basis(pres, max_len)
    _, certificate = rank(_normal_forms(basis, system))
    t = pres.t_rank
    generators = free_generators_W(pres, max_len)
    letters = {m.word.letters for m in generators}
    products = [1]
    for n in range(1, max_len + 1):
        products.append(sum(products[n - len(m)] for m in generators if len(m) <= n))
    by_degree: list[list[NcMonomial]] = [[] for _ in range(max_len)]
    for m in basis:
        by_degree[len(m) - 1].append(m)
    reduced: list[list[Word]] = [[] for _ in range(max_len)]
    for w in enumerate_reduced_super_ls(system, max_len):
        reduced[len(w) - 1].append(w)
    pattern_by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(max_len)]
    for w in _walks(_successors(pres), (t,), max_len):
        pattern_by_degree[len(w) - 1].append(w)
    h_basis_count = 0
    rows: list[StructureLengthCheck] = []
    for n in range(1, max_len + 1):
        pattern = pattern_by_degree[n - 1]
        bijection_ok = products[n] == len(pattern) and all(
            _splits_into(w, t, letters) for w in pattern
        )

        monomials = by_degree[n - 1]
        words = [m.word.letters for m in monomials]
        expected = [w.letters for w in reduced[n - 1]]
        # (ii) is (iii)'s word equality read on the words that begin with t
        ls_transfer_ok = {w for w in words if w[0] == t} == {w for w in expected if w[0] == t}
        admissibility_ok = words == expected and all(is_admissible(m) for m in monomials)

        h_basis_count += len(monomials)
        independent_rank = bisect_left(certificate, h_basis_count)
        rank_ok = independent_rank == h_basis_count

        rows.append(
            StructureLengthCheck(
                length=n,
                products=products[n],
                pattern_words=len(pattern),
                bijection_ok=bijection_ok,
                ls_transfer_ok=ls_transfer_ok,
                admissibility_ok=admissibility_ok,
                h_basis_count=h_basis_count,
                independent_rank=independent_rank,
                rank_ok=rank_ok,
            )
        )

    return StructureReport(max_len, rows, [len(ms) for ms in by_degree])


def _splits_into(word: tuple[int, ...], t: int, letters: set[tuple[int, ...]]) -> bool:
    """Whether cutting ``word`` before each ``t`` leaves only words in ``letters``."""
    cuts = [i for i, x in enumerate(word) if x == t] + [len(word)]
    return cuts[0] == 0 and all(word[i:j] in letters for i, j in zip(cuts, cuts[1:]))


# -- presentation files -----------------------------------------------------------

def _parse_coeff(value, where: str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"{where}: coefficients must be exact (string or integer)")
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_entries(data: Mapping, key: str, where: str = "", kind: type = dict):
    """Yield (location, entry) for the list under ``data[key]`` (missing: empty).

    Every entry must be a ``kind``: an object, or a string for rules.  Errors
    give the location, as in ``brackets[2].value: expected a list``.
    """
    where = f"{where}.{key}" if where else key
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"{where}: expected a list")
    noun = "a string" if kind is str else "an object"
    for i, entry in enumerate(entries):
        if not isinstance(entry, kind):
            raise ValueError(f"{where}[{i}]: expected {noun}")
        yield f"{where}[{i}]", entry


def _generator(entry: Mapping, field: str, where: str, by_name: dict) -> int:
    """The rank of the known generator that ``entry[field]`` names."""
    name = entry.get(field)
    if not isinstance(name, str) or name not in by_name:
        raise ValueError(f"{where}.{field}: unknown generator {name!r}")
    return by_name[name]


def _parse_value_list(entry: Mapping, by_name: dict, where: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for spot, term in parse_entries(entry, "value", where):
        r = _generator(term, "basis", spot, by_name)
        if "coeff" not in term:
            raise ValueError(f"{spot}: missing coeff")
        out[r] = out.get(r, Fraction(0)) + _parse_coeff(term["coeff"], f"{spot}.coeff")
    return out


def parse_generators(gens) -> Alphabet:
    """The alphabet of a JSON ``generators`` list of {name, parity} objects.

    Shared by presentation and rules files.  Names come in increasing order;
    a parity must be 0 or 1.  Errors give the location, as in
    ``generators[2].parity: must be 0 or 1``.
    """
    if not isinstance(gens, list) or not gens:
        raise ValueError("generators: expected a non-empty list")
    names, odd = [], []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "parity" not in g:
            raise ValueError(f"generators[{i}]: expected {{name, parity}}")
        name, parity = g["name"], g["parity"]
        if name in names:
            raise ValueError(f"generators[{i}].name: duplicate {name!r}")
        if type(parity) is not int or parity not in (0, 1):
            raise ValueError(f"generators[{i}].parity: must be 0 or 1")
        names.append(name)
        if parity:
            odd.append(name)
    try:
        return Alphabet.from_names(names, odd)
    except ValueError as exc:
        raise ValueError(f"generators: {exc}") from None


def _read_json(path: Union[str, Path]) -> dict:
    """The JSON object in a file; every failure is a ``ValueError`` naming the path."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def load_presentation(source: Union[str, Path, Mapping]) -> HnnPresentation:
    """Read a presentation from a JSON file or an equivalent mapping.

    Schema: generators (name/parity, increasing order, subalgebra first),
    subalgebra_size, d_parity, brackets (one orientation of each pair is
    enough), derivation (arguments must be subalgebra generators).  Unknown
    names are rejected with the offending location; non-reduced fractions
    are accepted and normalized.  A file that cannot be read, is not JSON
    or holds no JSON object raises ``ValueError`` with its path, and so
    does a rules file: rules but no subalgebra_size.
    """
    is_path = isinstance(source, (str, Path))
    data = _read_json(source) if is_path else dict(source)
    if "rules" in data and "subalgebra_size" not in data:
        where = f"{source}: " if is_path else ""
        raise ValueError(f"{where}expected a presentation, got a rules file")
    alphabet = parse_generators(data.get("generators"))
    by_name = {s.name: s.rank for s in alphabet.symbols}

    k = data.get("subalgebra_size")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= len(alphabet):
        raise ValueError(f"subalgebra_size: expected an integer in 0..{len(alphabet)}")
    d_parity = data.get("d_parity")
    if type(d_parity) is not int or d_parity not in (0, 1):
        raise ValueError("d_parity: must be 0 or 1")

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for where, entry in parse_entries(data, "brackets"):
        key = tuple(_generator(entry, side, where, by_name) for side in ("left", "right"))
        if key in brackets:
            raise ValueError(
                f"{where}: duplicate bracket for ({entry['left']}, {entry['right']})"
            )
        brackets[key] = _parse_value_list(entry, by_name, where)

    derivation: dict[int, dict[int, Fraction]] = {}
    for where, entry in parse_entries(data, "derivation"):
        a, arg = _generator(entry, "arg", where, by_name), entry["arg"]
        if a >= k:
            raise ValueError(
                f"{where}.arg: {arg!r} is not in the subalgebra (first {k} generators)"
            )
        if a in derivation:
            raise ValueError(f"{where}: duplicate derivation entry for {arg!r}")
        derivation[a] = _parse_value_list(entry, by_name, where)

    constants = StructureConstants(alphabet, k, d_parity, brackets, derivation)
    return HnnPresentation(constants, t_name=data.get("stable_letter", "t"))

