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
from fractions import Fraction
from itertools import chain, pairwise, product
from math import lcm
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .bracketing import (
    NcMonomial,
    _normal_forms,
    expand,
    is_admissible,
    standard_bracket,
)
from .linalg import rank
from .poly import Poly, Scalar, _parse_scalar, _to_fraction, from_letter_terms
from .rewrite import (
    RewriteSystem,
    _Frozen,
    _Record,
    enumerate_reduced_super_ls,
    is_gsb,
    lie_composition_len2,
    reduce,
)
from .words import (
    Alphabet,
    Word,
    _check_name,
    _lex_key,
    _super_ls_tuples,
    _words,
    deglex_key,
)

CoeffMap = Mapping[int, Scalar]


def _clean_coeffs(coeffs: CoeffMap, size: int) -> dict[int, Fraction]:
    """The nonzero coefficients as fractions, each target a rank of a basis of ``size``."""
    out = {}
    for v, c in dict(coeffs).items():
        if type(c) is not Fraction:
            c = _to_fraction(c)
        if c:
            _check_rank(v, size)
            out[v] = c
    return out


def _check_rank(r: int, size: int) -> None:
    if not 0 <= r < size:
        raise ValueError(f"rank {r} out of range for a basis of size {size}")


def _oriented(alpha: Mapping, parities: Sequence[int], x: int, y: int) -> Mapping:
    """Coefficients of [x, y] in the bracket table ``alpha``, a missing mirror derived by sign."""
    stored = alpha.get((x, y))
    if stored is not None:
        return stored
    mirror = alpha.get((y, x))
    if mirror is None:
        return {}
    # [x,y] = -(-1)^{|x||y|}[y,x]
    if parities[x] and parities[y]:
        return mirror
    return {v: -c for v, c in mirror.items()}


class StructureConstants(_Frozen):
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
            _check_rank(x, size)
            _check_rank(y, size)
            alpha[(x, y)] = types.MappingProxyType(_clean_coeffs(coeffs, size))
        beta: dict[int, Mapping[int, Fraction]] = {}
        for a, coeffs in dict(derivation).items():
            if not 0 <= a < subalgebra_size:
                raise ValueError(
                    f"derivation argument rank {a} is not a subalgebra symbol"
                )
            beta[a] = types.MappingProxyType(_clean_coeffs(coeffs, size))
        for name, value in (
            ("alphabet", alphabet),
            ("subalgebra_size", subalgebra_size),
            ("d_parity", d_parity),
            ("alpha", types.MappingProxyType(alpha)),
            ("beta", types.MappingProxyType(beta)),
            ("_report", None),
        ):
            object.__setattr__(self, name, value)

    def bracket_coeffs(self, x: int, y: int) -> Mapping[int, Fraction]:
        """Coefficients of [x, y], deriving the missing mirror by sign."""
        return _oriented(self.alpha, self.alphabet.parities, x, y)

    def derivation_coeffs(self, a: int) -> Mapping[int, Fraction]:
        return self.beta.get(a, {})


class Violation(_Record):
    """One failed identity, located by the symbols involved."""

    __slots__ = ("check", "indices", "detail")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "indices": list(self.indices),
            "detail": self.detail,
        }


class ValidationReport(_Record):
    """Every identity violated by a structure-constant table."""

    __slots__ = ("violations",)

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
) -> dict[int, Scalar]:
    """By target u, the sum of sign * inner[v] * outer[v] over (sign, inner, outer) terms.

    A target whose sum cancels is left out, so an identity that holds sums
    to equal dicts on its two sides.
    """
    out: dict[int, Scalar] = {}
    for sign, inner, outer in terms:
        for v, c in inner.items():
            c = c if sign > 0 else -c
            for u, e in outer[v].items():
                out[u] = out.get(u, 0) + c * e
    return out if all(out.values()) else {u: c for u, c in out.items() if c}


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

    Each check reports in order of its cases, then of target rank, so the
    report depends only on the table's value, not on the order its terms
    were given in.  The identities are summed on integers: each coefficient
    is scaled by the lcm of the table's denominators, and a ``Fraction`` is
    built only for the text of a violation.
    """
    if sc._report is None:
        object.__setattr__(sc, "_report", _check_identities(sc))
    return sc._report


def _check_identities(sc: StructureConstants) -> ValidationReport:
    violations: list[Violation] = []
    size = len(sc.alphabet)
    k = sc.subalgebra_size
    names, parities = sc.alphabet.names, sc.alphabet.parities
    # every coefficient c as the int c * D, D the lcm of the table's
    # denominators: a table entry is then on the scale D, and a bilinear
    # term, the product of two entries, on the scale D**2
    tables = (*sc.alpha.values(), *sc.beta.values())
    scale = lcm(*{c.denominator for coeffs in tables for c in coeffs.values()})

    def scaled(coeffs: Mapping[int, Fraction]) -> dict[int, int]:
        return {v: c.numerator * (scale // c.denominator) for v, c in coeffs.items()}

    alpha = {key: scaled(coeffs) for key, coeffs in sc.alpha.items()}
    # ad[x][v] = [x, v] and right[y][v] = [v, y], mirrors included
    ad = [[_oriented(alpha, parities, x, v) for v in range(size)] for x in range(size)]
    right = [[ad[v][y] for v in range(size)] for y in range(size)]
    d = [scaled(sc.derivation_coeffs(v)) for v in range(size)]

    def compare(check, case, lhs, rhs, factor, detail, den):
        """Report, by rank, every target u where lhs[u] != factor * rhs[u], both over ``den``.

        No value of ``lhs`` or ``rhs`` is zero, so the sides agree exactly
        when ``lhs`` equals ``factor * rhs`` as a dict: a case that holds,
        as every case of a valid table does, is passed on that test alone.
        """
        if lhs == (rhs if factor == 1 else {u: factor * c for u, c in rhs.items()}):
            return
        for u in sorted(lhs.keys() | rhs.keys()):
            lhs_u, rhs_u = lhs.get(u, 0), rhs.get(u, 0)
            if lhs_u != factor * rhs_u:
                indices = tuple(names[i] for i in (*case, u))
                text = detail.format(Fraction(lhs_u, den), Fraction(rhs_u, den))
                violations.append(Violation(check, indices, text))

    # anti-commutativity: an even diagonal vanishes, then the mirror pairs of x
    for x in range(size):
        if alpha.get((x, x)) and not parities[x]:
            detail = "an even symbol must bracket to zero with itself"
            violations.append(Violation("anticommutativity", (names[x], names[x]), detail))
        for y in range(x + 1, size):
            if (x, y) in alpha and (y, x) in alpha:
                sign = -_sign(parities[x], parities[y])
                required = {v: sign * c for v, c in alpha[(x, y)].items()}
                compare("anticommutativity", (y, x), alpha[(y, x)], required, 1,
                        "stored {}, anti-commutativity requires {}", scale)

    # the bilinear identities, one row each: (check, index cases, factor,
    # detail, sides), where sides(*case) gives lhs and rhs, each summed by
    # _accumulate from (sign, inner, outer) terms
    odd = [x for x in range(size) if parities[x]]
    every, sub = range(size), range(k)
    # the three rotations of a triple sum the same three terms, so each
    # orbit's residual is summed once, at its least rotation (x least, and
    # z = x only when y = x too), and a triple whose three brackets vanish
    # leaves none; only the triples of an orbit with a residual are cases
    residuals: dict[tuple[int, int, int], dict[int, int]] = {}
    for x in every:
        for y in range(x, size):
            for z in range(x if y == x else x + 1, size):
                if ad[y][z] or ad[z][x] or ad[x][y]:
                    residual = _accumulate([
                        (_sign(parities[x], parities[z]), ad[y][z], ad[x]),
                        (_sign(parities[y], parities[x]), ad[z][x], ad[y]),
                        (_sign(parities[z], parities[y]), ad[x][y], ad[z]),
                    ])
                    if residual:
                        residuals[(x, y, z)] = residual

    def orbit(x: int, y: int, z: int) -> tuple[int, int, int]:
        return min((x, y, z), (y, z, x), (z, x, y))

    triples = [c for c in product(every, repeat=3) if orbit(*c) in residuals] if residuals else []
    rows = (
        # super Jacobi on all ordered triples: the residual must vanish
        ("jacobi", triples, 1, "residual {}", lambda x, y, z: (residuals[orbit(x, y, z)], {})),
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
            compare(check, case, *sides(*case), factor, detail, scale * scale)

    # subalgebra closure: no coefficient of [a, b] lands outside the subalgebra
    for a in range(k):
        for b in range(a, k):
            outside = {v: c for v, c in ad[a][b].items() if v >= k}
            compare("subalgebra-closure", (a, b), outside, {}, 1,
                    "coefficient {} lands outside the subalgebra", scale)

    # parity coherence of stored tables: no coefficient hits the wrong parity
    for (x, y), coeffs in sorted(alpha.items()):
        wrong = 1 - (parities[x] + parities[y]) % 2
        compare("parity", (x, y), {v: c for v, c in coeffs.items() if parities[v] == wrong},
                {}, 1, f"bracket of parities {parities[x]},{parities[y]} cannot hit a "
                f"parity-{wrong} symbol", scale)
    for a, coeffs in enumerate(d[:k]):
        wrong = 1 - (parities[a] + sc.d_parity) % 2
        compare("parity", (a,), {v: c for v, c in coeffs.items() if parities[v] == wrong},
                {}, 1, f"derivation of parity {sc.d_parity} cannot map a "
                f"parity-{parities[a]} symbol to a parity-{wrong} one", scale)

    return ValidationReport(tuple(violations))


class HnnPresentation:
    """A validated-shape extension input: tables plus the appended stable letter.

    The stable letter is strictly greater than every basis symbol and has the
    parity of the derivation.  Its name must pass the rule every
    :class:`Alphabet` holds its names to, as the table's names already do,
    and must not be one of them.  At least one complement
    symbol is required; extending by a derivation of the whole algebra is
    rejected because the result degenerates to a (semi)direct product.

    Built with the presentation and kept on it: ``_leaves``, one leaf per
    letter, and ``_successors``, for each letter x the letters y, ascending,
    for which xy is not a leading word.  The leading words are xy for
    x > y, xx for odd x of the original basis, and t a for a in the
    subalgebra; :func:`build_relations` makes one relation for each pair
    left out of ``_successors``, so a word is reduced exactly when each
    pair of adjacent letters is allowed there.
    """

    __slots__ = ("constants", "alphabet", "t_rank", "_relations", "_leaves", "_successors")

    def __init__(self, constants: StructureConstants, t_name: str = "t"):
        if constants.subalgebra_size >= len(constants.alphabet):
            raise ValueError(
                "the subalgebra must be proper: at least one complement symbol"
            )
        try:
            _check_name(t_name)
        except ValueError as exc:
            raise ValueError(f"stable letter: {exc}") from None
        base = constants.alphabet
        if t_name in base.names:
            raise ValueError(
                f"stable letter name {t_name!r} collides with a generator"
            )
        self.constants = constants
        # the base names passed the check when the table's alphabet was built
        self.alphabet = Alphabet._of((*base.names, t_name), (*base.parities, constants.d_parity))
        t = self.t_rank = len(base)
        self._relations = None
        self._leaves = [NcMonomial.leaf(self.alphabet, r) for r in range(t + 1)]
        self._successors = [
            tuple(y for y in range(x, t + 1) if not (y == x and base.parities[x]))
            for x in range(t)
        ]
        self._successors.append(tuple(range(constants.subalgebra_size, t + 1)))

    def __repr__(self) -> str:
        return (
            f"HnnPresentation({self.alphabet!r}, "
            f"subalgebra_size={self.constants.subalgebra_size})"
        )


def _require_valid(pres: HnnPresentation) -> None:
    report = validate(pres.constants)
    if not report.passed:
        raise ValueError(f"structure constants fail validation\n{report}")


def build_relations(pres: HnnPresentation) -> RewriteSystem:
    """The defining relations as a rewrite system, one for each leading word xy.

    The leading words are the pairs that ``pres._successors`` does not allow:
    {xy : x > y} + {xx : x odd} + {t a : a in the subalgebra basis}, made with
    x, then y ascending, so in deglex order.  Each relation is [x, y] expanded
    minus its tail: the bracket coefficients of x and y, or for x = t the
    derivation image of y.  Odd squares are stored monic, i.e. halved.  Raises
    when validation fails.  Built once per presentation and kept on it.

    A relation's tail is built by :func:`~superlie.poly.from_letter_terms`;
    its numerators are the expansion's, which is over 1, times the tail's
    denominator, then the tail's negated.  The expansion's words have
    length 2 and the tail's length 1, so no word is met twice.
    """
    if pres._relations is not None:
        return pres._relations
    _require_valid(pres)
    sc, t, alphabet = pres.constants, pres.t_rank, pres.alphabet
    leaves = pres._leaves
    polys = []
    for x, allowed in enumerate(pres._successors):
        for y in range(t + 1):
            if y in allowed:
                continue
            coeffs = sc.derivation_coeffs(y) if x == t else sc.bracket_coeffs(x, y)
            tail = from_letter_terms(alphabet, {(v,): c for v, c in coeffs.items()})
            den = tail._den
            expansion = expand(NcMonomial.pair(leaves[x], leaves[y]))
            nums = {w: n * den for w, n in expansion._nums.items()}
            nums.update({w: -n for w, n in tail._nums.items()})
            polys.append(Poly._of(alphabet, den, nums))
    pres._relations = RewriteSystem.from_polys(alphabet, polys)
    return pres._relations


class LieCompositionCheck(_Record):
    """One length-3 superbracket composition, identified by its shape family."""

    __slots__ = ("family", "word", "normal_form", "passed")

    @property
    def description(self) -> str:
        return _FAMILIES[self.family]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "description": self.description,
            "word": str(self.word),
            "normal_form": str(self.normal_form),
            "passed": self.passed,
        }


class HnnGsbReport(_Record):
    """Associative closure report plus the superbracket composition families."""

    __slots__ = ("associative", "lie_checks")

    @property
    def passed(self) -> bool:
        return self.associative.passed and all(c.passed for c in self.lie_checks)

    def families_exercised(self) -> tuple[int, ...]:
        return tuple(sorted({c.family for c in self.lie_checks}))

    def to_dict(self) -> dict:
        associative = self.associative.to_dict()  # reads the closure verdict once
        return {
            "passed": associative["passed"] and all(c.passed for c in self.lie_checks),
            "associative": associative,
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
            LieCompositionCheck(family, word, normal_form, normal_form.is_zero())
        )
    checks.sort(key=lambda c: (c.family, deglex_key(c.word)))
    return HnnGsbReport(associative, tuple(checks))


# -- basis enumeration ----------------------------------------------------------


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
    letter by letter along ``pres._successors``; no other word is generated.
    Raises ``ValueError`` when the tables fail validation.  The tests hold
    the walk to a subword scan of every word (every table shape on up to
    three basis symbols, and the example presentations in `fixtures/`).
    """
    _require_valid(pres)
    # the walk steps along ranks of the alphabet
    return _words(pres.alphabet, _walks(pres._successors, (), max_len))


# -- the free complement ---------------------------------------------------------


def _one_t_words(pres: HnnPresentation, max_len: int) -> list[tuple[int, ...]]:
    """The reduced words t x1 .. xs with no other t, up to ``max_len``, in deglex order.

    The walk from t along ``pres._successors`` with t dropped as a successor:
    from t it meets only complement letters and t.
    """
    t = pres.t_rank
    return _walks([tuple(y for y in ys if y != t) for ys in pres._successors], (t,), max_len)


def free_generators_W(pres: HnnPresentation, max_len: int) -> list[NcMonomial]:
    """Left-combed generators [..[[t, x1], x2].., xs] of the free complement.

    One for every reduced word t x1 .. xs over the complement, that is with
    x1 <= .. <= xs and odd symbols at most once, of total length <= max_len,
    in deglex order of the underlying word.  The walk meets each word after
    its prefix, so each tree is its prefix's tree bracketed with one leaf.
    """
    leaves = pres._leaves
    trees: dict[tuple[int, ...], NcMonomial] = {}
    for w in _one_t_words(pres, max_len):
        trees[w] = NcMonomial.pair(trees[w[:-1]], leaves[w[-1]]) if len(w) > 1 else leaves[w[0]]
    return list(trees.values())


class _WbarView:
    """The generators W, as listed by :func:`free_generators_W`, as letters of an alphabet.

    Each letter is a left-combed generator, ranked by ``_lex_key`` of its
    word, under which a proper prefix sorts greater (so "t", a prefix of
    all, is the greatest letter), with its word parity.  Letter ``r`` is
    named ``w<r>``; no basis text reads these names.  A view lives for one
    basis build (:func:`_h_basis`).
    """

    def __init__(self, generators: Sequence[NcMonomial]):
        self.generators = sorted(generators, key=lambda m: _lex_key(m.word))
        self.letters = [m.word for m in self.generators]
        # generated names, distinct and each passing the name check
        self.alphabet = Alphabet._of(
            tuple([f"w{r}" for r in range(len(self.letters))]),
            tuple([w.parity for w in self.letters]),
        )


def enumerate_h_basis(pres: HnnPresentation, max_len: int) -> list[NcMonomial]:
    """Basis monomials of the extension up to ``max_len``, in deglex order.

    By the structure theorem the extension splits as H = A + L(W): the
    original algebra A plus the free Lie superalgebra on the left-combed
    generators W of :func:`free_generators_W`.  So the basis is the leaves
    of A, then for every super-LS word over W (the letters of a
    :class:`_WbarView`, weighted by length, from :func:`_super_ls_tuples`)
    its standard bracketing with each letter replaced by its generator's
    tree.  The bracketings share one ``standard_bracket`` memo seeded with
    the letters' trees, so each tree is built once, over the base alphabet,
    and equal subtrees are one object.  So the basis holds every generator
    of W as the same object :func:`free_generators_W` returns, in that
    function's order: they are the basis monomials whose word holds
    exactly one stable letter.  Nothing here reads the relations:
    check (iii) of :func:`verify_structure_theorem` compares the words, in
    order, with the reduced super-LS words at each degree.  Raises
    ``ValueError`` when the tables fail validation or ``max_len < 1``.

    The order is the generator's: A's leaves (length 1, ranks below ``t``),
    then the buckets by total length, each sorted as rank tuples.  If
    u < u' are the first differing letters of two sequences of one length,
    either they differ at a letter, and the words first differ there alike,
    or u' is a proper prefix of u, and u goes on with a complement letter,
    below ``t``, where the other goes on with a W word, which starts with ``t``.
    """
    _require_valid(pres)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return _h_basis(pres, free_generators_W(pres, max_len), max_len)


def _h_basis(pres: HnnPresentation, generators: list, max_len: int) -> list[NcMonomial]:
    """The basis of :func:`enumerate_h_basis` from ``generators``, W up to ``max_len``."""
    view = _WbarView(generators)
    # the complement leaves are also the right children of their generators [t, x]
    out = pres._leaves[: pres.t_rank]
    # seeded with each letter's tree, the memo gives every bracketing over the base
    memo = {(r,): g for r, g in enumerate(view.generators)}
    buckets = _super_ls_tuples(
        view.alphabet.parities, max_len, weights=[len(w) for w in view.letters]
    )
    for word in _words(view.alphabet, chain.from_iterable(buckets)):
        out.append(standard_bracket(word, memo))
    return out


# -- the structure theorem, degree by degree -------------------------------------


class StructureLengthCheck(_Record):
    """The four degree-n checks of the direct-sum decomposition."""

    __slots__ = (
        "length", "products", "pattern_words", "bijection_ok", "ls_transfer_ok",
        "admissibility_ok", "h_basis_count", "independent_rank", "rank_ok",
    )

    @property
    def passed(self) -> bool:
        return (
            self.bijection_ok
            and self.ls_transfer_ok
            and self.admissibility_ok
            and self.rank_ok
        )

    def to_dict(self) -> dict:
        # the fields in declaration order, then the verdict
        return dict(zip(self.__slots__, self._values()), passed=self.passed)


class StructureReport(_Record):
    """Per-degree verification that the extension splits off a free part."""

    __slots__ = ("max_len", "rows")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def h_basis_counts(self) -> tuple[int, ...]:
        """The number of basis monomials of each degree; the rows count them cumulatively."""
        return tuple(b - a for a, b in pairwise([0, *(r.h_basis_count for r in self.rows)]))

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
          independent and count-match the basis enumeration; on a passing
          (iii) this is read off the leading words.

    (ii) is not independent: it is (iii)'s word equality restricted to the
    words that begin with t, kept as its own entry because it is the part
    the generators W are responsible for.  A failed (ii) fails (iii).

    (i) lists neither side.  It counts the products: P(0) = 1 and P(n) is
    the sum of P(n - |w|) over the w in W with |w| <= n.  It counts the
    pattern words of each length by their last letter, stepping along
    ``pres._successors`` (a transfer count, O(n |A|^2) work).  Cutting a
    pattern word before each t leaves one-t pattern words, t followed by
    complement letters (:func:`_one_t_words`), and each one-t pattern word
    s of length m <= n is a piece of the pattern word s t^(n - m), since t
    may follow t and every complement letter.  So every pattern word of
    length n splits into words of W exactly when every one-t pattern word
    of length <= n is in W, and (i) looks up those, |W| of them when W is
    right.  Each split is a product whose concatenation is that word, so
    when also P(n) equals the number of pattern words, concatenation is
    onto them and, by counting, one-to-one.  As every word of W is t
    followed by complement letters only, this holds exactly when
    concatenation is a bijection.

    The basis is the one :func:`enumerate_h_basis` returns, from the one
    list of W that (i) reads.  Its monomials that begin with t are the
    standard bracketings of the super-LS words over W with each letter's
    generator tree at its leaf, so each spells the concatenation of its
    letters' words, and (ii) compares these concatenations with the reduced
    super-LS words that begin with t: given (i), a product is super-LS over
    W iff its concatenation is super-LS over the base.
    The reference words of (iii) come from the relations, by
    :func:`enumerate_reduced_super_ls`; with (iv), a pass shows that the
    monomials from W are independent and, their number being the number of
    reduced super-LS words, span.  Nothing is expanded freely: (iii) reads
    each node's stored leading term by :func:`is_admissible`, whose one
    :func:`is_super_ls` scan per tree is the only super-LS test of the
    run, as the trees' own factor stacks decide their words.  When (iii)
    passes at every degree, (iv) follows from the leading words and the
    closure check: each monomial leads with its own reduced word, a
    reduction never rewrites a reduced word, so each normal form leads with
    that word too, and forms with distinct leading words are independent.
    Then (iv) ranks those stored leading terms, one single-term vector per
    monomial.  Only when (iii) fails at some degree does (iv) rank the int
    multiples of the normal forms that :func:`_normal_forms` memoises
    bottom-up, independent exactly when the forms are.  These are the
    normal forms of the free expansions because the relations form a
    Groebner-Shirshov basis: :func:`build_relations` validates the tables,
    and :func:`verify_hnn_gsb`, run by ``hnn-verify`` on the same
    presentation, checks the closure.
    Either way the certificate is the one the normal forms give.  In deglex
    order the monomials of degree <= n are a prefix of the basis, so one
    :func:`rank` call gives every degree's rank: the certificate entries
    below the prefix length.
    The tests hold this against free expansion, :func:`reduce`, the
    per-degree recomputation, a list of every product and a split of every
    pattern word.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    system = build_relations(pres)
    generators = free_generators_W(pres, max_len)
    basis = _h_basis(pres, generators, max_len)
    t = pres.t_rank
    words = [m.word.letters for m in generators]
    sizes = [len(w) for w in words]
    letters = set(words)
    # the first length at which a one-t pattern word is not a word of W
    missing = next((len(w) for w in _one_t_words(pres, max_len) if w not in letters), max_len + 1)
    succ = pres._successors
    products, pattern = [1], [0]
    ends = {t: 1}  # the pattern words of length n, counted by last letter
    for n in range(1, max_len + 1):
        products.append(sum(products[n - k] for k in sizes if k <= n))
        pattern.append(sum(ends.values()))
        step: dict[int, int] = {}
        for x, count in ends.items():
            for y in succ[x]:
                step[y] = step.get(y, 0) + count
        ends = step
    by_degree: list[list[NcMonomial]] = [[] for _ in range(max_len)]
    for m in basis:
        by_degree[len(m) - 1].append(m)
    reduced: list[list[tuple[int, ...]]] = [[] for _ in range(max_len)]
    for w in enumerate_reduced_super_ls(system, max_len):
        reduced[len(w) - 1].append(w.letters)
    # (ii) and (iii) at every degree first: their verdicts choose (iv)'s vectors
    word_checks: list[tuple[bool, bool]] = []
    for monomials, expected in zip(by_degree, reduced):
        words = [m.word.letters for m in monomials]
        # (ii) is (iii)'s word equality read on the words that begin with t
        ls_transfer_ok = {w for w in words if w[0] == t} == {w for w in expected if w[0] == t}
        admissibility_ok = words == expected and all(is_admissible(m) for m in monomials)
        word_checks.append((ls_transfer_ok, admissibility_ok))
    if all(ok for _, ok in word_checks):
        # each stored leading term is its monomial's own reduced word, no two alike
        vectors = [dict((m._leading,)) for m in basis]
    else:
        vectors = _normal_forms(basis, system, {})
    _, certificate = rank(vectors)
    h_basis_count = 0
    rows: list[StructureLengthCheck] = []
    for n, (ls_transfer_ok, admissibility_ok) in enumerate(word_checks, 1):
        bijection_ok = products[n] == pattern[n] and n < missing
        h_basis_count += len(by_degree[n - 1])
        independent_rank = bisect_left(certificate, h_basis_count)
        rank_ok = independent_rank == h_basis_count

        rows.append(StructureLengthCheck(
            n, products[n], pattern[n], bijection_ok, ls_transfer_ok, admissibility_ok,
            h_basis_count, independent_rank, rank_ok,
        ))

    return StructureReport(max_len, tuple(rows))


# -- presentation files -----------------------------------------------------------
#
# A location in a file is a path of keys and list indices, as
# ("brackets", 2, "value", 0).  It is written out, as "brackets[2].value[0]",
# only when an error names it, so reading a well-formed file formats none.

def _at(path: tuple) -> str:
    """A location path as errors write it: ``brackets[2].value[0].coeff``."""
    return "".join(f"[{part}]" if type(part) is int else f".{part}" for part in path)[1:]


def _parse_coeff(value, where: tuple) -> Scalar:
    """The coefficient ``value`` of the term at ``where``, an int or a ``Fraction``."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        message = "coefficients must be exact (string or integer)"
    else:
        try:
            return _parse_scalar(value)
        except (ValueError, ZeroDivisionError) as exc:
            message = str(exc)
    raise ValueError(f"{_at((*where, 'coeff'))}: {message}")


def parse_entries(data: Mapping, key: str, where: tuple = (), kind: type = dict) -> list:
    """The list under ``data[key]`` (missing: empty), ``data`` being at ``where``.

    Every entry must be a ``kind``: an object, or a string for rules.  Errors
    give the location, as in ``brackets[2].value: expected a list``.
    """
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"{_at((*where, key))}: expected a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, kind):
            noun = "a string" if kind is str else "an object"
            raise ValueError(f"{_at((*where, key, i))}: expected {noun}")
    return entries


def _generator(entry: Mapping, field: str, where: tuple, by_name: Mapping) -> int:
    """The rank of the known generator that ``entry[field]`` names, ``entry`` being at ``where``."""
    name = entry.get(field)
    if not isinstance(name, str) or name not in by_name:
        raise ValueError(f"{_at((*where, field))}: unknown generator {name!r}")
    return by_name[name]


def _parse_value_list(entry: Mapping, by_name: Mapping, where: tuple) -> dict[int, Scalar]:
    out: dict[int, Scalar] = {}
    for j, term in enumerate(parse_entries(entry, "value", where)):
        spot = (*where, "value", j)
        r = _generator(term, "basis", spot, by_name)
        if "coeff" not in term:
            raise ValueError(f"{_at(spot)}: missing coeff")
        c = _parse_coeff(term["coeff"], spot)
        out[r] = out[r] + c if r in out else c
    return out


def parse_generators(gens) -> Alphabet:
    """The alphabet of a JSON ``generators`` list of {name, parity} objects.

    Shared by presentation and rules files.  Names come in increasing order;
    a parity must be 0 or 1.  Errors give the location, as in
    ``generators[2].parity: must be 0 or 1``.
    """
    if not isinstance(gens, list) or not gens:
        raise ValueError("generators: expected a non-empty list")
    names, parities = [], []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "parity" not in g:
            raise ValueError(f"generators[{i}]: expected {{name, parity}}")
        name, parity = g["name"], g["parity"]
        if name in names:
            raise ValueError(f"generators[{i}].name: duplicate {name!r}")
        if type(parity) is not int or parity not in (0, 1):
            raise ValueError(f"generators[{i}].parity: must be 0 or 1")
        names.append(name)
        parities.append(parity)
    try:
        return Alphabet(names, parities)
    except ValueError as exc:
        raise ValueError(f"generators: {exc}") from None


def _read_json(path: Union[str, Path]) -> dict:
    """The JSON object in a file; every failure is a ``ValueError`` naming the path."""
    try:
        with open(path) as file:
            text = file.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a decode error, an integer over the digit limit, or nesting too deep
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
    by_name = alphabet._by_name

    k = data.get("subalgebra_size")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= len(alphabet):
        raise ValueError(f"subalgebra_size: expected an integer in 0..{len(alphabet)}")
    d_parity = data.get("d_parity")
    if type(d_parity) is not int or d_parity not in (0, 1):
        raise ValueError("d_parity: must be 0 or 1")

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, entry in enumerate(parse_entries(data, "brackets")):
        where = ("brackets", i)
        key = (
            _generator(entry, "left", where, by_name), _generator(entry, "right", where, by_name)
        )
        if key in brackets:
            raise ValueError(
                f"{_at(where)}: duplicate bracket for ({entry['left']}, {entry['right']})"
            )
        brackets[key] = _parse_value_list(entry, by_name, where)

    derivation: dict[int, dict[int, Scalar]] = {}
    for i, entry in enumerate(parse_entries(data, "derivation")):
        where = ("derivation", i)
        a, arg = _generator(entry, "arg", where, by_name), entry["arg"]
        if a >= k:
            raise ValueError(
                f"{_at(where)}.arg: {arg!r} is not in the subalgebra (first {k} generators)"
            )
        if a in derivation:
            raise ValueError(f"{_at(where)}: duplicate derivation entry for {arg!r}")
        derivation[a] = _parse_value_list(entry, by_name, where)

    constants = StructureConstants(alphabet, k, d_parity, brackets, derivation)
    return HnnPresentation(constants, t_name=data.get("stable_letter", "t"))

