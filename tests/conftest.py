"""Shared helpers for the test suite."""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

from superlie import NcMonomial, Poly, Word, load_presentation

# The example presentations, read from ``fixtures/<name>.json``:
# EX1: even subalgebra {a} inside an abelian even 2-dimensional algebra,
#      derivation a -> x, even stable letter.  The plain pair and
#      stable-letter relations, with no odd symbols at all.
# EX2: even subalgebra {x} with an odd complement symbol a squaring to x,
#      derivation x -> a, odd stable letter.  The odd-square rules on a
#      complement symbol (composition families 3 and 4).
# EX3: odd subalgebra {a} with [a, a] = 0, derivation a -> x, odd stable
#      letter.  The odd-square rule inside the subalgebra (family 5) and
#      the self-bracket [t, t] basis monomial.
# EX4: non-abelian subalgebra {a, b} with [a, b] = a, derivation a -> a,
#      b -> x.  Families 1 and 2 (triple overlap, stable/pair).
# sl2: sl2 with d = ad f restricted to the Borel subalgebra {h, e}.
# osp: osp(1|2) with the odd derivation d = ad v on {h, e, u}; the only
#      one with an odd subalgebra symbol, an odd complement symbol and all
#      five composition families.
# ab5: five even letters, abelian, subalgebra {a, b}, derivation a -> x.
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL = {
    name: json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("ex1", "ex2", "ex3", "ex4", "sl2", "osp", "ab5")
}
EX1, EX2, EX3, EX4 = ALL["ex1"], ALL["ex2"], ALL["ex3"], ALL["ex4"]


def _loader(name):
    """A function named ``name`` that loads that presentation afresh."""

    def load():
        return load_presentation(ALL[name])

    load.__name__ = load.__qualname__ = name
    return load


ex1, ex2, ex3, ex4, sl2, osp, ab5 = map(_loader, ALL)


# -- independent oracle: plain tuple rotations, no library calls ---------------


def oracle_is_ls(letters):
    return all(letters > letters[k:] + letters[:k] for k in range(1, len(letters)))


def oracle_is_super_ls(letters, parities):
    if oracle_is_ls(letters):
        return True
    n = len(letters)
    if n % 2:
        return False
    u = letters[: n // 2]
    return (
        u == letters[n // 2 :]
        and sum(parities[c] for c in u) % 2 == 1
        and oracle_is_ls(u)
    )


def oracle_standard_coefficient(letters, parities):
    """The standard bracketing's leading coefficient: 1 for an LS word, 2 for
    an odd square, None for any other word, the empty one included."""
    if not letters or not oracle_is_super_ls(letters, parities):
        return None
    return 1 if oracle_is_ls(letters) else 2


def letter_terms(p: Poly) -> dict:
    """p as a dict from letter tuples (symbol ranks) to ``Fraction`` coefficients."""
    return {w: Fraction(n, p._den) for w, n in p._nums.items()}


def random_word(rng: Random, alphabet, max_len=4, min_len=0) -> Word:
    n = rng.randint(min_len, max_len)
    return Word(alphabet, tuple(rng.randrange(len(alphabet)) for _ in range(n)))


def random_poly(rng: Random, alphabet, max_terms=4, max_len=4) -> Poly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        terms.append((random_word(rng, alphabet, max_len), coeff))
    return Poly(alphabet, terms)


def random_homogeneous_poly(rng: Random, alphabet, parity, max_terms=3, max_len=4) -> Poly:
    """A nonzero polynomial all of whose words have the requested parity."""
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            for _ in range(200):
                w = random_word(rng, alphabet, max_len)
                if w.parity == parity:
                    break
            else:
                raise RuntimeError("alphabet cannot produce this parity")
            terms.append((w, Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        p = Poly(alphabet, terms)
        if not p.is_zero():
            return p


def even_part(p: Poly) -> Poly:
    return Poly(p.alphabet, [(w, c) for w, c in p.terms() if w.parity == 0])


def odd_part(p: Poly) -> Poly:
    return Poly(p.alphabet, [(w, c) for w, c in p.terms() if w.parity == 1])


def left_comb(alphabet, head: int, tail) -> NcMonomial:
    """The tree [...[[head, x1], x2], ..., xs] over the ranks head, *tail."""
    m = NcMonomial.leaf(alphabet, head)
    for r in tail:
        m = NcMonomial.pair(m, NcMonomial.leaf(alphabet, r))
    return m


def reference_superbracket(p: Poly, q: Poly) -> Poly:
    """[p, q] summed over the even and odd parts, with Poly products.

    The oracle for ``superbracket`` and its letter-tuple kernel.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("polynomials over different alphabets")
    out = Poly.zero(p.alphabet)
    for hp, pp in ((even_part(p), 0), (odd_part(p), 1)):
        if hp.is_zero():
            continue
        for hq, pq in ((even_part(q), 0), (odd_part(q), 1)):
            if hq.is_zero():
                continue
            sign = -1 if (pp and pq) else 1
            out = out + (hp * hq) - sign * (hq * hp)
    return out


def reference_expand(m) -> Poly:
    """A bracketing expanded node by node with ``reference_superbracket``."""
    if m.is_leaf:
        return Poly.monomial(m.word)
    return reference_superbracket(reference_expand(m.left), reference_expand(m.right))
