"""Shared helpers for the test suite."""

from fractions import Fraction
from random import Random

from superlie import Poly, Word


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


def reference_superbracket(p: Poly, q: Poly) -> Poly:
    """[p, q] summed over the even and odd parts, with Poly products.

    The oracle for ``superbracket`` and its letter-tuple kernel.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("polynomials over different alphabets")
    out = Poly.zero(p.alphabet)
    for hp, pp in ((p.even_part(), 0), (p.odd_part(), 1)):
        if hp.is_zero():
            continue
        for hq, pq in ((q.even_part(), 0), (q.odd_part(), 1)):
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
