"""Exact sparse linear algebra on word-indexed rational vectors.

A vector is simply a :class:`~superlie.poly.Poly` viewed as a sparse map
from words to rationals.  Rank is computed by straightforward rational
Gaussian elimination over a dictionary of pivot columns; exactness, not
asymptotics, is the point.
"""

from __future__ import annotations

from typing import Sequence

from .poly import Poly
from .words import Word, is_lyndon_shirshov, is_super_ls


def rank(vectors: Sequence[Poly]) -> tuple[int, list[int]]:
    """Exact rank plus a certificate: indices of an independent subset.

    The certificate vectors are linearly independent and span the same space
    as the input; its length equals the reported rank.  Vectors are taken in
    order, so the certificate entries below k are exactly the certificate of
    ``vectors[:k]``, and their number is the rank of that prefix.
    """
    alphabets = {v.alphabet for v in vectors}
    if len(alphabets) > 1:
        raise ValueError("vectors over different alphabets")
    pivots: dict[Word, Poly] = {}
    certificate: list[int] = []
    for index, vector in enumerate(vectors):
        residue = vector
        while not residue.is_zero():
            word, coeff = residue.leading()
            pivot = pivots.get(word)
            if pivot is None:
                break
            residue = residue - coeff * pivot
        if not residue.is_zero():
            pivots[residue.leading()[0]] = residue.make_monic()
            certificate.append(index)
    return len(certificate), certificate


def is_unitriangular(pairs: Sequence[tuple[Word, Poly]]) -> bool:
    """Each vector leads with its claimed word at the standard coefficient.

    The claimed word must be super-LS; the required leading coefficient is 1
    for an LS word and 2 for an odd square.  Because the leading word is the
    deglex maximum, all remaining support is automatically strictly smaller.
    """
    for claimed, vector in pairs:
        if not claimed.letters or not is_super_ls(claimed):
            return False
        if vector.is_zero():
            return False
        lead_word, lead_coeff = vector.leading()
        if lead_word != claimed:
            return False
        if lead_coeff != (1 if is_lyndon_shirshov(claimed) else 2):
            return False
    return True
