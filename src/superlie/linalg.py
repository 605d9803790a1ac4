"""Exact sparse linear algebra on word-indexed rational vectors.

A vector is a :class:`~superlie.poly.Poly` viewed as a sparse map from
words to rationals, or the same map as a letter-tuple dict.  Rank is
computed by straightforward rational Gaussian elimination over a dictionary
of pivot columns; exactness, not asymptotics, is the point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .poly import LetterTerms, Poly, letter_terms


def rank(vectors: Sequence[Union[Poly, LetterTerms]]) -> tuple[int, list[int]]:
    """Exact rank plus a certificate: indices of an independent subset.

    Each vector is a Poly or a dict from letter tuples to nonzero
    coefficients; a Poly is converted to one once.  The certificate vectors
    are linearly independent and span the same space as the input; its
    length equals the reported rank.  Vectors are taken in order, so the
    certificate entries below k are exactly the certificate of
    ``vectors[:k]``, and their number is the rank of that prefix.
    """
    alphabets = {v.alphabet for v in vectors if isinstance(v, Poly)}
    if len(alphabets) > 1:
        raise ValueError("vectors over different alphabets")
    pivots: dict[tuple[int, ...], LetterTerms] = {}
    certificate: list[int] = []
    for index, vector in enumerate(vectors):
        residue = letter_terms(vector) if isinstance(vector, Poly) else dict(vector)
        while residue:
            _, word = max(zip(map(len, residue), residue))  # the deglex leader
            pivot = pivots.get(word)
            if pivot is None:
                lead = residue[word]
                if lead != 1:
                    residue = {w: Fraction(c) / lead for w, c in residue.items()}
                pivots[word] = residue
                certificate.append(index)
                break
            coeff = residue[word]
            for w, c in pivot.items():
                rest = residue.get(w, 0) - coeff * c
                if rest:
                    residue[w] = rest
                else:
                    del residue[w]
    return len(certificate), certificate

