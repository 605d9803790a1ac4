"""Exact sparse linear algebra on word-indexed rational vectors.

A vector is a sparse map from letter tuples, the keys of a Poly's terms, to
rationals, as :func:`~superlie.poly.letter_terms` gives it.  Rank is computed by
straightforward rational Gaussian elimination over a dictionary of pivot
columns; exactness, not asymptotics, is the point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import LetterTerms


def rank(vectors: Sequence[LetterTerms]) -> tuple[int, list[int]]:
    """Exact rank plus a certificate: indices of an independent subset.

    Each vector is a dict from letter tuples to nonzero coefficients.  The
    certificate vectors are linearly independent and span the same space as
    the input; its length equals the reported rank.  Vectors are taken in
    order, so the certificate entries below k are exactly the certificate of
    ``vectors[:k]``, and their number is the rank of that prefix.

    No input is written.  A vector that is a pivot as given, leading with
    coefficient 1 before any elimination, is kept as the caller's dict, read
    but never written; a vector is copied just before its first elimination
    step, and one scaled to coefficient 1 is a new dict.
    """
    pivots: dict[tuple[int, ...], LetterTerms] = {}
    certificate: list[int] = []
    for index, vector in enumerate(vectors):
        residue = vector
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
            if residue is vector:
                residue = dict(vector)
            coeff = residue[word]
            for w, c in pivot.items():
                rest = residue.get(w, 0) - coeff * c
                if rest:
                    residue[w] = rest
                else:
                    del residue[w]
    return len(certificate), certificate
