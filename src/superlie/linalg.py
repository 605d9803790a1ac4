"""Exact sparse linear algebra on word-indexed rational vectors.

A vector is a sparse map from letter tuples, the keys of a Poly's terms, to
nonzero int or ``Fraction`` values, such as a Poly's integer numerators or
check (iv)'s normal forms.  Rank is computed by straightforward rational
Gaussian elimination over a dictionary of pivot columns, each pivot kept as
given; exactness, not asymptotics, is the point.
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

    No input is written.  A pivot is kept as it stands, whatever its leading
    coefficient: a vector that is a pivot as given is the caller's dict,
    read but never written, and a vector is copied just before its first
    elimination step.  A step subtracts ``Fraction(r, p)`` times the pivot,
    r and p the two leading coefficients, so vectors that lead with distinct
    words, as a passing check (iv)'s do, take no step and run no
    ``fractions`` code.  Scaling a vector changes no certificate.
    """
    pivots: dict[tuple[int, ...], LetterTerms] = {}
    certificate: list[int] = []
    for index, vector in enumerate(vectors):
        residue = vector
        while residue:
            _, word = max(zip(map(len, residue), residue))  # the deglex leader
            pivot = pivots.get(word)
            if pivot is None:
                pivots[word] = residue
                certificate.append(index)
                break
            if residue is vector:
                residue = dict(vector)
            coeff = Fraction(residue[word], pivot[word])
            for w, c in pivot.items():
                rest = residue.get(w, 0) - coeff * c
                if rest:
                    residue[w] = rest
                else:
                    del residue[w]
    return len(certificate), certificate
