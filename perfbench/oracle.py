"""Dimension oracle for stable-letter extensions, independent of superlie.

A series is a list indexed by degree of (even, odd) integer pairs, read as
coefficients of z^n in Z[eps]/(eps^2 - 1).  By the super generalized Witt
formula (Kang-Kim, J. Algebra 183, 1996), the free Lie superalgebra L(W) on
a graded set W has dimensions l_n = (l_n0, l_n1) solving

    1 / (1 - W(z, eps)) = prod_n (1 - z^n)^(-l_n0) (1 + eps z^n)^(l_n1),

the left side being the free associative algebra T(W) and the right side
the PBW series of U(L(W)) (Bokut-Kang-Lee-Malcolmson, J. Algebra 217, 1999).
The structure theorem H = A + L(W) then gives every count the benchmark
checks.  Exact integers only; nothing here imports superlie.
"""

from __future__ import annotations


def _pbw_factor(series: list, n: int, even: int, odd: int) -> None:
    """Multiply ``series`` in place by (1 - z^n)^(-even) (1 + eps z^n)^odd."""
    top = len(series) - 1
    for _ in range(even):
        for k in range(n, top + 1):
            series[k] = (series[k][0] + series[k - n][0], series[k][1] + series[k - n][1])
    for _ in range(odd):
        for k in range(top, n - 1, -1):
            series[k] = (series[k][0] + series[k - n][1], series[k][1] + series[k - n][0])


def free_lie_dims(w: list, top: int) -> list:
    """(even, odd) dimensions of L(W) in degrees 0..top; ``w[n]`` counts W in degree n."""
    w = list(w) + [(0, 0)] * (top + 1 - len(w))
    tensor = [(1, 0)] + [(0, 0)] * top
    for n in range(1, top + 1):
        e = sum(w[k][0] * tensor[n - k][0] + w[k][1] * tensor[n - k][1] for k in range(1, n + 1))
        o = sum(w[k][0] * tensor[n - k][1] + w[k][1] * tensor[n - k][0] for k in range(1, n + 1))
        tensor[n] = (e, o)
    pbw = [(1, 0)] + [(0, 0)] * top
    dims = [(0, 0)] * (top + 1)
    for n in range(1, top + 1):
        dims[n] = (tensor[n][0] - pbw[n][0], tensor[n][1] - pbw[n][1])
        if min(dims[n]) < 0:
            raise ArithmeticError(f"negative dimension {dims[n]} in degree {n}")
        _pbw_factor(pbw, n, *dims[n])
    return dims


def pbw_counts(dims: list, top: int) -> list:
    """Total basis sizes of U(L) in degrees 0..top for a Lie superalgebra with ``dims``."""
    pbw = [(1, 0)] + [(0, 0)] * top
    for n in range(1, min(top, len(dims) - 1) + 1):
        _pbw_factor(pbw, n, *dims[n])
    return [e + o for e, o in pbw]


def ls_word_counts(parities: list, top: int) -> list:
    """Super-LS words per length 1..top over letters with these parities."""
    odd = sum(parities)
    dims = free_lie_dims([(0, 0), (len(parities) - odd, odd)], top)
    return [e + o for e, o in dims[1:]]


def w_series(complement_parities: list, d_parity: int, top: int) -> list:
    """Left-combed generators t x1..xs: x weakly increasing, odd x at most once."""
    blocks = [(1, 0)] + [(0, 0)] * top
    for p in complement_parities:
        _pbw_factor(blocks, 1, *((0, 1) if p else (1, 0)))
    w = [(0, 0)] * (top + 1)
    for n in range(1, top + 1):
        e, o = blocks[n - 1]
        w[n] = (o, e) if d_parity else (e, o)
    return w


def extension_counts(parities: list, subalgebra_size: int, d_parity: int, top: int) -> dict:
    """Per-degree counts (index 0 is degree 1) of the bases hnn-basis prints."""
    w = w_series(parities[subalgebra_size:], d_parity, top)
    dims = free_lie_dims(w, top)
    odd_a = sum(parities)
    h = [(0, 0)] + [dims[n] for n in range(1, top + 1)]
    h[1] = (h[1][0] + len(parities) - odd_a, h[1][1] + odd_a)
    return {
        "algebra": [e + o for e, o in h[1:]],
        "enveloping": pbw_counts(h, top),
        "generators": [e + o for e, o in w[1:]],
    }
