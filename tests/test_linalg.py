"""Exact rank and triangularity checks."""

from fractions import Fraction
from random import Random

from superlie import (
    Alphabet,
    Poly,
    enumerate_super_ls,
    expand,
    parse_poly,
    rank,
    standard_bracket,
)
from superlie.words import _standard_coefficient
from conftest import letter_terms, random_poly

AB = Alphabet.from_names(["a", "b"])


def is_unitriangular(pairs):
    """Each vector leads with its claimed word at the standard coefficient.

    The oracle for ``is_admissible`` and the basis tests: the claimed word
    must be super-LS, and the required leading coefficient is 1 for an LS
    word and 2 for an odd square.  The leading word being the deglex
    maximum, all remaining support is strictly smaller.
    """
    for claimed, vector in pairs:
        if not claimed.letters:
            return False
        coeff = _standard_coefficient(claimed)
        if coeff is None or vector.is_zero() or vector.leading() != (claimed, coeff):
            return False
    return True


def poly_rank(polys):
    """``rank`` of Poly vectors, each given to it as its letter-tuple dict."""
    return rank([letter_terms(p) for p in polys])


def test_rank_of_nothing():
    assert rank([]) == (0, [])


def test_rank_collinear():
    p = parse_poly(AB, "ab - 2*b")
    r, certificate = poly_rank([p, 2 * p])
    assert r == 1
    assert certificate == [0]


def test_rank_standard_bracket_expansions_length3():
    layer = [w for w in enumerate_super_ls(AB, 3) if len(w) == 3]
    vectors = [expand(standard_bracket(w)) for w in layer]
    r, _ = poly_rank(vectors)
    assert r == 2 == len(layer)


def test_rank_ignores_zero_vectors():
    p = parse_poly(AB, "a + b")
    r, certificate = poly_rank([Poly.zero(AB), p, p - p])
    assert (r, certificate) == (1, [1])


def test_rank_invariance_under_permutation_and_scaling():
    rng = Random(51)
    for _ in range(20):
        vectors = [random_poly(rng, AB, max_len=3) for _ in range(6)]
        r, _ = poly_rank(vectors)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        scaled = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) * v
                  for v in shuffled]
        assert poly_rank(scaled)[0] == r
        assert poly_rank(list(reversed(vectors)))[0] == r


def test_certificate_subset_has_full_rank():
    rng = Random(53)
    for _ in range(20):
        vectors = [random_poly(rng, AB, max_len=3) for _ in range(7)]
        r, certificate = poly_rank(vectors)
        assert len(certificate) == r
        assert poly_rank([vectors[i] for i in certificate])[0] == r


def test_certificate_entries_below_k_are_the_certificate_of_the_first_k():
    rng = Random(57)
    for _ in range(20):
        vectors = [random_poly(rng, AB, max_len=3) for _ in range(5)]
        for _ in range(3):  # dependent vectors: combinations and zero
            a, b = rng.sample(vectors, 2)
            vectors.append(rng.randint(-3, 3) * a + rng.randint(1, 3) * b)
        vectors.append(Poly.zero(AB))
        rng.shuffle(vectors)
        _, certificate = poly_rank(vectors)
        for k in range(len(vectors) + 1):
            below = [i for i in certificate if i < k]
            assert poly_rank(vectors[:k]) == (len(below), below)


def reference_rank(vectors):
    """Gaussian elimination in Poly arithmetic: the oracle for ``rank``."""
    pivots, certificate = {}, []
    for index, residue in enumerate(vectors):
        while not residue.is_zero():
            word, coeff = residue.leading()
            if word not in pivots:
                pivots[word] = residue.make_monic()
                certificate.append(index)
                break
            residue = residue - coeff * pivots[word]
    return len(certificate), certificate


def rank_cases():
    """The vector lists of the tests above, their random ones freshly drawn."""
    p, q = parse_poly(AB, "ab - 2*b"), parse_poly(AB, "a + b")
    yield [p, 2 * p]
    yield [expand(standard_bracket(w)) for w in enumerate_super_ls(AB, 3) if len(w) == 3]
    yield [Poly.zero(AB), q, q - q]
    rng = Random(59)
    for count in range(1, 9):
        for _ in range(10):
            vectors = [random_poly(rng, AB, max_len=3) for _ in range(count)]
            a, b = rng.choice(vectors), rng.choice(vectors)
            yield vectors + [rng.randint(-3, 3) * a + Fraction(1, 3) * b]


def test_rank_on_letter_dicts_matches_rank_on_polys():
    for vectors in rank_cases():
        assert poly_rank(vectors) == reference_rank(vectors)


def copying_rank(vectors):
    """``rank`` as it ran while it copied every vector first: the oracle for the copy on write."""
    pivots, certificate = {}, []
    for index, vector in enumerate(vectors):
        residue = dict(vector)
        while residue:
            _, word = max(zip(map(len, residue), residue))
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


def test_rank_writes_no_input_and_matches_the_copying_loop():
    rng = Random(61)
    for _ in range(200):
        polys = [random_poly(rng, AB, max_len=3) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):  # dependent vectors
            a, b = rng.choice(polys), rng.choice(polys)
            polys.append(rng.randint(-3, 3) * a + Fraction(rng.randint(1, 3), 2) * b)
        vectors = [letter_terms(p) for p in polys]
        vectors.append(vectors[rng.randrange(len(vectors))])  # one dict object twice
        rng.shuffle(vectors)
        before = [dict(v) for v in vectors]
        assert rank(vectors) == copying_rank(vectors)
        assert vectors == before
    # vectors leading with 3 and with 1 are both kept as given, and both are
    # eliminated from without being written
    p = {(1, 0): Fraction(3), (0,): Fraction(1)}
    q = {(1, 1): 1, (1, 0): Fraction(1, 2)}
    vectors = [p, q, p, q, {(1, 1): 2, (1, 0): 1, (0,): 5}]
    before = [dict(v) for v in vectors]
    assert rank(vectors) == copying_rank(vectors) == (3, [0, 1, 4])
    assert vectors == before


def test_rank_of_dense_int_vectors_keeps_its_entries_small():
    # 40 dense vectors over the 64 words of length 6: eliminating by
    # rational multiples of the pivots takes well under a second, and
    # matches the loop that scaled each pivot to 1.  Elimination without
    # division (residue * lead - coeff * pivot) and no content reduction
    # doubles the entries' size per step: its time grows about 8-fold per
    # two vectors, and 20 of these vectors already take over ten seconds
    rng = Random(67)
    words = [tuple((i >> k) & 1 for k in range(6)) for i in range(64)]
    vectors = [{w: rng.choice([-9, -5, -2, -1, 1, 3, 4, 8]) for w in words} for _ in range(40)]
    assert rank(vectors) == copying_rank(vectors) == (40, list(range(40)))


def test_unitriangular_standard_bracketings():
    odd_ab = Alphabet.from_names(["a", "b"], odd=["a"])
    pairs = [
        (w, expand(standard_bracket(w))) for w in enumerate_super_ls(odd_ab, 5)
    ]
    assert is_unitriangular(pairs)


def test_unitriangular_rejects_wrong_claims():
    w = AB.word("ba")
    vector = expand(standard_bracket(w))
    assert is_unitriangular([(w, vector)])
    assert not is_unitriangular([(AB.word("b"), vector)])  # wrong leading word
    assert not is_unitriangular([(w, 3 * vector)])  # wrong coefficient
    assert not is_unitriangular([(w, Poly.zero(AB))])
    assert not is_unitriangular([(AB.word("ab"), parse_poly(AB, "ab"))])  # not LS


def test_unitriangular_odd_square_coefficient():
    a_odd = Alphabet.from_names(["a"], odd=["a"])
    w = a_odd.word("aa")
    assert is_unitriangular([(w, parse_poly(a_odd, "2*aa"))])
    assert not is_unitriangular([(w, parse_poly(a_odd, "aa"))])
