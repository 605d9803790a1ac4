"""Ring structure, grading, superbracket, leading data, text form."""

import fractions
import importlib
import pkgutil
import sys
import types
from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import superlie
from superlie import (
    Alphabet,
    Poly,
    Word,
    enumerate_super_ls,
    expand,
    parse_poly,
    poly_to_text,
    standard_bracket,
    superbracket,
)
from superlie.poly import bracket_terms, from_letter_terms
from superlie.words import deglex_key
from conftest import (
    even_part,
    letter_terms,
    odd_part,
    random_homogeneous_poly,
    random_poly,
    reference_superbracket,
    sl2,
)

XY_ODD = Alphabet.from_names(["x", "y"], odd=["x", "y"])
AT = Alphabet.from_names(["a", "t"])
ABX = Alphabet.from_names(["a", "b", "x"])
MIXED_ALPHA = Alphabet.from_names(["a", "x", "t"], odd=["x"])


def gen(alphabet, name):
    return Poly.monomial(alphabet.word(name))


def test_multiply_concatenates():
    x, y = gen(XY_ODD, "x"), gen(XY_ODD, "y")
    assert x * y == Poly.monomial(XY_ODD.word("xy"))


def test_additive_inverse():
    rng = Random(3)
    for _ in range(20):
        p = random_poly(rng, ABX)
        assert (p + (-1) * p).is_zero()


def test_distributivity_example():
    a = gen(ABX, "a")
    p = parse_poly(ABX, "ab + b")
    assert p * a == parse_poly(ABX, "aba + ba")


def test_ring_axioms_randomized():
    rng = Random(11)
    for _ in range(25):
        p, q, r = (random_poly(rng, ABX, max_len=3) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r


def test_alphabet_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(ABX, "a") + gen(AT, "a")
    with pytest.raises(ValueError):
        gen(ABX, "a") * gen(AT, "a")


def test_parity_classification():
    xy = Poly.monomial(XY_ODD.word("xy"))
    assert xy.parity() == 0
    assert (gen(XY_ODD, "x") + xy).parity() is None
    assert Poly.zero(XY_ODD).parity() == 0
    assert gen(XY_ODD, "x").parity() == 1


def test_superbracket_odd_square():
    x = gen(XY_ODD, "x")
    assert superbracket(x, x) == Poly.monomial(XY_ODD.word("xx"), 2)


def test_superbracket_even_square():
    a = gen(AT, "a")
    assert superbracket(a, a).is_zero()


def test_superbracket_even_pair():
    t, a = gen(AT, "t"), gen(AT, "a")
    assert superbracket(t, a) == parse_poly(AT, "ta - at")


def test_super_anticommutativity_randomized():
    rng = Random(23)
    for _ in range(30):
        pp, pq = rng.randrange(2), rng.randrange(2)
        p = random_homogeneous_poly(rng, MIXED_ALPHA, pp)
        q = random_homogeneous_poly(rng, MIXED_ALPHA, pq)
        sign = -1 if (pp and pq) else 1
        assert superbracket(p, q) == (-sign) * superbracket(q, p)


def test_super_jacobi_randomized():
    rng = Random(29)
    for _ in range(20):
        px, py, pz = (rng.randrange(2) for _ in range(3))
        x = random_homogeneous_poly(rng, MIXED_ALPHA, px, max_len=3)
        y = random_homogeneous_poly(rng, MIXED_ALPHA, py, max_len=3)
        z = random_homogeneous_poly(rng, MIXED_ALPHA, pz, max_len=3)
        s = lambda a, b: -1 if (a and b) else 1
        total = (
            s(px, pz) * superbracket(x, superbracket(y, z))
            + s(py, px) * superbracket(y, superbracket(z, x))
            + s(pz, py) * superbracket(z, superbracket(x, y))
        )
        assert total.is_zero()


def test_odd_square_identity_randomized():
    # [x, [y, y]] = 2[[x, y], y] for odd y
    rng = Random(31)
    y = gen(MIXED_ALPHA, "x")  # the odd generator of this alphabet
    for _ in range(20):
        x = random_homogeneous_poly(rng, MIXED_ALPHA, rng.randrange(2), max_len=3)
        lhs = superbracket(x, superbracket(y, y))
        rhs = 2 * superbracket(superbracket(x, y), y)
        assert lhs == rhs


def test_superbracket_is_bilinear_on_mixed_inputs():
    rng = Random(47)
    for _ in range(20):
        p = random_poly(rng, MIXED_ALPHA, max_len=3)
        q = random_poly(rng, MIXED_ALPHA, max_len=3)
        r = random_poly(rng, MIXED_ALPHA, max_len=3)
        assert superbracket(p, q) == superbracket(even_part(p), q) + superbracket(
            odd_part(p), q
        )
        assert superbracket(p + r, q) == superbracket(p, q) + superbracket(r, q)
        assert superbracket(q, p + r) == superbracket(q, p) + superbracket(q, r)


@st.composite
def poly_pairs(draw):
    """Two mixed-parity polynomials over one alphabet, coefficients p/q with q <= 6."""
    alphabet = draw(st.sampled_from([XY_ODD, AT, MIXED_ALPHA, Alphabet.from_names("abc", odd="ac")]))
    word = st.lists(st.integers(0, len(alphabet) - 1), max_size=4).map(
        lambda letters: Word(alphabet, letters)
    )
    coeff = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    terms = st.lists(st.tuples(word, coeff), max_size=5)
    return Poly(alphabet, draw(terms)), Poly(alphabet, draw(terms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(poly_pairs())
def test_superbracket_matches_reference_property(pair):
    p, q = pair
    got = superbracket(p, q)
    assert got == reference_superbracket(p, q)
    assert all(type(c) is Fraction for _, c in got.terms())


_LETTER_DICTS = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=4).map(tuple), st.sampled_from([-3, -2, -1, 1, 2, 3]),
    max_size=5,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _LETTER_DICTS,
    _LETTER_DICTS,
    st.integers(0, 1),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8),
)
def test_bracket_terms_flags_junction_words_and_keeps_one_product(p, q, odd, junctions):
    # the junction pairs only flag words: the product is the same dict, and
    # the flagged words are every uv, vu whose junction pair is a key, kept
    # even when their coefficients cancel
    product, flagged = bracket_terms(p, q, odd, junctions)
    plain, none = bracket_terms(p, q, odd)
    assert list(product.items()) == list(plain.items()) and none == set()
    assert all(product.values())
    expected = set()
    for u in p:
        for v in q:
            if u and v and (u[-1], v[0]) in junctions:
                expected.add(u + v)
            if u and v and (v[-1], u[0]) in junctions:
                expected.add(v + u)
    assert flagged == expected


def test_leading_examples():
    x = gen(MIXED_ALPHA, "x")  # odd
    f_xx = superbracket(x, x)
    word, coeff = f_xx.leading()
    assert str(word) == "xx" and coeff == 2
    g = parse_poly(MIXED_ALPHA, "ta - x")
    word, coeff = g.leading()
    assert str(word) == "ta" and coeff == 1
    single = Poly.monomial(MIXED_ALPHA.word("ax"), Fraction(-7, 3))
    assert single.leading() == (MIXED_ALPHA.word("ax"), Fraction(-7, 3))


def test_leading_of_zero_rejected():
    with pytest.raises(ValueError):
        Poly.zero(ABX).leading()
    with pytest.raises(ValueError):
        Poly.zero(ABX).make_monic()


def test_make_monic():
    p = parse_poly(ABX, "2*xx - b")
    monic = p.make_monic()
    assert monic == parse_poly(ABX, "xx - 1/2*b")
    assert monic.make_monic() == monic
    rng = Random(37)
    for _ in range(20):
        q = random_poly(rng, ABX)
        if not q.is_zero():
            assert q.make_monic().leading()[1] == 1


def test_leading_is_multiplicative():
    rng = Random(41)
    for _ in range(30):
        p, q = random_poly(rng, ABX, max_len=3), random_poly(rng, ABX, max_len=3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).leading()[0] == p.leading()[0] * q.leading()[0]


def test_terms_are_descending_deglex():
    p = parse_poly(ABX, "a + xx - 3*b + ab")
    words = [str(w) for w, _ in p.terms()]
    assert words == ["xx", "ab", "b", "a"]


def test_text_round_trip():
    rng = Random(43)
    for _ in range(40):
        p = random_poly(rng, ABX)
        assert parse_poly(ABX, poly_to_text(p)) == p
    for text in ("0", "1", "-1/2", "a - b", "-a + 2*xx - 1/3", "3/6*a"):
        p = parse_poly(ABX, text)
        assert parse_poly(ABX, poly_to_text(p)) == p
    assert parse_poly(ABX, "3/6*a") == parse_poly(ABX, "1/2*a")
    assert repr(parse_poly(ABX, "-a + 2*xx - 1/3")) == "Poly(2*xx - a - 1/3)"


@pytest.mark.parametrize(
    "text, printed",
    [
        ("1*a", "a"),
        ("2*1", "2"),
        ("2/4*a", "1/2*a"),
        ("0*a", "0"),
        ("01*a", "a"),
        ("a + a", "2*a"),
    ],
)
def test_parse_normalizes_forms_the_printer_never_writes(text, printed):
    # accepted, not rejected: each reads as the polynomial printed as `printed`
    p = parse_poly(ABX, text)
    assert poly_to_text(p) == printed
    assert p == parse_poly(ABX, printed)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly(ABX, "")
    with pytest.raises(ValueError):
        parse_poly(ABX, "a + q")
    # a sign followed by another sign or by the end of the text
    for text in ("a - - b", "--a", "a + + b", "ab -", "a+-b", "-", "+ "):
        with pytest.raises(ValueError, match="a sign without a term after it"):
            parse_poly(ABX, text)
    # the printer never opens with '+', so the parser takes no leading '+'
    for text in ("+a", "+ a - b"):
        with pytest.raises(ValueError, match=r"a leading '\+'"):
            parse_poly(ABX, text)


def test_parse_rejects_a_second_star():
    for text in ("2*a*a", "a + 1/2*x*b", "2**a"):
        with pytest.raises(ValueError, match=r"a term has at most one '\*'"):
            parse_poly(ABX, text)
    assert parse_poly(ABX, "2*ab") == 2 * parse_poly(ABX, "ab")


def test_floats_are_rejected():
    a = gen(ABX, "a")
    with pytest.raises(TypeError):
        0.5 * a
    with pytest.raises(TypeError):
        Poly.monomial(ABX.word("a"), 1.25)


def test_text_round_trip_dotted_alphabet():
    dotted = Alphabet.from_names(["x1", "t"], odd=["x1"])
    p = parse_poly(dotted, "t.x1 - x1.t + 1/2")
    assert poly_to_text(p) == "t.x1 - x1.t + 1/2"
    assert parse_poly(dotted, poly_to_text(p)) == p


def test_mapping_input_keeps_the_constructor_contract():
    a, b = ABX.word("a"), ABX.word("ab")
    for bad in (0.0, 1.5):
        with pytest.raises(TypeError):
            Poly(ABX, {a: bad})
    with pytest.raises(ValueError):
        Poly(ABX, {a: 1, AT.word("ta"): 1})
    p = Poly(ABX, {a: 0, b: Fraction(0), ABX.word("ba"): 3, ABX.empty_word(): Fraction(-1, 2)})
    assert [(str(w), c) for w, c in p.terms()] == [("ba", 3), ("1", Fraction(-1, 2))]
    assert all(type(c) is Fraction for _, c in p.terms())
    assert p == Poly(ABX, [(ABX.word("ba"), 3), (ABX.empty_word(), Fraction(-1, 2))])


def test_hashes_agree_across_equal_alphabets():
    # two separately built but equal alphabets: values over them compare and
    # hash equal; a Poly hashed after use hashes as a fresh equal one
    first = Alphabet.from_names(["a", "x", "t"], odd=["x"])
    second = Alphabet.from_names(["a", "x", "t"], odd=["x"])
    assert first is not second and first == second and hash(first) == hash(second)
    u, v = first.word("txa"), second.word("txa")
    assert u == v and hash(u) == hash(v)
    m, n = standard_bracket(u), standard_bracket(v)
    assert m == n and hash(m) == hash(n)
    text = "2*txa - 1/3*xa + 7"
    p, q = parse_poly(first, text), parse_poly(second, text)
    assert p == q and hash(p) == hash(q)
    used = parse_poly(first, text)
    _ = (used * used, used + q, used.leading(), str(used), used == p)
    assert hash(used) == hash(parse_poly(second, text)) == hash(used)
    assert len({p, q, used, expand(m)}) == 2


# -- the stored form: int numerators over one denominator ----------------------
#
# References on plain dicts from words to Fractions, which share no code with
# Poly's integer arithmetic.


def _value(p):
    """p as a dict from words to Fractions."""
    return dict(p.terms())


def _nonzero(acc):
    return {w: c for w, c in acc.items() if c}


def _ref_sum(a, b, sign=1):
    acc = dict(a)
    for w, c in b.items():
        acc[w] = acc.get(w, 0) + sign * c
    return _nonzero(acc)


def _ref_product(a, b):
    acc = {}
    for u, cu in a.items():
        for v, cv in b.items():
            acc[u * v] = acc.get(u * v, 0) + cu * cv
    return _nonzero(acc)


def _ref_superbracket(a, b):
    acc = {}
    for u, cu in a.items():
        for v, cv in b.items():
            sign = 1 if u.parity and v.parity else -1
            acc[u * v] = acc.get(u * v, 0) + cu * cv
            acc[v * u] = acc.get(v * u, 0) + sign * cu * cv
    return _nonzero(acc)


def assert_lowest_terms(p):
    """The stored form: letter-tuple keys, denominator >= 1, gcd 1, no zero
    numerator; Fraction terms in deglex order of the keys."""
    assert all(type(w) is tuple and all(type(r) is int for r in w) for w in p._nums)
    assert type(p._den) is int and p._den >= 1
    assert all(type(n) is int and n for n in p._nums.values())
    assert gcd(p._den, *p._nums.values()) == 1
    assert p._nums or p._den == 1
    assert all(type(c) is Fraction for _, c in p.terms())
    order = sorted(p._nums, key=lambda w: (len(w), w), reverse=True)
    assert [w.letters for w, _ in p.terms()] == order


@st.composite
def poly_triples(draw):
    """Three polynomials over one alphabet, the third often cancelling the first."""
    alphabet = draw(st.sampled_from([XY_ODD, MIXED_ALPHA, Alphabet.from_names("ab", odd="b")]))
    word = st.lists(st.integers(0, len(alphabet) - 1), max_size=3).map(
        lambda letters: Word(alphabet, letters)
    )
    coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))
    terms = st.lists(st.tuples(word, coeff), max_size=5)
    p, q = Poly(alphabet, draw(terms)), Poly(alphabet, draw(terms))
    r = Poly(alphabet, draw(terms))
    if draw(st.booleans()):
        r = Poly(alphabet, [(w, -c) for w, c in p.terms()] + list(r.terms())[:1])
    return p, q, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(poly_triples(), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))
def test_integer_arithmetic_matches_fraction_references(triple, scalar):
    p, q, r = triple
    a, b, c = _value(p), _value(q), _value(r)
    results = {
        "p + q": (p + q, _ref_sum(a, b)),
        "p + r": (p + r, _ref_sum(a, c)),
        "p - q": (p - q, _ref_sum(a, b, -1)),
        "p - p": (p - p, {}),
        "-p": (-p, {w: -x for w, x in a.items()}),
        "p * r": (p * r, _ref_product(a, c)),
        "q * p": (q * p, _ref_product(b, a)),
        "scalar * p": (scalar * p, _nonzero({w: scalar * x for w, x in a.items()})),
        "p * scalar": (p * scalar, _nonzero({w: x * scalar for w, x in a.items()})),
        "p * 0": (p * 0, {}),
        "[p, q]": (superbracket(p, q), _ref_superbracket(a, b)),
        "[p, r]": (superbracket(p, r), _ref_superbracket(a, c)),
    }
    if a:
        lead = a[max(a, key=deglex_key)]
        results["monic p"] = (p.make_monic(), {w: x / lead for w, x in a.items()})
    for name, (got, expected) in results.items():
        assert _value(got) == expected, name
        assert_lowest_terms(got)
        assert got == Poly(p.alphabet, expected), name
        assert hash(got) == hash(Poly(p.alphabet, expected)), name
    for poly in (p, q, r):
        assert_lowest_terms(poly)


@st.composite
def constructor_inputs(draw):
    """Terms for ``Poly.__init__``: a container kind, its (word, coefficient)
    pairs in order, and the input itself.  Words come from a pool of at most
    four, so they repeat, and a drawn term may be followed by its negation."""
    alphabet = draw(st.sampled_from([XY_ODD, MIXED_ALPHA, Alphabet.from_names("ab", odd="b")]))
    size = len(alphabet)
    pool = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=3), min_size=1, max_size=4))
    word = st.sampled_from(pool).map(lambda letters: Word(alphabet, letters))
    coeff = st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9])),
        st.booleans(),
    )
    pairs = []
    for w, c in draw(st.lists(st.tuples(word, coeff), max_size=8)):
        pairs.append((w, c))
        if draw(st.booleans()):
            pairs.append((w, -c))
    kind = draw(st.sampled_from(["list", "dict", "generator", "proxy"]))
    if kind in ("dict", "proxy"):
        pairs = list(dict(pairs).items())  # a mapping holds each word once
    terms = {
        "list": lambda: list(pairs),
        "dict": lambda: dict(pairs),
        "generator": lambda: (pair for pair in pairs),
        "proxy": lambda: types.MappingProxyType(dict(pairs)),
    }[kind]()
    return alphabet, kind, pairs, terms


@settings(max_examples=400, deadline=None, derandomize=True)
@given(constructor_inputs())
def test_constructor_matches_fraction_sums(data):
    # the reference adds every coefficient as a Fraction, word by word, and
    # puts the sums over the lcm of their denominators
    alphabet, kind, pairs, terms = data
    sums = {}
    for w, c in pairs:
        sums[w.letters] = sums.get(w.letters, Fraction(0)) + Fraction(c)
    sums = {w: c for w, c in sums.items() if c}
    den = lcm(*[c.denominator for c in sums.values()])
    nums = {w: c.numerator * (den // c.denominator) for w, c in sums.items()}
    expected = Poly._of(alphabet, den, dict(nums))
    got = Poly(alphabet, terms)
    assert_lowest_terms(got)
    assert (got._den, got._nums) == (den, nums), kind
    assert got == expected and hash(got) == hash(expected), kind
    assert {w.letters: c for w, c in got.terms()} == sums


@settings(max_examples=200, deadline=None, derandomize=True)
@given(constructor_inputs(), st.integers(0, 8), st.integers(0, 8), st.sampled_from([0.0, 1.5]))
def test_constructor_checks_each_term_in_order(data, first, second, bad):
    # per term, the word's alphabet is checked before the coefficient: the
    # first bad term decides the error, and a float on a foreign word is a
    # ValueError
    alphabet, _, pairs, _ = data
    i, j = sorted((min(first, len(pairs)), min(second, len(pairs))))
    float_term, foreign_term = (Word(alphabet, ()), bad), (AT.word("ta"), 1)
    cases = [
        ([float_term], TypeError),
        ([foreign_term], ValueError),
        ([(AT.word("ta"), bad)], ValueError),
        ([float_term, foreign_term], TypeError),
        ([foreign_term, float_term], ValueError),
    ]
    for bad_terms, error in cases:
        terms = pairs[:i] + bad_terms[:1] + pairs[i:j] + bad_terms[1:] + pairs[j:]
        for given_terms in (terms, iter(terms)):
            with pytest.raises(error):
                Poly(alphabet, given_terms)


def test_from_letter_terms_builds_one_poly_from_checked_words(monkeypatch):
    """``from_letter_terms`` of an int dict calls ``Poly.__init__`` once and
    ``Word.__init__`` once per term, hashes no ``Word`` and runs no code of
    the ``fractions`` module.

    The checked constructors stay, though the kernel's numerators could go
    to ``Poly._of`` with ``Word._of`` words: perfbench's probe counts only
    ``Poly.__init__`` and ``Word.__init__`` on ``reduce`` (ROADMAP items 9
    and 18).
    """
    alphabet = MIXED_ALPHA
    terms = {(2, 1, 0): 3, (1, 0): -4, (0,): 6, (): 12, (2, 2, 1, 0): -9}
    expected = {
        den: Poly(alphabet, [(Word(alphabet, w), Fraction(n, den)) for w, n in terms.items()])
        for den in (1, 6)
    }
    calls = {"Poly.__init__": 0, "Word.__init__": 0, "Word.__hash__": 0, "fractions": 0}
    poly_init, word_init, word_hash = Poly.__init__, Word.__init__, Word.__hash__

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls["fractions"] += 1

    monkeypatch.setattr(Poly, "__init__", counting("Poly.__init__", poly_init))
    monkeypatch.setattr(Word, "__init__", counting("Word.__init__", word_init))
    monkeypatch.setattr(Word, "__hash__", counting("Word.__hash__", word_hash))
    for den, want in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            got = from_letter_terms(alphabet, terms, den)
        finally:
            sys.setprofile(previous)
        assert calls == {
            "Poly.__init__": 1, "Word.__init__": len(terms), "Word.__hash__": 0, "fractions": 0
        }, den
        assert (got._den, got._nums) == (want._den, want._nums)


def test_parse_poly_reads_integer_coefficients_as_ints():
    """Integer coefficient text and a bare word give ``Poly.__init__`` an
    ``int``, so parsing them runs no code of the ``fractions`` module; only
    ``p/q`` text builds a ``Fraction``.  The result is the ``Poly`` of the
    same terms with ``Fraction`` coefficients."""
    alphabet = sl2().alphabet
    word = alphabet.word
    cases = {
        "2*fe + ef - 3*h": [("fe", 2), ("ef", 1), ("h", -3)],
        "-ef + 7 - 0*h": [("ef", -1), ("", 7), ("h", 0)],
        "1/2*fe - 3/4*ef + 2*fe - 5/10": [("fe", Fraction(1, 2)), ("ef", Fraction(-3, 4)),
                                           ("fe", 2), ("", Fraction(-1, 2))],
        "4/2*h - h": [("h", Fraction(2)), ("h", -1)],
    }
    for text, terms in cases.items():
        want = Poly(alphabet, [(word(w), Fraction(c)) for w, c in terms])
        got = parse_poly(alphabet, text)
        assert got == want and (got._den, got._nums) == (want._den, want._nums), text
        assert all(type(n) is int for n in got._nums.values()), text
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        got = parse_poly(alphabet, "2*fe + ef - 3*h")
    finally:
        sys.setprofile(previous)
    assert calls == 0
    assert (got._den, got._nums) == (1, {word("fe").letters: 2, word("ef").letters: 1,
                                         word("h").letters: -3})


def test_arithmetic_builds_no_word_until_terms_are_read(monkeypatch):
    # sums, products, superbrackets and expansions run on the letter-keyed
    # numerators; a Word is built only when a term is read
    alphabet = MIXED_ALPHA
    p = parse_poly(alphabet, "2/3*xa - ta + 5*x")
    q = parse_poly(alphabet, "1/4*at + xx - 3")
    m = standard_bracket(enumerate_super_ls(alphabet, 5)[-1])
    built = []
    init, of = Word.__init__, Word._of.__func__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_of(cls, *args):
        built.append(args)
        return of(cls, *args)

    monkeypatch.setattr(Word, "__init__", counting_init)
    monkeypatch.setattr(Word, "_of", classmethod(counting_of))
    results = {
        "p + q": p + q,
        "p - q": p - q,
        "-p": -p,
        "p * q": p * q,
        "p * c": p * Fraction(-3, 7),
        "[p, q]": superbracket(p, q),
        "expand(m)": expand(m),
    }
    assert built == []
    for name, r in results.items():
        assert r, name
        r.terms()
        assert len(built) == len(r.terms()), name
        built.clear()
        str(r)  # no cache: a second read builds the words again
        assert len(built) == len(r.terms()), name
        built.clear()
    fresh = p * q
    str(fresh)
    assert len(built) == len(fresh.terms())


def test_zero_has_denominator_one():
    a = ABX.word("a")
    for zero in (
        Poly.zero(ABX),
        Poly(ABX, {a: Fraction(1, 3)}) - Poly(ABX, {a: Fraction(2, 6)}),
        Poly.monomial(a, Fraction(5, 7)) * 0,
        Poly(ABX, [(a, Fraction(1, 2)), (a, Fraction(-1, 2))]),
    ):
        assert zero.is_zero() and (zero._den, zero._nums) == (1, {})
        assert zero == Poly.zero(ABX) and hash(zero) == hash(Poly.zero(ABX))


def test_equal_values_give_equal_polys_and_hashes():
    a, b = ABX.word("a"), ABX.word("ab")
    for values in (
        (Fraction(2, 4), "1/2", Fraction(1, 2)),
        (2, Fraction(2), Fraction(6, 3)),
    ):
        polys = [Poly(ABX, {a: v, b: 1}) for v in values]
        polys += [Poly.monomial(a, v) + Poly.monomial(b) for v in values]
        assert all(p == polys[0] and hash(p) == hash(polys[0]) for p in polys)
        for p in polys:
            assert_lowest_terms(p)
    assert Poly(ABX, {a: Fraction(1, 2)}) != Poly(ABX, {a: 1})
    assert Poly(ABX, {a: 2, b: 4})._nums == {a.letters: 2, b.letters: 4}  # gcd over the numerators alone is not taken out
    assert Poly(ABX, {a: Fraction(2, 3), b: Fraction(4, 3)})._den == 3


def test_every_returned_coefficient_is_a_fraction():
    a, xx = ABX.word("a"), ABX.word("xx")
    p = Poly(ABX, {a: 3, xx: Fraction(1, 2)}) * Poly.monomial(ABX.empty_word(), 2)
    assert p._den == 1  # whole values, stored over 1
    coefficients = [c for _, c in p.terms()]
    coefficients += [p.leading()[1], p.coefficient(a), p.coefficient(xx), p.coefficient(ABX.word("b"))]
    coefficients += list(letter_terms(p).values())
    assert coefficients[:2] == [1, 6]
    assert all(type(c) is Fraction for c in coefficients)


def test_no_module_binds_a_builtin_generic_alias():
    # on Python 3.10 isinstance(dict[...], type) is True, so a walk over a
    # module's classes takes such an alias for a class; type aliases are
    # bound through typing instead
    names = [m.name for m in pkgutil.iter_modules(superlie.__path__, "superlie.")]
    assert "superlie.poly" in names
    found = [
        f"{name}.{attr}"
        for name in ["superlie", *names]
        for attr, value in vars(importlib.import_module(name)).items()
        if isinstance(value, types.GenericAlias)
    ]
    assert found == []
