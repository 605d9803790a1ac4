"""Orders, Lyndon-Shirshov recognition, enumeration."""

import re
import string
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from superlie import (
    Alphabet,
    NcMonomial,
    Poly,
    Word,
    deglex_key,
    enumerate_super_ls,
    expand,
    is_admissible,
    is_super_ls,
    parse_monomial,
    parse_poly,
    standard_bracket,
)
from superlie.words import (
    _is_ls_letters,
    _lex_key,
    _super_ls_tuples,
    _words,
)
from conftest import oracle_is_ls, oracle_is_super_ls, oracle_standard_coefficient

AB = Alphabet.from_names(["a", "b"])
AXT = Alphabet.from_names(["a", "x", "t"])
X_ODD = Alphabet.from_names(["x"], odd=["x"])


# -- lex order ------------------------------------------------------------------


LT, EQ, GT = -1, 0, 1


def lex_cmp(u, v):
    """The lex order that ``_lex_key`` realizes, as a three-way comparison.

    At the first differing position the smaller symbol loses.  When one word
    is a proper prefix of the other, the PREFIX is the greater word; in
    particular the empty word is greater than every non-empty word.
    """
    if u.alphabet != v.alphabet:
        raise ValueError("words over different alphabets")
    a, b = u.letters, v.letters
    for x, y in zip(a, b):
        if x != y:
            return LT if x < y else GT
    if len(a) == len(b):
        return EQ
    return GT if len(a) < len(b) else LT


def test_lex_extension_is_smaller():
    assert lex_cmp(AB.word("ab"), AB.word("b")) == LT


def test_lex_reflexive():
    assert lex_cmp(AB.word("ba"), AB.word("ba")) == EQ


def test_lex_letter_by_letter():
    assert lex_cmp(AXT.word("txt"), AXT.word("ttx")) == LT


def test_lex_proper_prefix_is_greater():
    assert lex_cmp(AB.word("b"), AB.word("ba")) == GT
    assert lex_cmp(AB.word(""), AB.word("a")) == GT


def test_lex_rejects_mismatched_alphabets():
    with pytest.raises(ValueError):
        lex_cmp(AB.word("a"), AXT.word("a"))


# -- deglex order ----------------------------------------------------------------


def deglex_cmp(u, v):
    """``deglex_key`` as a three-way comparison."""
    ku, kv = deglex_key(u), deglex_key(v)
    return (ku > kv) - (ku < kv)


def test_deglex_length_dominates():
    assert deglex_cmp(AB.word("b"), AB.word("aa")) == LT


def test_deglex_falls_back_to_lex():
    assert deglex_cmp(AB.word("ab"), AB.word("ba")) == LT


def test_deglex_reflexive():
    w = AXT.word("txa")
    assert deglex_cmp(w, w) == EQ


def test_deglex_key_sorts_like_deglex_cmp():
    # deglex: length first, equal lengths by lex_cmp
    rng = Random(7)
    words = [
        Word(AXT, tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))))
        for _ in range(60)
    ]
    by_key = sorted(words, key=deglex_key)
    for u, v in zip(by_key, by_key[1:]):
        assert len(u) < len(v) or (len(u) == len(v) and lex_cmp(u, v) in (LT, EQ))


def test_lex_key_sorts_like_lex_cmp():
    # every word of length <= 5 over three letters, so every prefix pair too
    words = [Word(AXT, w) for n in range(6) for w in product(range(3), repeat=n)]
    Random(11).shuffle(words)
    by_key = sorted(words, key=_lex_key)
    assert all(lex_cmp(u, v) == LT for u, v in zip(by_key, by_key[1:]))


def test_both_orders_are_strict_total_orders():
    rng = Random(13)
    words = [
        Word(AXT, tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))))
        for _ in range(40)
    ]
    for cmp in (lex_cmp, deglex_cmp):
        for u in words:
            for v in words:
                cuv, cvu = cmp(u, v), cmp(v, u)
                assert cuv == -cvu  # antisymmetry
                assert (cuv == EQ) == (u == v)  # trichotomy against equality
        for _ in range(300):
            u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
            if cmp(u, v) == LT and cmp(v, w) == LT:
                assert cmp(u, w) == LT  # transitivity


def test_deglex_smaller_means_not_longer():
    rng = Random(5)
    for _ in range(200):
        u = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
        v = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
        if deglex_cmp(u, v) == LT:
            assert len(u) <= len(v)


# -- Lyndon-Shirshov words ---------------------------------------------------------


def test_ls_examples():
    assert _is_ls_letters(AXT.word("tx").letters)
    assert not _is_ls_letters(AXT.word("tt").letters)
    assert not _is_ls_letters(AXT.word("txt").letters)


def test_super_ls_examples():
    assert is_super_ls(X_ODD.word("xx"))
    xe = Alphabet.from_names(["x"])
    assert not is_super_ls(xe.word("xx"))
    assert not is_super_ls(X_ODD.word("xxx"))


def test_empty_word_rejected():
    # the empty word is neither LS nor an odd square, so it is not super-LS
    assert not is_super_ls(AB.word(""))
    assert oracle_standard_coefficient((), AB.parities) is None
    with pytest.raises(ValueError, match="not a super-Lyndon-Shirshov word"):
        standard_bracket(AB.word(""))


@pytest.mark.parametrize(
    "alphabet",
    [AB, AXT, X_ODD, Alphabet.from_names(["a", "b"], odd=["a"]),
     Alphabet.from_names(["a", "b", "c"], odd=["b", "c"])],
)
def test_ls_matches_rotation_oracle(alphabet):
    parities = alphabet.parities
    for n in range(1, 7):
        for letters in product(range(len(alphabet)), repeat=n):
            w = Word(alphabet, letters)
            assert _is_ls_letters(letters) == oracle_is_ls(letters)
            assert is_super_ls(w) == oracle_is_super_ls(letters, parities)


def test_standard_coefficient_is_1_for_ls_and_2_for_odd_squares():
    # the oracle of the coefficient is_admissible requires, held against the
    # standard bracketings' expansions
    alphabet = Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])
    parities = alphabet.parities
    squares = 0
    for n in range(1, 8):
        for letters in product(range(len(alphabet)), repeat=n):
            w = Word(alphabet, letters)
            expected = oracle_standard_coefficient(letters, parities)
            assert (expected is not None) == is_super_ls(w)
            if expected is not None:
                m = standard_bracket(w)
                assert expand(m).leading() == (w, expected) and is_admissible(m)
            squares += expected == 2
    assert squares > 0


def test_super_ls_first_letter_is_maximal():
    for alphabet in (AB, AXT, Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])):
        for n in range(1, 8):
            for letters in product(range(len(alphabet)), repeat=n):
                w = Word(alphabet, letters)
                if is_super_ls(w):
                    assert letters[0] == max(letters)


# -- enumeration -------------------------------------------------------------------


def test_enumerate_two_even_letters():
    words = enumerate_super_ls(AB, 2)
    assert [str(w) for w in words] == ["a", "b", "ba"]


def test_enumerate_single_odd_letter():
    words = enumerate_super_ls(X_ODD, 3)
    assert [str(w) for w in words] == ["x", "xx"]


def test_enumerate_counts_two_even_letters():
    # frozen from the tuple-rotation oracle
    expected = [2, 1, 2, 3, 6, 9, 18]
    words = enumerate_super_ls(AB, 7)
    counts = [sum(1 for w in words if len(w) == n) for n in range(1, 8)]
    assert counts == expected
    oracle_counts = [
        sum(
            1
            for letters in product(range(2), repeat=n)
            if oracle_is_super_ls(letters, [0, 0])
        )
        for n in range(1, 8)
    ]
    assert oracle_counts == expected


def test_enumerate_is_sorted_unique_and_valid():
    for alphabet in (AXT, Alphabet.from_names(["a", "b"], odd=["b"])):
        words = enumerate_super_ls(alphabet, 5)
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=deglex_key)
        assert all(is_super_ls(w) for w in words)


def test_enumerate_with_constraint():
    words = [w for w in enumerate_super_ls(AB, 4) if len(w) % 2 == 0]
    assert all(len(w) % 2 == 0 for w in words)
    assert AB.word("ba") in words


def _duval_super_ls(alphabet, max_len):
    """All super-LS words of length <= max_len, in deglex order, by Duval's algorithm.

    Two words of one length compare as tuples, so a word is LS exactly when
    it is a classical Lyndon word (smaller than its rotations) over the
    reversed alphabet, rank r read as ``len(alphabet) - 1 - r``.  Duval's
    algorithm (TCS 60, 1988) steps from each such word straight to the
    next; the squares ``uu`` of the odd ones with ``2|u| <= max_len`` are
    added, and each length is sorted.  A second generator, independent of
    the prenecklace walk the library uses.
    """
    by_length = [[] for _ in range(max_len + 1)]
    # Duval's successor in original ranks: the reversed alphabet's first
    # letter is rank len - 1 and its last is rank 0
    w = [len(alphabet) - 1]
    while w:
        u = tuple(w)
        by_length[len(u)].append(u)
        if 2 * len(u) <= max_len and sum(alphabet.parities[r] for r in u) % 2:
            by_length[2 * len(u)].append(u + u)
        period = len(w)
        while len(w) < max_len:
            w.append(w[-period])
        while w and w[-1] == 0:
            w.pop()
        if w:
            w[-1] -= 1
    return [Word(alphabet, u) for words in by_length for u in sorted(words)]


def assert_wrapped(words, alphabet, checked):
    """``words`` equal the checked words ``checked``, each a Word over the caller's ``alphabet``."""
    assert words == checked
    assert all(
        type(w) is Word and type(w.letters) is tuple and w.alphabet is alphabet for w in words
    )


def test_words_wraps_each_tuple_as_its_checked_word():
    letters = [(), (0,), (2, 1, 0), (1, 1), (0,)]
    assert_wrapped(_words(AXT, iter(letters)), AXT, [Word(AXT, w) for w in letters])
    assert _words(AXT, []) == []


@pytest.mark.parametrize(
    "alphabet", [AB, AXT, X_ODD, Alphabet.from_names(["x1", "x2", "y"], odd=["x2"])]
)
def test_enumerate_super_ls_wraps_the_checked_words(alphabet):
    # an equal alphabet built apart: the words hold the caller's own object
    twin = Alphabet(alphabet.names, alphabet.parities)
    assert_wrapped(enumerate_super_ls(twin, 6), twin, _duval_super_ls(alphabet, 6))


def reference_enumerate_super_ls(alphabet, max_len):
    """Every word of length <= max_len, filtered: the scan the generator replaced."""
    out = []
    for n in range(1, max_len + 1):
        for ranks in product(range(len(alphabet)), repeat=n):
            w = Word(alphabet, ranks)
            if is_super_ls(w):
                out.append(w)
    return out


def _parity_patterns(size):
    names = "abcde"[:size]
    for odd in product((0, 1), repeat=size):
        yield Alphabet.from_names(names, odd=[x for x, p in zip(names, odd) if p])


GENERATOR_CASES = [
    (alphabet, 8 if len(alphabet) <= 4 else 6)
    for size in range(1, 6)
    for alphabet in _parity_patterns(size)
]


@pytest.mark.parametrize(
    "alphabet, max_len", GENERATOR_CASES, ids=[repr(a) for a, _ in GENERATOR_CASES]
)
def test_generator_matches_reference_scan(alphabet, max_len):
    reference = reference_enumerate_super_ls(alphabet, max_len)
    assert enumerate_super_ls(alphabet, max_len) == reference


def _mobius(n):
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _lyndon_count(size, n):
    return sum(_mobius(d) * size ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _odd_lyndon_count(even, odd, n):
    # an odd word of length n is a d-th power, d odd, of one odd primitive word;
    # (even + odd)^m - (even - odd)^m counts the odd words of length m twice
    total = sum(
        _mobius(d) * ((even + odd) ** (n // d) - (even - odd) ** (n // d))
        for d in range(1, n + 1, 2)
        if n % d == 0
    )
    return total // (2 * n)


@pytest.mark.parametrize(
    "alphabet, max_len", GENERATOR_CASES, ids=[repr(a) for a, _ in GENERATOR_CASES]
)
def test_generator_counts_match_necklace_formula(alphabet, max_len):
    size = len(alphabet)
    odd = sum(alphabet.parities)
    counts = [0] * (max_len + 1)
    for w in enumerate_super_ls(alphabet, max_len):
        counts[len(w)] += 1
    expected = [0] + [
        _lyndon_count(size, n) + (_odd_lyndon_count(size - odd, odd, n // 2) if n % 2 == 0 else 0)
        for n in range(1, max_len + 1)
    ]
    assert counts == expected


def test_enumerate_requires_positive_length():
    with pytest.raises(ValueError):
        enumerate_super_ls(AB, 0)


# -- the pruned prenecklace walk, held to the filters it replaced ------------------


def _weighted_products(weights, total):
    """Every letter tuple of total weight ``total``, in tuple order."""
    if total == 0:
        return [()]
    return [
        (c,) + rest
        for c, w in enumerate(weights)
        if w <= total
        for rest in _weighted_products(weights, total - w)
    ]


# every alphabet of up to three letters, weights 1, 2, 3 or 5 and any
# parities; weight 5 makes leaves of single letters (when every letter
# weighs 5) and leaves that weigh max_len (5 after 3).  Then nine letters
# ranked below one light letter, as the generators W rank below t: heavy
# letters of every weight up to past max_len, below the one that fits anywhere
WEIGHTED_CASES = [
    *(
        pytest.param(
            list(product((1, 2, 3, 5), repeat=size)), list(product((0, 1), repeat=size)), id=str(size)
        )
        for size in (1, 2, 3)
    ),
    pytest.param(
        [(2, 9, 3, 7, 4, 2, 5, 8, 3, 1)],
        [(1, 0, 1, 1, 0, 1, 0, 0, 1, 1), (0,) * 9 + (1,)],
        id="heavy_below_light",
    ),
]


@pytest.mark.parametrize("weight_sets, parity_sets", WEIGHTED_CASES)
def test_super_ls_walk_on_weighted_letters_is_the_filtered_products(weight_sets, parity_sets):
    max_len = 8
    for weights in weight_sets:
        for parities in parity_sets:
            names = "abcdefghij"[: len(weights)]
            alphabet = Alphabet.from_names(names, odd=[x for x, p in zip(names, parities) if p])
            expected = [[]] + [
                [u for u in _weighted_products(weights, n) if is_super_ls(Word(alphabet, u))]
                for n in range(1, max_len + 1)
            ]
            assert _super_ls_tuples(parities, max_len, weights=weights) == expected, (
                weights,
                parities,
            )


@pytest.mark.parametrize(
    "alphabet, max_len", GENERATOR_CASES, ids=[repr(a) for a, _ in GENERATOR_CASES]
)
def test_super_ls_walk_without_constraints_is_duval(alphabet, max_len):
    assert enumerate_super_ls(alphabet, max_len) == _duval_super_ls(alphabet, max_len)


def test_super_ls_walk_under_successor_tables_is_the_filtered_scan():
    # random tables of allowed adjacent pairs; one odd letter x has xx
    # forbidden, so x is kept and its square is blocked only across the
    # junction.  The filter is an adjacency scan of the unconstrained words.
    rng = Random(20)
    squares_cut = 0
    for _ in range(40):
        size = rng.randint(2, 4)
        names = "abcd"[:size]
        odd = [x for x in names if rng.random() < 0.5] or [rng.choice(names)]
        alphabet = Alphabet.from_names(names, odd=odd)
        x = alphabet.rank(rng.choice(odd))
        forbidden = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.25}
        forbidden.add((x, x))
        table = [[b for b in range(size) if (a, b) not in forbidden] for a in range(size)]

        def successors(prefix):
            return table[prefix[-1]] if prefix else range(size)

        def reduced(letters):
            return forbidden.isdisjoint(zip(letters, letters[1:]))

        max_len = 7
        buckets = _super_ls_tuples(alphabet.parities, max_len, successors)
        walked = [Word(alphabet, u) for bucket in buckets for u in bucket]
        scan = [w for w in _duval_super_ls(alphabet, max_len) if reduced(w.letters)]
        assert walked == scan, (alphabet, sorted(forbidden))
        assert (x,) in buckets[1] and (x, x) not in buckets[2]
        squares_cut += sum(
            1
            for n in range(1, max_len // 2 + 1)
            for u in buckets[n]
            if len(u) > 1 and sum(alphabet.parities[c] for c in u) % 2 and not reduced(u + u)
        )
    assert squares_cut > 0  # longer odd words also lost their square at the junction


# -- text round trip ----------------------------------------------------------------


def test_word_text_round_trip_single_char():
    for text in ("1", "a", "ba", "ab", "bbab"):
        assert str(AB.word(text)) == text
    assert str(AB.word("")) == "1"  # the empty word prints as the token that reads it


def test_word_text_round_trip_dotted():
    dotted = Alphabet.from_names(["x1", "x2", "t"])
    w = dotted.word("t.x1.x1")
    assert tuple(dotted.names[r] for r in w.letters) == ("t", "x1", "x1")
    assert str(w) == "t.x1.x1"
    assert dotted.word(str(w)) == w
    assert repr(w) == "Word(t.x1.x1)" and repr(dotted.empty_word()) == "Word(1)"


@pytest.mark.parametrize("alphabet", [AXT, Alphabet.from_names(["x1", "x2", "t"], odd=["x2"])])
def test_alphabet_word_reads_back_random_words(alphabet):
    rng = Random(11)
    for _ in range(200):
        letters = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randrange(9)))
        w = Word(alphabet, letters)
        assert alphabet.word(str(w)) == w and alphabet.word(str(w)).letters == letters


@pytest.mark.parametrize(
    "names, text, unknown",
    [
        (["a", "x", "t"], "axq", "q"),  # an unknown one-character name
        (["a", "x", "t"], "a.xt", "xt"),  # a multi-character name, undotted alphabet
        (["x1", "x2", "t"], "x1..t", ""),  # an empty dotted segment
        (["x1", "x2", "t"], "x1.y.q", "y"),  # the first unknown name is named
        (["x1", "x2", "t"], "x1x2", "x1x2"),  # a dotted alphabet splits only at dots
    ],
)
def test_alphabet_word_names_the_first_unknown_name(names, text, unknown):
    with pytest.raises(ValueError) as error:
        Alphabet.from_names(names).word(text)
    assert str(error.value) == f"unknown symbol name {unknown!r}"


def test_word_concatenation_needs_one_alphabet():
    assert AB.word("ab") * AB.word("b") == AB.word("abb")
    with pytest.raises(ValueError, match="words over different alphabets"):
        AB.word("a") * AXT.word("a")


def test_word_rejects_unknown_names():
    with pytest.raises(ValueError):
        AB.word("q")


def test_alphabet_content_equality():
    other = Alphabet.from_names(["a", "b"])
    assert other == AB
    assert lex_cmp(other.word("a"), AB.word("b")) == LT
    assert Alphabet.from_names(["a", "b"], odd=["a"]) != AB


@pytest.mark.parametrize(
    "names, parities, message",
    [
        ([], [], "alphabet must be non-empty"),
        (["a", "b"], [0], "expected one parity per name, got 1 for 2"),
        (["a"], [0, 1], "expected one parity per name, got 2 for 1"),
        (["a", "b"], [0, 2], "parity must be 0 or 1, got 2"),
        (["a", ""], [0, 0], "bad symbol name '' at position 1"),
        (["a", "b", "a"], [0, 1, 0], r"duplicate symbol names in \['a', 'b', 'a'\]"),
        (["a", "b"], [0, 1], "unknown symbol name 'ab'"),  # a valid shape: rank fails
    ],
    ids=["empty", "too-few-parities", "too-many-parities", "parity-2", "empty-name",
         "duplicate-names", "unknown-name"],
)
def test_alphabet_rejects_a_bad_shape_and_rank_an_unknown_name(names, parities, message):
    with pytest.raises(ValueError, match=message):
        Alphabet(names, parities).rank("ab")


@pytest.mark.parametrize("bad", ["a+", "1", "", "x.y", "2a", "a b", "[", 7, None])
def test_from_names_rejects_names_outside_the_grammar(bad):
    with pytest.raises(ValueError, match=r"bad symbol name .* at position 1"):
        Alphabet.from_names(["a", bad])


def test_from_names_rejects_an_odd_name_not_in_the_alphabet():
    with pytest.raises(ValueError, match=r"^odd names not in alphabet: \['b'\]$"):
        Alphabet.from_names(["a"], ["b"])


@pytest.mark.parametrize("odd", [[["a"]], [5, "c"]], ids=["list", "int"])
def test_from_names_rejects_an_odd_name_outside_the_grammar(odd):
    with pytest.raises(ValueError, match=r"^bad symbol name "):
        Alphabet.from_names(["a"], odd=odd)


def test_from_names_accepts_identifiers():
    alphabet = Alphabet.from_names(["_", "a1", "B_2"], odd=["a1"])
    assert alphabet.names == ("_", "a1", "B_2")
    w = alphabet.word("B_2.a1")
    assert alphabet.word(str(w)) == w


@pytest.mark.parametrize("bad", [1.5, 1.0, -1, 2, "a", None])
def test_word_rejects_a_rank_that_is_not_an_int_of_the_alphabet(bad):
    # 1.0 equals the rank 1 but is no rank; 2 is len(AB)
    with pytest.raises(ValueError, match=f"letter rank {bad!r} out of range"):
        Word(AB, (0, bad))


def test_word_takes_true_as_rank_one():
    w = Word(AB, (True, 0))
    assert w == AB.word("ba") and hash(w) == hash(AB.word("ba"))
    assert str(w) == "ba"


@pytest.mark.parametrize(
    "alphabet",
    [AB, AXT, Alphabet.from_names(["x1", "x2", "t"]), Alphabet.from_names(["_", "a1", "B_2"])],
)
def test_word_text_joins_the_names(alphabet):
    # one-character names concatenate (through the byte table), longer ones
    # join with dots, the empty word is "1", and the text reads back through
    # Alphabet.word
    sep = "." if any(len(name) > 1 for name in alphabet.names) else ""
    for n in range(5):
        for letters in product(range(len(alphabet)), repeat=n):
            text = str(Word(alphabet, letters))
            assert text == (sep.join(alphabet.names[r] for r in letters) or "1")
            assert alphabet.word(text).letters == letters


_FIRST = string.ascii_letters + "_"


@st.composite
def constructed_alphabets(draw):
    """An ``Alphabet(names, parities)`` of identifiers, all one character or not."""
    rest = st.text(_FIRST + string.digits, max_size=0 if draw(st.booleans()) else 3)
    name = st.builds(str.__add__, st.sampled_from(_FIRST), rest)
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    parities = st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names))
    return Alphabet(names, draw(parities))


@st.composite
def _monomials(draw, alphabet, size):
    if size == 1:
        return NcMonomial.leaf(alphabet, draw(st.integers(0, len(alphabet) - 1)))
    left = draw(st.integers(1, size - 1))
    return NcMonomial.pair(
        draw(_monomials(alphabet, left)), draw(_monomials(alphabet, size - left))
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_text_of_a_constructed_alphabet_parses_back(data):
    # the constructor holds every name to the rule, so each kind of text
    # reads back: a word, a polynomial and a bracketed monomial
    alphabet = data.draw(constructed_alphabets())
    words = st.lists(st.integers(0, len(alphabet) - 1), max_size=6).map(
        lambda letters: Word(alphabet, letters)
    )
    w = data.draw(words)
    assert alphabet.word(str(w)) == w
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    p = Poly(alphabet, data.draw(st.lists(st.tuples(words, coeffs), max_size=4)))
    assert parse_poly(alphabet, str(p)) == p
    m = data.draw(_monomials(alphabet, data.draw(st.integers(1, 5))))
    assert parse_monomial(alphabet, str(m)) == m


@pytest.mark.parametrize(
    "bad", ["", "1", "1a", "a,b", "a*b", "x.y", "a b", "α", 5, None, ["a"]], ids=repr
)
def test_alphabet_and_from_names_reject_a_name_outside_the_rule(bad):
    message = re.escape(
        f"bad symbol name {bad!r} at position 1: use letters, digits and '_', "
        "not starting with a digit"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        Alphabet(["a", bad], [0, 0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        Alphabet.from_names(["a", bad], odd=[bad])


@pytest.mark.parametrize(
    "names, odd",
    [("ab", "b"), ("abc", "b"), ("abcd", "ac"), (["x1", "x2", "t"], ["x2"]), ("lhkz", "z")],
)
def test_enumerated_words_are_the_checked_words(names, odd):
    # enumerate_super_ls builds its words without the rank check; each one is
    # the word the checked constructor builds from its letters
    alphabet = Alphabet.from_names(names, odd)
    words = enumerate_super_ls(alphabet, 7)
    assert any(not oracle_is_ls(w.letters) for w in words)  # odd squares among them
    for w in words:
        checked = Word(alphabet, w.letters)
        assert type(w) is Word and w.alphabet is alphabet
        assert w == checked and hash(w) == hash(checked)
        assert type(w.letters) is tuple and {type(r) for r in w.letters} == {int}


def test_equal_words_hash_alike():
    # the hash is the same for the unchecked, the checked and an equal alphabet's word
    words = enumerate_super_ls(AXT, 6)
    twin = Alphabet.from_names(["a", "x", "t"])
    assert twin is not AXT
    for w in words:
        h = hash(w)
        assert h == hash(Word._of(AXT, w.letters)) == hash(Word(AXT, w.letters))
        assert h == hash(Word(twin, w.letters)) == hash(Word._of(twin, w.letters))
    assert hash(AXT.empty_word()) == hash(Word._of(twin, ()))
