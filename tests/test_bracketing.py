"""Monomial trees, standard bracketings, admissibility."""

import pytest

from superlie import (
    Alphabet,
    NcMonomial,
    Poly,
    Word,
    enumerate_super_ls,
    expand,
    is_admissible,
    parse_monomial,
    parse_poly,
    rank,
    standard_bracket,
    superbracket,
)
from superlie import bracketing
from superlie.poly import letter_terms
from superlie.words import _is_ls_letters
from conftest import left_comb, reference_expand
from test_linalg import is_unitriangular
from test_words import GT, lex_cmp

XT = Alphabet.from_names(["x", "t"])
AB = Alphabet.from_names(["a", "b"])
A_ODD = Alphabet.from_names(["a"], odd=["a"])


def leaf(alphabet, name):
    return NcMonomial.leaf(alphabet, alphabet.symbol(name).rank)


def pair(u, v):
    return NcMonomial.pair(u, v)


def all_bracketings(w: Word):
    """Every binary tree over the letters of ``w`` (Catalan many)."""
    letters = w.letters
    if len(letters) == 1:
        yield NcMonomial.leaf(w.alphabet, letters[0])
        return
    for split in range(1, len(letters)):
        for left in all_bracketings(w.sub(0, split)):
            for right in all_bracketings(w.sub(split, len(letters))):
                yield NcMonomial.pair(left, right)


def is_ls_monomial(m):
    """Recursive Lyndon-Shirshov monomial test.

    A leaf qualifies; a pair (u1, u2) qualifies when u1 > u2 on underlying
    words, both halves qualify, and (if u1 = (v1, v2)) v2 <= u2.
    """
    if m.is_leaf:
        return True
    u1, u2 = m.left, m.right
    return (
        lex_cmp(u1.word, u2.word) == GT
        and is_ls_monomial(u1)
        and is_ls_monomial(u2)
        and (u1.is_leaf or lex_cmp(u1.right.word, u2.word) != GT)
    )


def is_super_ls_monomial(m):
    """LS monomial, or (u, u) with u an odd LS monomial."""
    if is_ls_monomial(m):
        return True
    return not m.is_leaf and m.left == m.right and m.left.parity == 1 and is_ls_monomial(m.left)


def test_forget_examples():
    # the word of a tree reads its leaves left to right
    t, x = leaf(XT, "t"), leaf(XT, "x")
    assert str(pair(pair(t, x), x).word) == "txx"
    assert str(t.word) == "t"
    ab = pair(leaf(AB, "a"), leaf(AB, "b"))
    assert str(pair(ab, ab).word) == "abab"


def test_ls_monomial_examples():
    t, x = leaf(XT, "t"), leaf(XT, "x")
    assert is_ls_monomial(pair(pair(t, x), x))
    assert not is_ls_monomial(pair(t, pair(x, x)))  # (x,x) fails x > x
    a = leaf(A_ODD, "a")
    assert not is_ls_monomial(pair(a, a))
    assert is_super_ls_monomial(pair(a, a))


def test_standard_bracket_examples():
    assert str(standard_bracket(XT.word("txx"))) == "[[t,x],x]"
    assert standard_bracket(XT.word("t")) == leaf(XT, "t")
    a = leaf(A_ODD, "a")
    assert standard_bracket(A_ODD.word("aa")) == pair(a, a)
    assert str(standard_bracket(XT.word("ttx"))) == "[t,[t,x]]"


def test_standard_bracket_rejects_non_super_ls():
    with pytest.raises(ValueError):
        standard_bracket(XT.word("xt"))
    with pytest.raises(ValueError):
        standard_bracket(XT.word("tt"))


@pytest.mark.parametrize(
    "alphabet,max_len",
    [
        (AB, 6),
        (Alphabet.from_names(["a", "b"], odd=["a"]), 6),
        (Alphabet.from_names(["a", "x", "t"], odd=["x", "t"]), 5),
    ],
)
def test_standard_bracket_is_the_unique_super_ls_monomial(alphabet, max_len):
    # certification of the factorization choice: among all bracketings of a
    # super-LS word exactly one is a super-LS monomial, and we produce it
    for w in enumerate_super_ls(alphabet, max_len):
        matches = [m for m in all_bracketings(w) if is_super_ls_monomial(m)]
        assert len(matches) == 1
        assert matches[0] == standard_bracket(w)
        assert matches[0].word == w


SUPER_LS_ALPHABETS = [
    AB,
    Alphabet.from_names(["a", "b"], odd=["a"]),
    Alphabet.from_names(["a", "x", "t"], odd=["x", "t"]),
]


def subtrees(m):
    """Every node of ``m``, a shared subtree once per place it occurs."""
    yield m
    if not m.is_leaf:
        yield from subtrees(m.left)
        yield from subtrees(m.right)


def _substituted(m, trees):
    """``m`` built anew with each leaf ``r`` replaced by ``trees[r]``."""
    if m.is_leaf:
        return trees[m.rank]
    return NcMonomial.pair(_substituted(m.left, trees), _substituted(m.right, trees))


def test_standard_bracket_with_seeded_letters_substitutes_them():
    # a seeded entry is used as given: with each single letter seeded by a
    # tree over another alphabet, the standard bracketing comes with those
    # trees at its leaves and spells the substituted word
    alphabet = Alphabet.from_names(["a", "b", "c"], odd=["b"])
    xt = Alphabet.from_names(["x", "t"], odd=["t"])
    trees = [parse_monomial(xt, text) for text in ("x", "[t,x]", "[[t,t],x]")]
    seed = {(r,): m for r, m in enumerate(trees)}
    shared = dict(seed)
    words = enumerate_super_ls(alphabet, 6)
    assert any(not _is_ls_letters(w.letters) for w in words)  # odd squares included
    for w in words:
        expected = _substituted(standard_bracket(w), trees)
        m = standard_bracket(w, dict(seed))
        assert m == expected and hash(m) == hash(expected) and str(m) == str(expected)
        assert m.word.letters == sum((trees[r].word.letters for r in w.letters), ())
        assert standard_bracket(w, shared) == expected


@pytest.mark.parametrize("alphabet", SUPER_LS_ALPHABETS)
def test_standard_bracket_with_a_memo_matches_standard_bracket(alphabet):
    words = enumerate_super_ls(alphabet, 6)
    # the squares of odd LS words included
    assert any(not _is_ls_letters(w.letters) for w in words) == any(alphabet.parities)
    # one memo per order: shortest words first finds every proper subtree
    # in the memo, longest first finds the shorter words themselves there
    for order in (words, words[::-1]):
        memo = {}
        for w in order:
            m = standard_bracket(w, memo)
            fresh = standard_bracket(w)
            assert m == fresh and hash(m) == hash(fresh) and str(m) == str(fresh)
            assert memo[w.letters] is m and standard_bracket(w, memo) is m
            for node in subtrees(m):
                assert memo[node.word.letters] is node
        assert len(memo) == len({n.word.letters for w in words for n in subtrees(memo[w.letters])})
    with pytest.raises(ValueError, match="not a super-Lyndon-Shirshov word"):
        standard_bracket(XT.word("xt"), {})


def test_monomial_parity_is_its_word_parity():
    abc = Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])
    trees = [m for text in ("a", "b", "aa", "cbaca", "ccaab") for m in all_bracketings(abc.word(text))]
    trees += [parse_monomial(abc, text) for text in ("[[a,a],[c,b]]", "[[a,c],[a,c]]")]
    for m in trees:
        for node in subtrees(m):
            assert node.parity == node.word.parity


def test_expand_examples():
    t, x = leaf(XT, "t"), leaf(XT, "x")
    assert expand(pair(t, x)) == parse_poly(XT, "tx - xt")
    word, coeff = expand(standard_bracket(XT.word("txx"))).leading()
    assert str(word) == "txx" and coeff == 1
    a = leaf(A_ODD, "a")
    assert expand(pair(a, a)) == parse_poly(A_ODD, "2*aa")


def test_expand_matches_the_reference_on_every_bracketing():
    # every tree over a few mixed-parity words, shared subtrees included
    abc = Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])
    trees = [m for text in ("cbaca", "cacba", "ccaab") for m in all_bracketings(abc.word(text))]
    x = leaf(abc, "a")
    trees += [pair(x, x), pair(pair(x, x), pair(x, x))]
    for m in trees:
        assert expand(m) == reference_expand(m)


def test_expand_and_superbracket_build_one_poly(monkeypatch):
    abc = Alphabet.from_names(["a", "b", "c"], odd=["b"])
    w = enumerate_super_ls(abc, 7)[-1]
    m = standard_bracket(w)
    p, q = expand(m.left), expand(m.right)
    assert len(w) == 7
    built = []
    init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    expansion = expand(m)
    assert built == [expansion]
    built.clear()
    assert superbracket(p, q) == expansion
    assert len(built) == 1


def test_admissibility_of_standard_brackets():
    for alphabet in (AB, Alphabet.from_names(["a", "b"], odd=["a", "b"])):
        for w in enumerate_super_ls(alphabet, 7):
            m = standard_bracket(w)
            assert is_admissible(m)
            word, coeff = expand(m).leading()
            assert word == w
            assert coeff == (1 if _is_ls_letters(w.letters) else 2)


def test_admissibility_accepts_non_standard_bracketings():
    m = parse_monomial(XT, "[t,[t,x]]")
    assert str(standard_bracket(XT.word("ttx"))) == "[t,[t,x]]"
    assert is_admissible(m)
    assert expand(m) == parse_poly(XT, "ttx - 2*txt + xtt")


def test_admissibility_rejects_degenerate_bracketing():
    m = parse_monomial(XT, "[[t,t],x]")
    assert expand(m).is_zero()  # [t,t] = 0 for even t
    assert not is_admissible(m)


def test_admissibility_reads_a_given_expansion():
    # a given expansion, read by the is_unitriangular oracle: the leading
    # term is_admissible reads from expand(m) when its recursion cancels
    m = parse_monomial(XT, "[t,[t,x]]")
    assert is_admissible(m) and is_unitriangular([(m.word, expand(m))])
    assert not is_unitriangular([(m.word, parse_poly(XT, "2*ttx - 4*txt + 2*xtt"))])
    assert not is_unitriangular([(m.word, Poly.zero(XT))])
    assert not is_unitriangular([(XT.word("tx"), expand(m))])


def test_admissibility_requires_super_ls_word():
    with pytest.raises(ValueError):
        is_admissible(parse_monomial(XT, "[x,t]"))


def test_every_admissible_bracketing_certifies_its_word():
    # any bracketing passing is_admissible leads with its own word
    for w in enumerate_super_ls(XT, 5):
        for m in all_bracketings(w):
            if is_admissible(m):
                word, coeff = expand(m).leading()
                assert word == w and coeff in (1, 2)


def test_recursive_leading_term_matches_the_expansion():
    # the same bracketings, with both parities of t and a mixed-parity alphabet
    xt_odd = Alphabet.from_names(["x", "t"], odd=["t"])
    abc = Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])
    words = [w for alphabet in (XT, xt_odd) for w in enumerate_super_ls(alphabet, 5)]
    words += [w for w in enumerate_super_ls(abc, 4) if len(w) == 4]
    for w in words:
        for m in all_bracketings(w):
            expansion = expand(m)
            lead = m._leading
            if lead is not None:
                word, coeff = expansion.leading()
                assert (word.letters, coeff) == lead, m
            assert is_admissible(m) == is_unitriangular([(w, expansion)]), m


def test_cancelled_leading_term_falls_back_to_expand(monkeypatch):
    expanded = []
    real = bracketing.expand
    monkeypatch.setattr(bracketing, "expand", lambda m: expanded.append(m) or real(m))
    m = parse_monomial(XT, "[[t,t],x]")
    assert m._leading is None  # [t,t] = tt - tt for even t
    assert not is_admissible(m)
    assert expanded == [m]
    expanded.clear()
    xt_odd = Alphabet.from_names(["x", "t"], odd=["t"])
    assert not is_admissible(parse_monomial(xt_odd, "[[t,t],x]"))  # leads 2*ttx
    assert is_admissible(parse_monomial(xt_odd, "[t,[t,x]]"))
    assert is_admissible(parse_monomial(XT, "[t,[t,x]]"))
    assert expanded == []


def _uncached_lead(m):
    """The leading-term recursion on word parities, keeping nothing on the nodes."""
    if m.is_leaf:
        return (m.rank,), 1
    left, right = _uncached_lead(m.left), _uncached_lead(m.right)
    if left is None or right is None:
        return None
    (u, cu), (v, cv) = left, right
    uv, vu, c = u + v, v + u, cu * cv
    swapped = c if m.left.word.parity and m.right.word.parity else -c
    if uv != vu:
        return (uv, c) if uv > vu else (vu, swapped)
    return (uv, c + swapped) if c + swapped else None


def test_cached_leading_term_matches_a_fresh_recursion():
    xt_odd = Alphabet.from_names(["x", "t"], odd=["t"])
    abc = Alphabet.from_names(["a", "b", "c"], odd=["a", "c"])
    trees = [m for alphabet in (XT, xt_odd) for w in enumerate_super_ls(alphabet, 5)
             for m in all_bracketings(w)]
    trees += [m for w in enumerate_super_ls(abc, 4) if len(w) == 4 for m in all_bracketings(w)]
    # parsed trees, leads that cancel ([x,x] and [t,t] even) among them
    trees += [parse_monomial(XT, text) for text in ("[x,x]", "[[t,t],x]", "[t,[t,x]]")]
    trees += [parse_monomial(xt_odd, text) for text in ("[t,t]", "[[t,t],x]", "[[t,x],[t,x]]")]
    u = parse_monomial(abc, "[a,b]")
    trees += [pair(u, u), pair(pair(u, u), pair(u, u))]  # shared subtrees
    cancelled = 0
    for m in trees:
        # every node holds its leading term from construction, before any read
        for node in subtrees(m):
            assert node._leading == _uncached_lead(node), node
        expansion = expand(m)
        if m._leading is None:
            cancelled += 1
        else:
            word, coeff = expansion.leading()
            assert (word.letters, coeff) == m._leading, m
    assert cancelled >= 3


def test_is_admissible_reads_a_deep_comb_without_recursion():
    # [..[[t,x],x]..,x] with 2000 x's: the left-normed bracketing of the LS
    # word tx...x, built bottom up, leads with its own word at coefficient 1
    x, t = XT.symbol("x").rank, XT.symbol("t").rank
    assert is_admissible(left_comb(XT, t, [x] * 2000))


def test_right_normed_matches_standard_on_block_words():
    x1x2t = Alphabet.from_names(["x1", "x2", "t"], odd=["x2"])
    t = x1x2t.symbol("t").rank
    for tail in ([], [0], [0, 0], [1], [0, 1], [0, 0, 1], [0, 0, 0, 1]):
        m = left_comb(x1x2t, t, tail)
        assert m == standard_bracket(m.word)


def test_right_normed_unique_prefixed_word():
    # the expansion supports exactly one word beginning with the head letter
    x1x2t = Alphabet.from_names(["x1", "x2", "t"], odd=["t"])
    t = x1x2t.symbol("t").rank
    for tail in ([0], [0, 1], [0, 0, 1]):
        m = left_comb(x1x2t, t, tail)
        prefixed = [w for w, _ in expand(m).terms() if w.letters[0] == t]
        assert prefixed == [m.word]


def test_standard_bracket_expansions_are_independent():
    for alphabet in (AB, Alphabet.from_names(["a", "b"], odd=["b"])):
        words = enumerate_super_ls(alphabet, 5)
        for n in range(1, 6):
            layer = [w for w in words if len(w) == n]
            vectors = [letter_terms(expand(standard_bracket(w))) for w in layer]
            r, _ = rank(vectors)
            assert r == len(layer)


def test_monomial_text_round_trip():
    for text in ("t", "[t,x]", "[[t,x],x]", "[t,[t,x]]", "[[t,x],[t,x]]"):
        m = parse_monomial(XT, text)
        assert str(m) == text
        assert parse_monomial(XT, str(m)) == m


def test_monomial_parse_errors():
    for bad in ("", "[t,x", "[t x]", "t]", "[q,t]", "[t,x] junk"):
        with pytest.raises(ValueError):
            parse_monomial(XT, bad)


def test_monomial_value_semantics():
    m1 = parse_monomial(XT, "[[t,x],x]")
    m2 = pair(pair(leaf(XT, "t"), leaf(XT, "x")), leaf(XT, "x"))
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1 != parse_monomial(XT, "[t,[t,x]]")
