"""Reduction, traces, compositions, closure checking."""

import inspect
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from superlie import (
    LARGEST_LEFTMOST,
    SMALLEST_RIGHTMOST,
    Alphabet,
    Poly,
    RewriteRule,
    RewriteSystem,
    Word,
    assoc_compositions,
    build_relations,
    deglex_key,
    enumerate_h_basis,
    enumerate_reduced_super_ls,
    expand,
    is_gsb,
    is_reduced_word,
    lie_composition_len2,
    load_presentation,
    parse_poly,
    rank,
    reduce,
    superbracket,
)
from superlie import rewrite
from superlie.words import _super_ls_tuples
from superlie.bracketing import _normal_forms
from superlie.poly import from_letter_terms, letter_terms
from conftest import ALL, ab5, ex1, osp
from superlie.rewrite import STRATEGIES, ReductionStep, ReductionTrace, _framed
from conftest import random_poly, random_word
from test_words import _duval_super_ls

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

AXT = Alphabet.from_names(["a", "x", "t"])
ABXT = Alphabet.from_names(["a", "b", "x", "t"])


def system(alphabet, *texts):
    return RewriteSystem.from_polys(alphabet, [parse_poly(alphabet, s) for s in texts])


EX1_STYLE = system(AXT, "xa - ax", "ta - at - x")  # leading words xa, ta


# -- rules and systems -----------------------------------------------------------


def test_rule_is_normalized_monic():
    rule = RewriteRule(parse_poly(AXT, "2*xx - a"))
    assert rule.body == parse_poly(AXT, "xx - 1/2*a")
    assert str(rule.leading_word) == "xx"
    assert repr(rule) == "RewriteRule(xx - 1/2*a)"
    # rules built from equal bodies are equal and hash equal
    again = RewriteRule(parse_poly(AXT, "xx - 1/2*a"))
    assert again is not rule and again == rule and hash(again) == hash(rule)


def test_rule_rejects_zero_and_mixed_parity():
    with pytest.raises(ValueError):
        RewriteRule(Poly.zero(AXT))
    odd = Alphabet.from_names(["a", "x"], odd=["x"])
    with pytest.raises(ValueError):
        RewriteRule(parse_poly(odd, "xx - x"))


def test_rule_rejects_a_mixed_body_with_its_message():
    odd = Alphabet.from_names(["a", "x"], odd=["x"])
    body = parse_poly(odd, "xx - x")
    assert body.parity() is None
    with pytest.raises(ValueError, match="^rule body must be parity-homogeneous: xx - x$"):
        RewriteRule(body)


def test_alphabet_mismatches_are_rejected():
    foreign = RewriteRule(parse_poly(ABXT, "ba - a"))
    with pytest.raises(ValueError, match="^polynomial over a different alphabet than the system$"):
        reduce(Poly.monomial(ABXT.word("ba")), EX1_STYLE)
    with pytest.raises(ValueError, match="^polynomials over different alphabets$"):
        superbracket(Poly.monomial(AXT.word("a")), Poly.monomial(ABXT.word("a")))
    with pytest.raises(ValueError, match="^rules over different alphabets$"):
        assoc_compositions(EX1_STYLE.rules[0], foreign)
    with pytest.raises(ValueError, match="^rule over a different alphabet$"):
        RewriteSystem(AXT, [foreign])


def test_system_rejects_duplicate_leading_words():
    with pytest.raises(ValueError, match=r"^rules\[1\]: duplicate leading word 'xa'$"):
        system(AXT, "xa - ax", "xa - a")


# -- reduced words ----------------------------------------------------------------


def test_is_reduced_examples():
    assert is_reduced_word(AXT.word("ttx"), EX1_STYLE)
    assert not is_reduced_word(AXT.word("txa"), EX1_STYLE)
    empty = RewriteSystem(AXT)
    assert is_reduced_word(AXT.word("txa"), empty)


# -- reduction --------------------------------------------------------------------


def test_rule_reduces_to_zero():
    for rule in EX1_STYLE.rules:
        normal_form, trace = reduce(rule.body, EX1_STYLE)
        assert normal_form.is_zero()
        assert len(trace) >= 1


def test_replay_rejects_a_polynomial_its_trace_does_not_fit():
    s = system(ABXT, "ta - x")
    _, trace = reduce(Poly.monomial(ABXT.word("tab")), s)
    with pytest.raises(ValueError, match="^trace does not apply: 'tab' absent$"):
        trace.replay(Poly.monomial(ABXT.word("xb")), s)


def test_single_step_example():
    s = system(ABXT, "ta - x")
    normal_form, trace = reduce(Poly.monomial(ABXT.word("tab")), s)
    assert normal_form == Poly.monomial(ABXT.word("xb"))
    assert len(trace) == 1
    step = trace.steps[0]
    assert str(step.word) == "tab" and step.position == 0


def test_output_is_reduced_and_trace_replays():
    rng = Random(17)
    for _ in range(50):
        p = random_poly(rng, AXT)
        normal_form, trace = reduce(p, EX1_STYLE)
        assert all(is_reduced_word(w, EX1_STYLE) for w in normal_form.words())
        replayed, ideal_part = trace.replay(p, EX1_STYLE)
        assert replayed == normal_form
        assert p - normal_form == ideal_part
        assert trace.normal_form == normal_form


def test_trace_words_strictly_decrease_under_default_strategy():
    rng = Random(19)
    for _ in range(30):
        p = random_poly(rng, AXT)
        _, trace = reduce(p, EX1_STYLE)
        for s1, s2 in zip(trace.steps, trace.steps[1:]):
            assert deglex_key(s2.word) < deglex_key(s1.word)


def test_strategies_agree_on_closed_system():
    rng = Random(23)
    assert is_gsb(EX1_STYLE).passed
    for _ in range(50):
        p = random_poly(rng, AXT)
        nf_left, _ = reduce(p, EX1_STYLE, strategy=LARGEST_LEFTMOST)
        nf_right, _ = reduce(p, EX1_STYLE, strategy=SMALLEST_RIGHTMOST)
        assert nf_left == nf_right


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        reduce(Poly.zero(AXT), EX1_STYLE, strategy="bogus")


# -- the reference reduction: scan every term, position and rule, rebuild the Poly ----


def _reference_find_rewrite(p, system, strategy):
    words = [w for w, _ in p.terms()]  # descending deglex
    if strategy == SMALLEST_RIGHTMOST:
        words.reverse()
    for word in words:
        letters = word.letters
        positions = range(len(letters) + 1)  # an empty leading word occurs at the end too
        rule_order = enumerate(system.rules)
        if strategy == SMALLEST_RIGHTMOST:
            positions = reversed(positions)
            rule_order = reversed(list(rule_order))
        rule_list = list(rule_order)
        for pos in positions:
            for index, rule in rule_list:
                probe = rule.leading_word.letters
                if letters[pos : pos + len(probe)] == probe:
                    return word, index, pos
    return None


def reference_reduce(p, system, strategy=LARGEST_LEFTMOST):
    """The reduction as first written: each step rescans and rebuilds."""
    current = p
    steps = []
    while True:
        hit = _reference_find_rewrite(current, system, strategy)
        if hit is None:
            break
        word, rule_index, position = hit
        coeff = current.coefficient(word)
        current = current - coeff * _framed(system.rules[rule_index], word, position)
        steps.append((word.letters, rule_index, position))
    return current, ReductionTrace(steps, current)


def step_tuples(trace):
    return [(s.word, s.rule_index, s.position) for s in trace.steps]


def assert_reduces_as_reference(p, system):
    """Both strategies: the same steps and normal form as the reference."""
    forms = {}
    for strategy in STRATEGIES:
        normal_form, trace = reduce(p, system, strategy)
        expected, expected_trace = reference_reduce(p, system, strategy)
        assert step_tuples(trace) == step_tuples(expected_trace), (str(p), strategy)
        assert normal_form == expected and trace.normal_form == expected
        forms[strategy] = normal_form
    return forms


FIXTURE_SYSTEMS = {name: build_relations(load_presentation(d)) for name, d in ALL.items()}


def load_rules(path):
    data = json.loads(path.read_text())
    alphabet = Alphabet.from_names(
        [g["name"] for g in data["generators"]],
        [g["name"] for g in data["generators"] if g.get("parity") == 1],
    )
    return system(alphabet, *data["rules"])


BROKEN = load_rules(FIXTURES / "broken_rules.json")
ABC = Alphabet.from_names(["a", "b", "c"])
ABCD = Alphabet.from_names(["a", "b", "c", "d"])
AB_ODD = Alphabet.from_names(["a", "b"], odd=["b"])
TIE_RULES = ["bca - c", "bc - a", "d - a", "ba - ab"]  # bc is a prefix of bca
HAND_MADE = [
    system(ABCD, *TIE_RULES),
    system(ABCD, *reversed(TIE_RULES)),
    system(ABC, "cc - ca", "ca - b"),
    system(ABCD, "dd - ca", "cc - ca", "ca - b"),
    system(Alphabet.from_names(["a", "b", "c"], odd=["c"]), "cc - a", "cba - bc", "ba - ab"),
]


@pytest.fixture(autouse=True)
def empty_step_tables():
    """Every test meets the shared systems with empty step tables, whatever ran before."""
    for sys_ in (*FIXTURE_SYSTEMS.values(), BROKEN, *HAND_MADE):
        for table in sys_._steps:
            table.clear()


def random_rules_system(rng, max_den=3):
    """Rules with leading words of lengths 0-3 over two or three letters."""
    alphabet = rng.choice([ABC, AB_ODD])
    rules, leadings = [], set()
    for _ in range(rng.randint(1, 4)):
        words = [random_word(rng, alphabet, 3) for _ in range(rng.randint(1, 3))]
        p = Poly(
            alphabet,
            [(w, Fraction(rng.randint(-3, 3), rng.randint(1, max_den)))
             for w in words if w.parity == words[0].parity],
        )
        lead = p.leading()[0] if p else None
        if lead and lead not in leadings:
            leadings.add(lead)
            rules.append(RewriteRule(p))
    return RewriteSystem(alphabet, rules)


def random_case(rng):
    """A system (a fixture's relations, a hand-made or a random one) and a polynomial."""
    pick = rng.randrange(4)
    if pick == 0:
        sys_ = FIXTURE_SYSTEMS[rng.choice(sorted(FIXTURE_SYSTEMS))]
    elif pick == 1:
        sys_ = rng.choice(HAND_MADE + [BROKEN])
    else:
        sys_ = random_rules_system(rng)
    return sys_, random_poly(rng, sys_.alphabet, max_terms=4, max_len=6)


@pytest.mark.parametrize("name", sorted(FIXTURE_SYSTEMS))
def test_reduce_matches_reference_on_fixture_relations(name):
    rng = Random(name)
    sys_ = FIXTURE_SYSTEMS[name]
    for _ in range(12):
        assert_reduces_as_reference(random_poly(rng, sys_.alphabet, 4, 6), sys_)


def test_reduce_matches_reference_where_strategies_disagree():
    assert not is_gsb(BROKEN).passed
    forms = assert_reduces_as_reference(Poly.monomial(BROKEN.alphabet.word("xyv")), BROKEN)
    assert str(forms[LARGEST_LEFTMOST]) == "vv"
    assert str(forms[SMALLEST_RIGHTMOST]) == "v"
    rng = Random(5)
    divergences = 0
    for _ in range(40):
        forms = assert_reduces_as_reference(random_poly(rng, BROKEN.alphabet, 4, 6), BROKEN)
        divergences += forms[LARGEST_LEFTMOST] != forms[SMALLEST_RIGHTMOST]
    assert divergences > 0


def test_tie_at_one_position_goes_to_the_strategy_end_of_the_list():
    # bc and bca both occur at position 0 of bca: largest-leftmost takes the
    # first-listed of the two rules, smallest-rightmost the last-listed
    for sys_ in HAND_MADE[:2]:
        index = {str(r.leading_word): i for i, r in enumerate(sys_.rules)}
        first, last = sorted((index["bc"], index["bca"]))
        p = Poly.monomial(ABCD.word("bca"))
        for strategy, want in ((LARGEST_LEFTMOST, first), (SMALLEST_RIGHTMOST, last)):
            _, trace = reduce(p, sys_, strategy)
            assert (trace.steps[0].rule_index, trace.steps[0].position) == (want, 0)
        assert_reduces_as_reference(p, sys_)
    rng = Random(11)
    for sys_ in HAND_MADE:
        for _ in range(15):
            assert_reduces_as_reference(random_poly(rng, sys_.alphabet, 4, 6), sys_)


def test_word_that_cancels_and_comes_back_is_reduced_again():
    # smallest-rightmost rewrites ca, then cc brings ca back
    sys_ = HAND_MADE[2]
    p = parse_poly(ABC, "cc + ca")
    normal_form, trace = reduce(p, sys_, SMALLEST_RIGHTMOST)
    assert [str(s.word) for s in trace.steps] == ["ca", "cc", "ca"]
    assert normal_form == parse_poly(ABC, "2*b")
    # largest-leftmost: dd cancels ca, then cc brings it back
    sys_ = HAND_MADE[3]
    p = parse_poly(ABCD, "dd + cc - ca")
    normal_form, trace = reduce(p, sys_, LARGEST_LEFTMOST)
    assert [str(s.word) for s in trace.steps] == ["dd", "cc", "ca"]
    assert normal_form == parse_poly(ABCD, "b")
    for sys_, text in ((HAND_MADE[2], "cc + ca"), (HAND_MADE[3], "dd + cc - ca")):
        assert_reduces_as_reference(parse_poly(sys_.alphabet, text), sys_)


def test_reduce_matches_reference_on_random_systems():
    rng = Random(31)
    for _ in range(150):
        assert_reduces_as_reference(*reversed(random_case(rng)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_reduce_matches_reference_property(rng):
    sys_, p = random_case(rng)
    assert_reduces_as_reference(p, sys_)


# -- the integer kernel and the trace built on first read ------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_reduce_over_small_denominators_matches_reference(rng):
    # rules and inputs with coefficients p/q, q <= 6, so that the kernel's
    # common denominator grows and rescales mid-reduction
    sys_ = random_rules_system(rng, max_den=6)
    terms = [
        (random_word(rng, sys_.alphabet, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        for _ in range(rng.randint(1, 4))
    ]
    assert_reduces_as_reference(Poly(sys_.alphabet, terms), sys_)


def test_reduce_rescales_when_a_rule_denominator_does_not_divide():
    # x - 1/2 a and y - 1/2 x have integral bodies 2x - a and 2y - x: the odd
    # coefficients of y and x force the common denominator up to 4
    xy = Alphabet.from_names(["a", "b", "x", "y"])
    s = system(xy, "2*x - a", "2*y - x")
    p = parse_poly(xy, "3*y + x + b")
    normal_form, trace = reduce(p, s)
    assert normal_form == parse_poly(xy, "5/4*a + b")
    assert [str(step.word) for step in trace.steps] == ["y", "x"]
    assert_reduces_as_reference(p, s)
    # the kernel leaves int numerators over the denominator it returns
    acc = {(3,): 3, (2,): 1, (1,): 7}
    steps, den = rewrite._reduce_letters(acc, s, True)
    assert acc == {(0,): 5, (1,): 28} and den == 4
    assert all(type(c) is int for c in acc.values())
    assert [w for w, _, _ in steps] == [(3,), (2,)]


def halves_and_quarters_system(rng):
    """Rules over denominators 2 and 4, leading words of lengths 0-3.

    Each rule but the optional empty one has a tail of odd numerators over
    its own denominator, so its monic body has exactly that denominator.
    """
    alphabet = rng.choice([ABC, AB_ODD])
    rules, leadings = [], set()
    for den in (2, 4, rng.choice((2, 4))):
        while True:
            lead = random_word(rng, alphabet, 3)
            tail = {random_word(rng, alphabet, len(lead)) for _ in range(2)}
            tail = [
                w for w in tail if w.parity == lead.parity and deglex_key(w) < deglex_key(lead)
            ]
            if tail and lead not in leadings:
                break
        leadings.add(lead)
        terms = [(lead, 1)] + [(w, Fraction(rng.choice((-3, -1, 1, 3)), den)) for w in tail]
        rules.append(RewriteRule(Poly(alphabet, terms)))
        assert rules[-1]._denominator == den
    if rng.random() < 0.2:  # the empty word occurs at every position
        empty = RewriteRule(Poly.monomial(alphabet.empty_word()))
        rules.insert(rng.randrange(len(rules) + 1), empty)
    return RewriteSystem(alphabet, rules)


def test_reduce_over_halves_and_quarters_matches_reference_step_for_step(monkeypatch):
    # each normal form leaves the kernel as int numerators over its
    # denominator: in lowest terms, the Poly built from its Fraction terms
    rescales = []
    monkeypatch.setattr(rewrite, "gcd", lambda a, b: rescales.append(a) or math.gcd(a, b))
    rng = Random(2024)
    lengths = set()
    for _ in range(60):
        sys_ = halves_and_quarters_system(rng)
        lengths |= set(sys_._lengths)
        for _ in range(10):
            p = random_poly(rng, sys_.alphabet, 4, 5)
            for strategy in STRATEGIES:
                normal_form, trace = reduce(p, sys_, strategy)
                expected, expected_trace = reference_reduce(p, sys_, strategy)
                assert step_tuples(trace) == step_tuples(expected_trace), (str(p), strategy)
                assert normal_form == expected
                rebuilt = Poly(sys_.alphabet, normal_form.terms())
                assert (normal_form._den, normal_form._nums) == (rebuilt._den, rebuilt._nums)
    assert lengths == {0, 1, 2, 3} and rescales


# -- one system, many reductions: the step tables live on the system ---------------


def fresh_copy(sys_):
    """The same rules in a new system, whose step tables start empty."""
    return RewriteSystem(sys_.alphabet, sys_.rules)


def test_one_system_serves_many_reductions(monkeypatch):
    # the kernel calls gcd only when a rule denominator does not divide the
    # coefficient of the word it rewrites, that is when it rescales
    rescales = []
    monkeypatch.setattr(rewrite, "gcd", lambda a, b: rescales.append(a) or math.gcd(a, b))
    rng = Random(71)
    rational = random_rules_system(rng, max_den=6)
    while not any(r._denominator > 1 for r in rational.rules):
        rational = random_rules_system(rng, max_den=6)
    systems = [fresh_copy(FIXTURE_SYSTEMS[name]) for name in ("sl2", "osp", "ab5")]
    systems += [rational, system(ABC, "cb - a", "2/3", "aab")]
    for sys_ in systems:
        rescales.clear()
        polys = [random_poly(rng, sys_.alphabet, 4, 6) for _ in range(300)]
        for p in polys:
            for strategy in rng.sample(STRATEGIES, 2):
                normal_form, trace = reduce(p, sys_, strategy)
                expected, expected_trace = reference_reduce(p, sys_, strategy)
                fresh_form, fresh_trace = reduce(p, fresh_copy(sys_), strategy)
                assert step_tuples(trace) == step_tuples(expected_trace), (str(p), strategy)
                assert step_tuples(fresh_trace) == step_tuples(expected_trace)
                assert normal_form == expected == fresh_form
        assert all(sys_._steps), sys_  # both strategies' tables were filled
        assert rescales or sys_ is not rational
        # the tables outlive each call: reducing the stream again adds no entry
        sizes = [len(table) for table in sys_._steps]
        for p in polys[:30]:
            for strategy in STRATEGIES:
                reduce(p, sys_, strategy)
        assert [len(table) for table in sys_._steps] == sizes


def test_the_strategies_tables_never_mix():
    sys_ = fresh_copy(BROKEN)
    alphabet = sys_.alphabet
    rng = Random(5)
    polys = [Poly.monomial(alphabet.word("xyv"))]
    polys += [random_poly(rng, alphabet, 4, 6) for _ in range(60)]
    divergences = 0
    for p in polys:
        forms = {}
        for strategy in STRATEGIES:  # the calls alternate strategies
            normal_form, trace = reduce(p, sys_, strategy)
            expected, expected_trace = reference_reduce(p, sys_, strategy)
            assert step_tuples(trace) == step_tuples(expected_trace), (str(p), strategy)
            assert normal_form == expected
            forms[strategy] = normal_form
        divergences += forms[LARGEST_LEFTMOST] != forms[SMALLEST_RIGHTMOST]
    assert divergences > 0
    # each entry is the first step its own strategy takes on the word alone
    tables = {LARGEST_LEFTMOST: sys_._steps[True], SMALLEST_RIGHTMOST: sys_._steps[False]}
    for strategy, table in tables.items():
        for letters, hit in table.items():
            first = _reference_find_rewrite(Poly.monomial(Word(alphabet, letters)), sys_, strategy)
            assert hit == (first and first[1:]), (letters, strategy)
    left, right = tables.values()
    assert any(left[w] != right[w] for w in left.keys() & right.keys())


@pytest.mark.parametrize("load", [ex1, osp, ab5])
def test_check_iv_and_reduce_share_one_table(load):
    pres = load()
    alphabet = pres.alphabet
    sys_ = build_relations(pres)
    basis = enumerate_h_basis(pres, 7)
    expected = _normal_forms(basis, fresh_copy(sys_))
    assert not any(sys_._steps)
    # the closure check fills the table, then check (iv)'s forms read it
    report = is_gsb(sys_)
    assert report.passed and bool(sys_._steps[True]) == bool(report.checks)
    forms = _normal_forms(basis, sys_)
    assert forms == expected
    # reduce after the normal forms filled the table, both strategies
    rng = Random(load.__name__)
    sample = rng.sample(range(len(basis)), min(40, len(basis)))
    polys = [expand(basis[i]) for i in sample]
    polys += [random_poly(rng, alphabet, 4, 7) for _ in range(40)]
    for k, p in enumerate(polys):
        for strategy in STRATEGIES:
            normal_form, trace = reduce(p, sys_, strategy)
            fresh_form, fresh_trace = reduce(p, fresh_copy(sys_), strategy)
            assert normal_form == fresh_form and step_tuples(trace) == step_tuples(fresh_trace)
            if k < len(sample):
                assert normal_form == from_letter_terms(alphabet, forms[sample[k]])


def test_step_tables_stay_bounded_over_a_stream_of_distinct_polynomials(monkeypatch):
    # every entry comes through __missing__: record each table's size around
    # it; the table was emptied when it grows by no entry
    sizes, missing, default = [], rewrite._Steps.__missing__, rewrite._STEPS_KEPT

    def counted(table, letters):
        before = len(table)
        hit = missing(table, letters)
        sizes.append((before, len(table)))
        return hit

    monkeypatch.setattr(rewrite._Steps, "__missing__", counted)
    # at 1 the table is emptied at every new word, even within one reduction
    for kept in (40, 1):
        monkeypatch.setattr(rewrite, "_STEPS_KEPT", kept)
        sys_ = fresh_copy(FIXTURE_SYSTEMS["osp"])
        rng = Random(83)
        seen = set()
        sizes.clear()
        while len(seen) < 300:
            p = random_poly(rng, sys_.alphabet, 4, 7)
            if p in seen:
                continue
            seen.add(p)
            for strategy in rng.sample(STRATEGIES, 2):
                normal_form, trace = reduce(p, sys_, strategy)
                expected, expected_trace = reference_reduce(p, sys_, strategy)
                assert step_tuples(trace) == step_tuples(expected_trace), (kept, str(p), strategy)
                assert normal_form == expected
        assert max(after for _, after in sizes) == kept
        assert any(after <= before for before, after in sizes)
    # check (iv)'s forms meet more words than the bound, which holds within the walk
    pres = osp()
    sys_ = build_relations(pres)
    basis = enumerate_h_basis(pres, 6)
    monkeypatch.setattr(rewrite, "_STEPS_KEPT", default)
    expected = _normal_forms(basis, fresh_copy(sys_))
    monkeypatch.setattr(rewrite, "_STEPS_KEPT", 40)
    sizes.clear()
    assert _normal_forms(basis, sys_) == expected
    assert max(after for _, after in sizes) == 40
    assert any(after <= before for before, after in sizes)


def test_trace_steps_are_built_on_first_read_and_kept(monkeypatch):
    built = []
    monkeypatch.setattr(rewrite, "ReductionStep", lambda *a: built.append(a) or ReductionStep(*a))
    rng = Random(41)
    for _ in range(20):
        sys_, p = random_case(rng)
        for strategy in STRATEGIES:
            expected = reference_reduce(p, sys_, strategy)[1].steps
            built.clear()
            normal_form, trace = reduce(p, sys_, strategy)
            n = len(trace)
            assert built == []  # len counts the kernel's steps, builds none
            assert trace.steps == expected and len(built) == n == len(expected)
            assert trace.steps is trace.steps and len(built) == n
            assert repr(trace) == f"ReductionTrace({n} steps -> {normal_form})"


# -- compositions ------------------------------------------------------------------


def two_rules(alphabet, s, t):
    sys = system(alphabet, s, t)
    return sys.rules[0], sys.rules[1]


def test_single_letter_overlap():
    vyxz = Alphabet.from_names(["v", "z", "y", "x"])
    p, q = two_rules(vyxz, "xy - v", "yz - v")
    comps = assoc_compositions(p, q)
    assert [str(w) for w, _ in comps] == ["xyz"]
    word, comp = comps[0]
    # p*z - x*q with both rules monic
    z, x = Poly.monomial(vyxz.word("z")), Poly.monomial(vyxz.word("x"))
    assert comp == p.body * z - x * q.body


def test_overlap_example_stable_letter_shape():
    p, q = two_rules(ABXT, "ta - at - x", "ab - b")
    comps = assoc_compositions(p, q)
    assert [str(w) for w, _ in comps] == ["tab"]


def test_disjoint_leading_words_have_no_composition():
    uvxyz = Alphabet.from_names(["u", "z", "y", "x"])
    p, q = two_rules(uvxyz, "xy - u", "zu - u")
    assert assoc_compositions(p, q) == []


def test_self_overlap():
    (p,) = system(AXT, "aa - x").rules
    comps = assoc_compositions(p, p)
    assert [str(w) for w, _ in comps] == ["aaa"]


def test_inclusion_composition():
    s = system(AXT, "ata - x", "t - a")
    p, q = s.rules[0], s.rules[1]
    comps = assoc_compositions(p, q)
    assert [str(w) for w, _ in comps] == ["ata"]
    word, comp = comps[0]
    a = Poly.monomial(AXT.word("a"))
    assert comp == p.body - a * q.body * a


def test_is_gsb_empty_system_passes():
    report = is_gsb(RewriteSystem(AXT))
    assert report.passed and report.checks == ()


def test_is_gsb_broken_pair_fails_with_nonzero_normal_form():
    # frozen by hand: the xyz overlap of xy - v and yv - y reduces to v - vv
    vyx = Alphabet.from_names(["v", "y", "x"])
    s = system(vyx, "xy - v", "yv - y")
    report = is_gsb(s)
    assert not report.passed
    failures = report.failures()
    assert len(failures) == 1
    check = failures[0]
    assert str(check.word) == "xyv"
    assert check.normal_form == parse_poly(vyx, "v - vv")


def test_is_gsb_report_is_deglex_ordered_and_serializable():
    s = system(AXT, "aa - x", "xa - ax")
    report = is_gsb(s)
    words = [deglex_key(c.word) for c in report.checks]
    assert words == sorted(words)
    d = report.to_dict()
    assert set(d) == {"passed", "compositions"}
    assert all(set(c) == {"left", "right", "word", "normal_form", "passed"}
               for c in d["compositions"])


def all_pairs_checks(system):
    """(word, left, right, composition, normal form) of every ordered rule pair, in report order.

    The oracle for ``is_gsb``, which composes only the pairs its index of
    first letters names.
    """
    checks = []
    for i, p in enumerate(system.rules):
        for j, q in enumerate(system.rules):
            for word, composition in assoc_compositions(p, q):
                checks.append((word, i, j, composition, reduce(composition, system)[0]))
    checks.sort(key=lambda c: (deglex_key(c[0]), c[1], c[2]))
    return checks


def assert_is_gsb_matches_all_pairs(sys_):
    report = is_gsb(sys_)
    expected = all_pairs_checks(sys_)
    got = [(c.word, c.left, c.right, c.composition, c.normal_form) for c in report.checks]
    assert got == expected, sys_
    assert report.passed == all(form.is_zero() for *_, form in expected)
    assert all(c.passed == c.normal_form.is_zero() for c in report.checks)


def test_is_gsb_composes_an_empty_leading_word_with_every_rule():
    # the empty word occurs at each of the n + 1 positions of a leading word
    # of length n, so the constant rule is included in each rule that way
    s = system(ABC, "cb - a", "2/3", "aab")
    report = is_gsb(s)
    assert sorted((str(c.word), c.left, c.right) for c in report.checks) == sorted(
        [("cb", 0, 1)] * 3 + [("aab", 2, 1)] * 4
    )
    assert report.passed
    assert_is_gsb_matches_all_pairs(s)


def test_is_gsb_matches_all_pairs_on_random_rules():
    # leading words of lengths 0-3; a constant rule in about a third of them
    rng = Random(59)
    systems = list(FIXTURE_SYSTEMS.values()) + HAND_MADE + [BROKEN]
    for _ in range(120):
        sys_ = random_rules_system(rng)
        if rng.random() < 0.35 and all(r.leading_len for r in sys_.rules):
            constant = RewriteRule(Poly.monomial(sys_.alphabet.empty_word(), Fraction(-3, 2)))
            rules = list(sys_.rules)
            rules.insert(rng.randint(0, len(rules)), constant)
            sys_ = RewriteSystem(sys_.alphabet, rules)
        systems.append(sys_)
    assert any(not all(r.leading_len for r in s.rules) for s in systems)
    assert {r.leading_len for s in systems for r in s.rules} == {0, 1, 2, 3}
    for sys_ in systems:
        assert_is_gsb_matches_all_pairs(sys_)


# -- reduced super-LS enumeration ---------------------------------------------------


def test_enumerate_reduced_super_ls_ex1_relations():
    words = enumerate_reduced_super_ls(EX1_STYLE, 2)
    assert [str(w) for w in words] == ["a", "x", "t", "tx"]
    words3 = [w for w in enumerate_reduced_super_ls(EX1_STYLE, 3) if len(w) == 3]
    assert sorted(str(w) for w in words3) == ["ttx", "txx"]


def test_enumerate_reduced_super_ls_empty_system():
    x_odd = Alphabet.from_names(["x"], odd=["x"])
    words = enumerate_reduced_super_ls(RewriteSystem(x_odd), 3)
    assert [str(w) for w in words] == ["x", "xx"]


def test_enumerate_reduced_super_ls_is_the_filtered_scan():
    # growing reduced prefixes must find exactly the super-LS words of the
    # full scan that pass is_reduced_word, in the same order; the systems
    # include leading words of lengths 1 to 3 and an odd square
    ax_odd = Alphabet.from_names(["a", "x", "t"], odd=["x"])
    systems = [
        EX1_STYLE,
        RewriteSystem(AXT),
        system(AXT, "txa - atx", "xx - a"),
        system(ABXT, "xa - ax", "ta - at - x", "tbx - xbt", "bb"),
        system(AXT, "x"),
        system(ax_odd, "xx - a", "tx - xt"),
    ]
    for sys_ in systems:
        scan = [w for w in _duval_super_ls(sys_.alphabet, 6) if is_reduced_word(w, sys_)]
        assert enumerate_reduced_super_ls(sys_, 6) == scan, sys_
    with pytest.raises(ValueError, match="max_len"):
        enumerate_reduced_super_ls(EX1_STYLE, 0)


def test_enumerate_reduced_super_ls_under_random_systems_is_the_filtered_scan():
    # random monomial leading words of length 2 (a successor table) and 3;
    # one odd letter x has xx forbidden, so x is reduced and its square is
    # blocked only across the junction
    rng = Random(31)
    for _ in range(30):
        size = rng.randint(2, 4)
        names = "abcd"[:size]
        odd = [x for x in names if rng.random() < 0.5] or [rng.choice(names)]
        alphabet = Alphabet.from_names(names, odd=odd)
        x = rng.choice(odd)
        leading = {x + x}
        leading |= {a + b for a in names for b in names if rng.random() < 0.25}
        leading |= {"".join(rng.choices(names, k=3)) for _ in range(rng.randint(0, 2))}
        sys_ = system(alphabet, *sorted(leading))
        scan = [w for w in _duval_super_ls(alphabet, 7) if is_reduced_word(w, sys_)]
        words = enumerate_reduced_super_ls(sys_, 7)
        assert words == scan, sys_
        assert alphabet.word(x) in words and alphabet.word(x + x) not in words


def _under_a_lowered_recursion_limit(walk):
    """``walk()`` with the recursion limit 40 frames above the caller's."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        return walk()
    finally:
        sys.setrecursionlimit(limit)


def test_constrained_walk_of_any_depth():
    # over a < b with the leading words bb and ab, the reduced super-LS words
    # are a, b and b a^k: few, but one of each length, so the walk goes as
    # deep as max_len, and it does not recurse
    ab = Alphabet.from_names(["a", "b"])
    sys_ = system(ab, "bb", "ab")
    expected = ["a", "b"] + ["b" + "a" * k for k in range(1, 3000)]
    got = _under_a_lowered_recursion_limit(lambda: enumerate_reduced_super_ls(sys_, 3000))
    assert [str(w) for w in got] == expected


AX_ODD = Alphabet.from_names(["a", "x", "t"], odd=["x"])
WALKS = {
    "unconstrained": lambda: _super_ls_tuples(AX_ODD.parities, 8),
    "constrained": lambda: enumerate_reduced_super_ls(
        system(ABXT, "xa - ax", "ta - at - x", "tbx - xbt", "bb"), 7
    ),
    "weighted": lambda: _super_ls_tuples((0, 1, 1, 0), 9, weights=(1, 2, 3, 1)),
}


@pytest.mark.parametrize("kind", WALKS)
def test_walk_under_a_lowered_recursion_limit_gives_the_same_words(kind):
    walk = WALKS[kind]
    assert _under_a_lowered_recursion_limit(walk) == walk()


def test_enumerate_reduced_super_ls_checks_each_tail_once(monkeypatch):
    # the letters allowed after each tail of k - 1 letters are found once
    # per call, and only the returned words become Words besides the probes
    probes = []
    real = rewrite.is_reduced_word
    monkeypatch.setattr(rewrite, "is_reduced_word", lambda w, s: probes.append(w) or real(w, s))
    created = []
    init = Word.__init__
    monkeypatch.setattr(Word, "__init__", lambda self, *a: created.append(self) or init(self, *a))
    for sys_, k in ((EX1_STYLE, 2), (system(ABXT, "xa - ax", "tbx - xbt", "bb"), 3)):
        probes.clear()
        created.clear()
        words = enumerate_reduced_super_ls(sys_, 8)
        size = len(sys_.alphabet)
        assert len(probes) <= sum(size**j for j in range(1, k + 1))
        assert len(set(probes)) == len(probes)
        assert len(created) == len(probes) + len(words)


def test_reduced_word_counts_match_quotient_dimensions():
    # graded dimensions of the quotient, computed by rank over reduce-images
    # of all words, must equal the reduced-word counts at each length
    from itertools import product as iproduct

    system = EX1_STYLE
    images, ranks_by_len = [], [0]
    for n in range(1, 5):
        for letters in iproduct(range(3), repeat=n):
            images.append(letter_terms(reduce(Poly.monomial(Word(AXT, letters)), system)[0]))
        ranks_by_len.append(rank(images)[0])
    for n in range(1, 5):
        reduced_count = sum(
            1
            for letters in iproduct(range(3), repeat=n)
            if is_reduced_word(Word(AXT, letters), system)
        )
        assert ranks_by_len[n] - ranks_by_len[n - 1] == reduced_count


def test_fuzz_random_systems_sound_everywhere_confluent_when_closed():
    # random parity-homogeneous systems: reduction always terminates with
    # reduced output and an exactly replaying trace; the two strategies must
    # agree whenever the closure check passes, and with this seed the
    # non-closed regime produces at least one genuine divergence
    from fractions import Fraction as F

    rng = Random(2024)
    alphabets = [
        Alphabet.from_names(["a", "b"]),
        Alphabet.from_names(["a", "b"], odd=["b"]),
        Alphabet.from_names(["a", "b", "c"], odd=["a", "c"]),
    ]

    def random_hom_poly(alphabet, parity, max_terms, max_len):
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            for _ in range(300):
                n = rng.randint(0, max_len)
                w = Word(
                    alphabet,
                    tuple(rng.randrange(len(alphabet)) for _ in range(n)),
                )
                if w.parity == parity:
                    break
            terms.append((w, F(rng.randint(-3, 3), rng.randint(1, 3))))
        return Poly(alphabet, terms)

    divergences = 0
    for _ in range(120):
        alphabet = rng.choice(alphabets)
        rules, leadings = [], set()
        for _ in range(rng.randint(1, 3)):
            p = random_hom_poly(alphabet, rng.randrange(2), 3, 3)
            if p.is_zero():
                continue
            lead = p.leading()[0]
            if not lead.letters or lead in leadings:
                continue
            leadings.add(lead)
            rules.append(RewriteRule(p))
        sys_ = RewriteSystem(alphabet, rules)
        closed = is_gsb(sys_).passed
        for _ in range(2):
            q = random_hom_poly(alphabet, rng.randrange(2), 4, 4)
            results = {}
            for strat in (LARGEST_LEFTMOST, SMALLEST_RIGHTMOST):
                nf, trace = reduce(q, sys_, strategy=strat)
                assert all(is_reduced_word(w, sys_) for w in nf.words())
                replayed, ideal = trace.replay(q, sys_)
                assert replayed == nf and q - nf == ideal
                results[strat] = nf
            if closed:
                assert results[LARGEST_LEFTMOST] == results[SMALLEST_RIGHTMOST]
            elif results[LARGEST_LEFTMOST] != results[SMALLEST_RIGHTMOST]:
                divergences += 1
    assert divergences > 0  # the non-closed regime is really exercised


def test_broken_table_fails_both_composition_routes():
    # a bracket table violating the Jacobi identity: [b,a]=a, [c,b]=b, [c,a]=0;
    # the associative closure check and the superbracket composition must
    # agree on the failure, with the same nonzero normal form
    abc = Alphabet.from_names(["a", "b", "c"])
    s = system(abc, "ba - ab - a", "cb - bc - b", "ca - ac")
    report = is_gsb(s)
    assert not report.passed
    assoc_forms = {str(c.normal_form) for c in report.failures()}
    rules = {str(r.leading_word): r for r in s.rules}
    comp = lie_composition_len2(rules["cb"], rules["ba"], abc.word("cba"))
    lie_form, _ = reduce(comp, s)
    assert not lie_form.is_zero()
    assert str(lie_form) in assoc_forms


# -- superbracket compositions of length-2 leading words ------------------------------


def test_lie_composition_matches_hand_formula():
    vyxz = Alphabet.from_names(["v", "z", "y", "x"])
    p, q = two_rules(vyxz, "xy - v", "yz - v")
    w = vyxz.word("xyz")
    got = lie_composition_len2(p, q, w)
    z, x = Poly.monomial(vyxz.word("z")), Poly.monomial(vyxz.word("x"))
    assert got == superbracket(p.body, z) - superbracket(x, q.body)


def test_lie_composition_absorbs_odd_square_normalization():
    # [g, a] - 1/2 [t, f] with f = [a,a] - ..., realized through monic rules
    odd = Alphabet.from_names(["a", "x", "t"], odd=["a", "t"])
    g = RewriteRule(parse_poly(odd, "ta + at - x"))
    f = RewriteRule(parse_poly(odd, "2*aa"))  # stored monic: aa
    w = odd.word("taa")
    got = lie_composition_len2(g, f, w)
    a, t = Poly.monomial(odd.word("a")), Poly.monomial(odd.word("t"))
    f_full = parse_poly(odd, "2*aa")
    expected = superbracket(g.body, a) - Fraction(1, 2) * superbracket(t, f_full)
    assert got == expected


def test_lie_composition_rejects_a_word_that_is_not_the_overlap():
    s = system(AXT, "tx - a", "xa - a")  # leading words tx, xa: overlap txa
    tx, xa = s.rules
    with pytest.raises(ValueError, match="^word 'txx' is not the overlap of the leading words$"):
        lie_composition_len2(tx, xa, AXT.word("txx"))


def test_lie_composition_shape_errors():
    p, q = EX1_STYLE.rules[0], EX1_STYLE.rules[1]  # leading xa, ta
    with pytest.raises(ValueError):
        lie_composition_len2(p, q, AXT.word("xata"))  # no single-letter overlap
    s = system(AXT, "xxa - a")
    with pytest.raises(ValueError):
        lie_composition_len2(s.rules[0], s.rules[0], AXT.word("xxaxa"))
