"""Structure-constant validation, relation building, bases, structure theorem."""

import copy
import gc
import json
import zlib
from fractions import Fraction
from itertools import chain, product
from math import comb
from random import Random

import pytest

from superlie import (
    Alphabet,
    NcMonomial,
    StructureConstants,
    Symbol,
    Word,
    build_relations,
    deglex_key,
    enumerate_h_basis,
    enumerate_reduced_super_ls,
    enumerate_uh_basis,
    expand,
    free_generators_W,
    is_admissible,
    is_super_ls,
    lie_composition_len2,
    load_presentation,
    parse_monomial,
    parse_poly,
    rank,
    reduce,
    standard_bracket,
    superbracket,
    validate,
    verify_hnn_gsb,
    verify_structure_theorem,
)
from superlie import hnn
from superlie.poly import from_letter_terms, letter_terms
from conftest import left_comb, reference_expand
from test_bracketing import subtrees
from test_linalg import is_unitriangular
from test_words import LT, _weighted_products, lex_cmp
from conftest import (
    ALL,
    EX1,
    EX2,
    EX3,
    EX4,
    ab5,
    ex1,
    ex2,
    ex3,
    ex4,
    osp,
    sl2,
)

FIXTURES = [ex1, ex2, ex3, ex4, sl2, osp, ab5]


# -- validation -----------------------------------------------------------------


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixtures_validate(fixture):
    assert validate(fixture().constants).passed


def test_corrupted_bracket_table_fails_jacobi():
    data = copy.deepcopy(EX2)
    data["brackets"].append(
        {"left": "a", "right": "x", "value": [{"basis": "a", "coeff": "1"}]}
    )
    pres = load_presentation(data)
    report = validate(pres.constants)
    assert not report.passed
    assert any(v.check == "jacobi" for v in report.violations)


def test_broken_derivation_law_is_reported():
    data = copy.deepcopy(EX4)
    data["derivation"][1]["value"] = [{"basis": "b", "coeff": "1"}]  # d(b) = b
    report = validate(load_presentation(data).constants)
    assert any(v.check == "derivation-law" for v in report.violations)


def test_even_self_bracket_is_rejected_by_validation():
    data = copy.deepcopy(EX1)
    data["brackets"] = [
        {"left": "a", "right": "a", "value": [{"basis": "x", "coeff": "1"}]}
    ]
    report = validate(load_presentation(data).constants)
    assert any(v.check == "anticommutativity" for v in report.violations)
    assert not any(v.check == "parity" for v in report.violations)


def test_parity_incoherence_is_reported():
    data = copy.deepcopy(EX2)
    # an odd/odd bracket cannot hit the odd symbol a
    data["brackets"] = [
        {"left": "a", "right": "a", "value": [{"basis": "a", "coeff": "1"}]}
    ]
    report = validate(load_presentation(data).constants)
    assert any(v.check == "parity" for v in report.violations)


def test_subalgebra_closure_violation():
    data = copy.deepcopy(EX4)
    data["brackets"] = [
        {"left": "a", "right": "b", "value": [{"basis": "x", "coeff": "1"}]}
    ]
    report = validate(load_presentation(data).constants)
    assert any(v.check == "subalgebra-closure" for v in report.violations)


def _bracket(left, right, *values):
    value = [{"basis": b, "coeff": c} for b, c in values]
    return {"left": left, "right": right, "value": value}


def _with(base, **changes):
    data = copy.deepcopy(base)
    data.update(changes)
    return data


# Tables that each fail validation; every check name is tripped by at least
# one of them.  The expected violations are pinned in full (order, indices,
# detail text), so a rewrite of ``validate`` must keep its report unchanged.
PINNED_VIOLATIONS = {
    "even-diagonal": (
        _with(EX1, brackets=[_bracket("a", "a", ("x", "1"))]),
        [
            ("anticommutativity", ("a", "a"), "an even symbol must bracket to zero with itself"),
            ("subalgebra-closure", ("a", "a", "x"), "coefficient 1 lands outside the subalgebra"),
        ],
    ),
    "mirror-pair": (
        _with(EX4, brackets=[_bracket("a", "b", ("a", "1")), _bracket("b", "a", ("a", "1"))]),
        [
            ("anticommutativity", ("b", "a", "a"), "stored 1, anti-commutativity requires -1"),
            ("jacobi", ("a", "b", "b", "a"), "residual 2"),
            ("jacobi", ("b", "a", "b", "a"), "residual 2"),
            ("jacobi", ("b", "b", "a", "a"), "residual 2"),
        ],
    ),
    "odd-squares": (
        _with(
            EX2,
            brackets=[_bracket("a", "a", ("x", "1")), _bracket("a", "x", ("a", "1/2"))],
            derivation=[{"arg": "x", "value": [{"basis": "a", "coeff": "-2/3"}]}],
        ),
        [
            ("jacobi", ("x", "a", "a", "x"), "residual 1"),
            ("jacobi", ("a", "x", "a", "x"), "residual 1"),
            ("jacobi", ("a", "a", "x", "x"), "residual 1"),
            ("jacobi", ("a", "a", "a", "a"), "residual -3/2"),
            ("odd-square-right", ("x", "a", "x"), "0 != 2*(-1/2)"),
            ("odd-square-right", ("a", "a", "a"), "1/2 != 2*(-1/2)"),
            ("odd-square-left", ("a", "x", "x"), "0 != 2*(1/2)"),
            ("odd-square-left", ("a", "a", "a"), "-1/2 != 2*(1/2)"),
        ],
    ),
    "multi-term": (
        {
            "generators": [{"name": n, "parity": 0} for n in "hef"],
            "subalgebra_size": 2,
            "d_parity": 0,
            "brackets": [  # sl2, with [e, f] = h + e/3 in place of h
                _bracket("h", "e", ("e", "2")),
                _bracket("h", "f", ("f", "-2")),
                _bracket("e", "f", ("h", "1"), ("e", "1/3")),
            ],
            "derivation": [
                {"arg": "h", "value": [{"basis": "f", "coeff": "2"}]},
                {"arg": "e", "value": [{"basis": "h", "coeff": "-1"}]},
            ],
        },
        [
            ("jacobi", ("h", "e", "f", "e"), "residual 2/3"),
            ("jacobi", ("h", "f", "e", "e"), "residual -2/3"),
            ("jacobi", ("e", "h", "f", "e"), "residual -2/3"),
            ("jacobi", ("e", "f", "h", "e"), "residual 2/3"),
            ("jacobi", ("f", "h", "e", "e"), "residual 2/3"),
            ("jacobi", ("f", "e", "h", "e"), "residual -2/3"),
            ("derivation-law", ("h", "e", "e"), "0 != -2/3"),
            ("derivation-law", ("e", "h", "e"), "0 != 2/3"),
        ],
    ),
    "derivation-odd-square": (
        _with(EX3, brackets=[_bracket("x", "a", ("a", "1"))]),
        [
            ("derivation-odd-square", ("a", "a"), "0 != 2*(1)"),
            ("derivation-law", ("a", "a", "a"), "0 != 2"),
        ],
    ),
    "derivation-law": (
        _with(EX4, derivation=[
            {"arg": "a", "value": [{"basis": "a", "coeff": "1"}]},
            {"arg": "b", "value": [{"basis": "b", "coeff": "1"}]},
        ]),
        [
            ("derivation-law", ("a", "b", "a"), "1 != 2"),
            ("derivation-law", ("b", "a", "a"), "-1 != -2"),
        ],
    ),
    "closure": (
        _with(EX4, brackets=[_bracket("a", "b", ("x", "1"))]),
        [
            ("derivation-law", ("a", "b", "x"), "0 != 1"),
            ("derivation-law", ("b", "a", "x"), "0 != -1"),
            ("subalgebra-closure", ("a", "b", "x"), "coefficient 1 lands outside the subalgebra"),
        ],
    ),
    "bracket-parity": (
        _with(EX2, brackets=[_bracket("a", "a", ("a", "1"))]),
        [
            ("jacobi", ("a", "a", "a", "a"), "residual -3"),
            ("odd-square-right", ("a", "a", "a"), "1 != 2*(1)"),
            ("odd-square-left", ("a", "a", "a"), "1 != 2*(1)"),
            ("parity", ("a", "a", "a"), "bracket of parities 1,1 cannot hit a parity-1 symbol"),
        ],
    ),
    "derivation-parity": (
        _with(EX3, derivation=[{"arg": "a", "value": [{"basis": "a", "coeff": "1"}]}]),
        [
            (
                "parity",
                ("a", "a"),
                "derivation of parity 1 cannot map a parity-1 symbol to a parity-1 one",
            ),
        ],
    ),
    # the even diagonal of x, then the mirror pairs (x, y > x), before the next x
    "anticommutativity-order": (
        _with(EX4, brackets=[
            _bracket("a", "a", ("x", "1")),
            _bracket("a", "b", ("a", "1")),
            _bracket("b", "a", ("a", "1")),
            _bracket("b", "b", ("x", "1")),
        ]),
        [
            ("anticommutativity", ("a", "a"), "an even symbol must bracket to zero with itself"),
            ("anticommutativity", ("b", "a", "a"), "stored 1, anti-commutativity requires -1"),
            ("anticommutativity", ("b", "b"), "an even symbol must bracket to zero with itself"),
            ("jacobi", ("a", "a", "b", "x"), "residual 2"),
            ("jacobi", ("a", "b", "a", "x"), "residual 2"),
            ("jacobi", ("a", "b", "b", "a"), "residual 2"),
            ("jacobi", ("b", "a", "a", "x"), "residual 2"),
            ("jacobi", ("b", "a", "b", "a"), "residual 2"),
            ("jacobi", ("b", "b", "a", "a"), "residual 2"),
            ("derivation-law", ("a", "a", "x"), "0 != 2"),
            ("subalgebra-closure", ("a", "a", "x"), "coefficient 1 lands outside the subalgebra"),
            ("subalgebra-closure", ("b", "b", "x"), "coefficient 1 lands outside the subalgebra"),
        ],
    ),
    # one table tripping every check pins the order across checks
    "every-check": (
        _with(EX3, brackets=[
            _bracket("a", "a", ("x", "1")),
            _bracket("x", "a", ("a", "1")),
            _bracket("x", "x", ("a", "1")),
        ]),
        [
            ("anticommutativity", ("x", "x"), "an even symbol must bracket to zero with itself"),
            ("jacobi", ("a", "a", "a", "a"), "residual 3"),
            ("jacobi", ("a", "a", "x", "a"), "residual 1"),
            ("jacobi", ("a", "a", "x", "x"), "residual -2"),
            ("jacobi", ("a", "x", "a", "a"), "residual 1"),
            ("jacobi", ("a", "x", "a", "x"), "residual -2"),
            ("jacobi", ("a", "x", "x", "x"), "residual 1"),
            ("jacobi", ("x", "a", "a", "a"), "residual 1"),
            ("jacobi", ("x", "a", "a", "x"), "residual -2"),
            ("jacobi", ("x", "a", "x", "x"), "residual 1"),
            ("jacobi", ("x", "x", "a", "x"), "residual 1"),
            ("jacobi", ("x", "x", "x", "a"), "residual 3"),
            ("odd-square-right", ("a", "a", "a"), "-1 != 2*(1)"),
            ("odd-square-right", ("x", "a", "a"), "1 != 2*(0)"),
            ("odd-square-right", ("x", "a", "x"), "0 != 2*(1)"),
            ("odd-square-left", ("a", "a", "a"), "1 != 2*(-1)"),
            ("odd-square-left", ("a", "x", "a"), "1 != 2*(0)"),
            ("odd-square-left", ("a", "x", "x"), "0 != 2*(-1)"),
            ("derivation-odd-square", ("a", "a"), "0 != 2*(1)"),
            ("derivation-law", ("a", "a", "a"), "0 != 2"),
            ("subalgebra-closure", ("a", "a", "x"), "coefficient 1 lands outside the subalgebra"),
            ("parity", ("x", "x", "a"), "bracket of parities 0,0 cannot hit a parity-1 symbol"),
        ],
    ),
}


def test_pinned_violations_cover_every_check():
    checks = {c for _, expected in PINNED_VIOLATIONS.values() for c, _, _ in expected}
    assert checks == {
        "anticommutativity",
        "jacobi",
        "odd-square-right",
        "odd-square-left",
        "derivation-odd-square",
        "derivation-law",
        "subalgebra-closure",
        "parity",
    }


@pytest.mark.parametrize("case", sorted(PINNED_VIOLATIONS))
def test_validation_report_is_pinned(case):
    data, expected = PINNED_VIOLATIONS[case]
    report = validate(load_presentation(data).constants)
    assert report.to_dict() == {
        "passed": False,
        "violations": [
            {"check": check, "indices": list(indices), "detail": detail}
            for check, indices, detail in expected
        ],
    }


IDENTITY_CHECKS = (
    "anticommutativity",
    "jacobi",
    "odd-square-right",
    "odd-square-left",
    "derivation-odd-square",
    "derivation-law",
)


def reference_identity_violations(sc):
    """Anti-commutativity of the stored table, then the five bilinear identities,
    one target u and one coefficient at a time."""
    size, k = len(sc.alphabet), sc.subalgebra_size
    names = [s.name for s in sc.alphabet]
    par = [s.parity for s in sc.alphabet]
    br, d = sc.bracket_coeffs, sc.derivation_coeffs

    def coeff(inner, outer, u):  # coefficient of u in sum_v inner[v] * outer(v)
        return sum((c * outer(v).get(u, 0) for v, c in inner.items()), Fraction(0))

    def sign(p, q):
        return -1 if (p and q) else 1

    out = []
    for x in range(size):
        if not par[x] and sc.alpha.get((x, x)):
            out.append(
                ("anticommutativity", (names[x], names[x]), "an even symbol must bracket to zero with itself")
            )
        for y in range(x + 1, size):
            if (x, y) not in sc.alpha or (y, x) not in sc.alpha:
                continue
            for u in range(size):
                stored = sc.alpha[(y, x)].get(u, Fraction(0))
                required = -sign(par[x], par[y]) * sc.alpha[(x, y)].get(u, Fraction(0))
                if stored != required:
                    out.append((
                        "anticommutativity",
                        (names[y], names[x], names[u]),
                        f"stored {stored}, anti-commutativity requires {required}",
                    ))
    for x, y, z in product(range(size), repeat=3):
        for u in range(size):
            residual = (
                sign(par[x], par[z]) * coeff(br(y, z), lambda v: br(x, v), u)
                + sign(par[y], par[x]) * coeff(br(z, x), lambda v: br(y, v), u)
                + sign(par[z], par[y]) * coeff(br(x, y), lambda v: br(z, v), u)
            )
            if residual:
                out.append(("jacobi", (names[x], names[y], names[z], names[u]), f"residual {residual}"))
    for check, outer_is_odd in (("odd-square-right", False), ("odd-square-left", True)):
        for p in range(size):
            if not par[p]:
                continue
            for q in range(size):
                x, y = (p, q) if outer_is_odd else (q, p)
                for u in range(size):
                    if outer_is_odd:  # [[x,x],y] = 2[x,[x,y]]
                        lhs = coeff(br(x, x), lambda v: br(v, y), u)
                        rhs = coeff(br(x, y), lambda v: br(x, v), u)
                    else:  # [x,[y,y]] = 2[[x,y],y]
                        lhs = coeff(br(y, y), lambda v: br(x, v), u)
                        rhs = coeff(br(x, y), lambda v: br(v, y), u)
                    if lhs != 2 * rhs:
                        out.append((check, (names[x], names[y], names[u]), f"{lhs} != 2*({rhs})"))
    for a in range(k):
        if par[a]:
            for u in range(size):
                lhs = coeff(br(a, a), d, u)
                rhs = coeff(d(a), lambda v: br(v, a), u)
                if lhs != 2 * rhs:
                    out.append(("derivation-odd-square", (names[a], names[u]), f"{lhs} != 2*({rhs})"))
    for a, b in product(range(k), repeat=2):
        for u in range(size):
            lhs = coeff(br(a, b), d, u)
            rhs = coeff(d(a), lambda v: br(v, b), u) + sign(sc.d_parity, par[a]) * coeff(
                d(b), lambda v: br(a, v), u
            )
            if lhs != rhs:
                out.append(("derivation-law", (names[a], names[b], names[u]), f"{lhs} != {rhs}"))
    return out


@pytest.mark.parametrize("fixture", FIXTURES)
def test_identity_checks_match_reference_on_random_edits(fixture):
    rng = Random(zlib.crc32(fixture.__name__.encode()))
    sc = fixture().constants
    size, k = len(sc.alphabet), sc.subalgebra_size
    tripped = set()
    for _ in range(25):
        alpha = {key: dict(value) for key, value in sc.alpha.items()}
        beta = {key: dict(value) for key, value in sc.beta.items()}
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6 or not k:
                x, y, v = (rng.randrange(size) for _ in range(3))
                alpha.setdefault((x, y), {})[v] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                beta.setdefault(rng.randrange(k), {})[rng.randrange(size)] = rng.randint(-2, 2)
        edited = StructureConstants(sc.alphabet, k, sc.d_parity, alpha, beta)
        got = [
            (v.check, v.indices, v.detail)
            for v in validate(edited).violations
            if v.check in IDENTITY_CHECKS
        ]
        assert got == reference_identity_violations(edited)
        tripped.update(check for check, _, _ in got)
    assert {"anticommutativity", "jacobi"} <= tripped


def _per_triple_jacobi(sc):
    """The Jacobi violations of ``sc`` summed for every ordered triple on its own.

    The loop ``validate`` ran before it summed one residual per cyclic orbit.
    """
    size = len(sc.alphabet)
    names = [s.name for s in sc.alphabet]
    par = [s.parity for s in sc.alphabet]
    ad = [[sc.bracket_coeffs(x, v) for v in range(size)] for x in range(size)]
    out = []
    for x, y, z in product(range(size), repeat=3):
        if not (ad[y][z] or ad[z][x] or ad[x][y]):
            continue
        residual = hnn._accumulate([
            (hnn._sign(par[x], par[z]), ad[y][z], ad[x]),
            (hnn._sign(par[y], par[x]), ad[z][x], ad[y]),
            (hnn._sign(par[z], par[y]), ad[x][y], ad[z]),
        ])
        for u in sorted(residual):
            if residual[u] != 0:
                indices = (names[x], names[y], names[z], names[u])
                out.append(hnn.Violation("jacobi", indices, f"residual {residual[u]}"))
    return out


def _perturbed_constants(data):
    """A copy of ``data`` for each stored coefficient, that one raised by 1."""
    for key in ("brackets", "derivation"):
        for i, entry in enumerate(data[key]):
            for j, value in enumerate(entry["value"]):
                edited = copy.deepcopy(data)
                edited[key][i]["value"][j]["coeff"] = str(Fraction(value["coeff"]) + 1)
                yield edited


def test_jacobi_identity_report_matches_the_per_triple_loop():
    # the three negative controls of the benchmark, then every single
    # perturbed constant of osp(1|2) and sl2
    bad_jacobi = copy.deepcopy(EX2)
    bad_jacobi["brackets"].append(_bracket("a", "x", ("a", "1")))
    bad_law = _with(EX4, derivation=[
        {"arg": "a", "value": [{"basis": "a", "coeff": "1"}]},
        {"arg": "b", "value": [{"basis": "b", "coeff": "1"}]},
    ])
    bad_anticomm = _with(EX1, brackets=[_bracket("a", "a", ("x", "1"))])
    tables = [bad_jacobi, bad_law, bad_anticomm]
    tables += [t for data in (ALL["osp"], ALL["sl2"]) for t in _perturbed_constants(data)]
    with_jacobi = 0
    for data in tables:
        sc = load_presentation(data).constants
        violations = list(validate(sc).violations)
        # the per-triple loop's violations in the place of the report's own
        first = [v for v in violations if v.check == "anticommutativity"]
        rest = [v for v in violations if v.check not in ("anticommutativity", "jacobi")]
        jacobi = _per_triple_jacobi(sc)
        assert violations == first + jacobi + rest
        with_jacobi += bool(jacobi)
    assert (len(tables), with_jacobi) == (21, 13)


# -- relations ---------------------------------------------------------------------


def test_ex1_relations():
    pres = ex1()
    system = build_relations(pres)
    assert [str(r.leading_word) for r in system.rules] == ["xa", "ta"]
    T = pres.alphabet
    assert system.rules[0].body == parse_poly(T, "xa - ax")
    assert system.rules[1].body == parse_poly(T, "ta - at - x")


def test_ex2_relations():
    pres = ex2()
    system = build_relations(pres)
    assert sorted(str(r.leading_word) for r in system.rules) == ["aa", "ax", "tx"]
    T = pres.alphabet
    bodies = {str(r.leading_word): r.body for r in system.rules}
    assert bodies["ax"] == parse_poly(T, "ax - xa")
    assert bodies["aa"] == parse_poly(T, "aa - 1/2*x")  # stored monic
    assert bodies["tx"] == parse_poly(T, "tx - xt - a")


def test_ex3_relations():
    pres = ex3()
    system = build_relations(pres)
    assert sorted(str(r.leading_word) for r in system.rules) == ["aa", "ta", "xa"]
    T = pres.alphabet
    bodies = {str(r.leading_word): r.body for r in system.rules}
    assert bodies["xa"] == parse_poly(T, "xa - ax")
    assert bodies["aa"] == parse_poly(T, "aa")
    assert bodies["ta"] == parse_poly(T, "ta + at - x")  # odd/odd sign


@pytest.mark.parametrize("fixture", FIXTURES)
def test_relations_match_the_reference_superbracket(fixture, monkeypatch):
    # each head is the expansion of its bracket monomial; a fresh
    # presentation, since the system is kept on the one it was built for
    rules = build_relations(fixture()).rules
    monkeypatch.setattr(hnn, "expand", reference_expand)
    assert build_relations(fixture()).rules == rules


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_expansions_match_the_reference_expansion(fixture):
    # every monomial the structure theorem expands, to degree 7 (6 on the larger tables)
    pres = fixture()
    max_len = 6 if fixture in (osp, ab5) else 7
    basis = enumerate_h_basis(pres, max_len)
    assert max(len(m) for m in basis) == max_len
    for m in basis:
        assert expand(m) == reference_expand(m)


def test_build_relations_requires_valid_constants():
    data = copy.deepcopy(EX2)
    data["brackets"].append(
        {"left": "a", "right": "x", "value": [{"basis": "a", "coeff": "1"}]}
    )
    with pytest.raises(ValueError):
        build_relations(load_presentation(data))


def test_uh_basis_requires_valid_constants():
    pres = load_presentation(PINNED_VIOLATIONS["odd-squares"][0])
    with pytest.raises(ValueError) as excinfo:
        enumerate_uh_basis(pres, 2)
    assert str(excinfo.value) == (
        f"structure constants fail validation\n{validate(pres.constants)}"
    )


# -- composition closure -------------------------------------------------------------


def test_ex1_gsb_passes_with_no_compositions():
    report = verify_hnn_gsb(ex1())
    assert report.passed
    assert report.families_exercised() == ()
    assert len(report.associative.checks) == 0


def test_ex2_gsb_exercises_family_4():
    report = verify_hnn_gsb(ex2())
    assert report.passed
    assert 4 in report.families_exercised()


def test_ex3_gsb_exercises_families_3_and_5():
    report = verify_hnn_gsb(ex3())
    assert report.passed
    assert set(report.families_exercised()) == {3, 5}


def test_ex4_gsb_exercises_families_1_and_2():
    report = verify_hnn_gsb(ex4())
    assert report.passed
    assert set(report.families_exercised()) == {1, 2}
    words = {c.family: str(c.word) for c in report.lie_checks}
    assert words[1] == "xba"
    assert words[2] == "tba"


def _hand_listed_families(pres):
    """(family, description, word) of every superbracket composition, by shape.

    The five families listed from the relation shapes alone, independently
    of the associative overlaps ``verify_hnn_gsb`` labels: a lost or
    mislabelled overlap shows as a difference.
    """
    sc = pres.constants
    size, k, t = len(sc.alphabet), sc.subalgebra_size, pres.t_rank
    odd = [sc.parity(x) for x in range(size)]
    shapes = []
    for x in range(size):
        for y in range(x):
            for z in range(y):
                shapes.append((1, "pair/pair", (x, y, z)))
    for a in range(k):
        for b in range(a):
            shapes.append((2, "stable/pair", (t, a, b)))
    for x in range(size):
        for y in range(x):
            if odd[y]:
                shapes.append((3, "pair/odd-square", (x, y, y)))
    for x in range(size):
        if odd[x]:
            for y in range(x):
                shapes.append((4, "odd-square/pair", (x, x, y)))
    for a in range(k):
        if odd[a]:
            shapes.append((5, "stable/odd-square", (t, a, a)))
    out = [(f, d, Word(pres.alphabet, w)) for f, d, w in shapes]
    out.sort(key=lambda e: (e[0], deglex_key(e[2])))
    return out


def test_lie_checks_are_the_hand_listed_families():
    presentations = [fixture() for fixture in FIXTURES]
    presentations += [_abelian_presentation(*shape) for shape in SMALL_SHAPES]
    presentations += [load_presentation(d) for d in (EMPTY_SUBALGEBRA, TWO_ODD_COMPLEMENT)]
    families = set()
    for pres in presentations:
        leading = {r.leading_word.letters for r in build_relations(pres).rules}
        expected = _hand_listed_families(pres)
        # each listed word is the overlap of two leading words
        assert all(w.letters[:2] in leading and w.letters[1:] in leading for _, _, w in expected)
        report = verify_hnn_gsb(pres)
        got = [(c.family, c.description, c.word) for c in report.lie_checks]
        assert got == expected, pres.alphabet
        assert all(c.normal_form.is_zero() for c in report.lie_checks), pres.alphabet
        families.update(report.families_exercised())
    assert families == {1, 2, 3, 4, 5}


def test_odd_square_self_overlap_reduces_to_zero():
    # verify_hnn_gsb skips the overlap xxx of an odd square xx with itself;
    # is_gsb lists it, and its superbracket composition reduces to zero
    squares = 0
    for fixture in FIXTURES:
        pres = fixture()
        system = build_relations(pres)
        report = verify_hnn_gsb(pres)
        overlaps = {(c.left, c.right, c.word) for c in report.associative.checks}
        for i, rule in enumerate(system.rules):
            x, y = rule.leading_word.letters
            if x != y:
                continue
            squares += 1
            word = Word(pres.alphabet, (x, x, x))
            assert (i, i, word) in overlaps
            normal_form, _ = reduce(lie_composition_len2(rule, rule, word), system)
            assert normal_form.is_zero(), (fixture.__name__, str(word))
    assert squares == 4  # one each in ex2 and ex3, two in osp


# -- bases ----------------------------------------------------------------------------


def test_ex1_uh_basis_low_degrees():
    words = enumerate_uh_basis(ex1(), 2)
    assert [str(w) or "1" for w in words] == [
        "1", "a", "x", "t", "aa", "ax", "at", "xx", "xt", "tx", "tt",
    ]


def test_ex2_uh_basis_low_degrees():
    words = enumerate_uh_basis(ex2(), 2)
    assert [str(w) or "1" for w in words] == [
        "1", "x", "a", "t", "xx", "xa", "xt", "at", "ta", "tt",
    ]


def test_uh_basis_degree_zero():
    words = enumerate_uh_basis(ex3(), 0)
    assert len(words) == 1 and len(words[0]) == 0


@pytest.mark.parametrize("fixture", [ex1, ex2, ex3, ex4])
def test_uh_basis_equals_reduced_words_to_length_6(fixture):
    # independent substring-scan oracle over every word
    pres = fixture()
    system = build_relations(pres)
    forbidden = [r.leading_word.letters for r in system.rules]

    def scan_reduced(letters):
        return not any(
            letters[i : i + len(f)] == f
            for f in forbidden
            for i in range(len(letters) - len(f) + 1)
        )

    size = len(pres.alphabet)
    oracle = {
        Word(pres.alphabet, letters)
        for n in range(7)
        for letters in product(range(size), repeat=n)
        if scan_reduced(letters)
    }
    assert set(enumerate_uh_basis(pres, 6)) == oracle


def _small_shapes():
    """(parities, subalgebra size, d parity) on one to three basis symbols."""
    for size in (1, 2, 3):
        for parities in product((0, 1), repeat=size):
            for k in range(size):
                for d_parity in (0, 1):
                    yield parities, k, d_parity


# Leading words never depend on coefficients and admissibility is decided in
# the free algebra, so the basis constructions depend on the table's shape
# alone; the abelian table with zero derivation stands for each shape.
SMALL_SHAPES = list(_small_shapes())


def _abelian_presentation(parities, k, d_parity):
    return load_presentation(
        {
            "generators": [{"name": f"x{i}", "parity": p} for i, p in enumerate(parities)],
            "subalgebra_size": k,
            "d_parity": d_parity,
        }
    )


def test_uh_basis_is_the_reduced_word_scan_on_every_small_shape():
    assert len(SMALL_SHAPES) == 68
    for parities, k, d_parity in SMALL_SHAPES:
        pres = _abelian_presentation(parities, k, d_parity)
        size, t = len(pres.alphabet), pres.t_rank
        # leading words: xy for x > y, xx for odd x, and t a for subalgebra a
        forbidden = {(x, y) for x in range(t) for y in range(x)}
        forbidden |= {(x, x) for x in range(t) if parities[x]}
        forbidden |= {(t, a) for a in range(k)}
        reduced = []
        for n in range(6):
            for letters in product(range(size), repeat=n):
                w = Word(pres.alphabet, letters)
                if forbidden.isdisjoint(zip(letters, letters[1:])):
                    reduced.append(w)
        reduced.sort(key=deglex_key)
        assert enumerate_uh_basis(pres, 5) == reduced, (parities, k, d_parity)


def test_h_basis_is_admissible_on_every_small_shape():
    for parities, k, d_parity in SMALL_SHAPES:
        pres = _abelian_presentation(parities, k, d_parity)
        basis = enumerate_h_basis(pres, 4)
        words = enumerate_reduced_super_ls(build_relations(pres), 4)
        assert [m.word for m in basis] == words, (parities, k, d_parity)
        assert all(is_admissible(m) for m in basis), (parities, k, d_parity)


def test_ex1_h_basis_counts_and_monomials():
    basis = enumerate_h_basis(ex1(), 4)
    counts = [sum(1 for m in basis if len(m.word) == n) for n in range(1, 5)]
    assert counts == [3, 1, 2, 3]
    texts = [str(m) for m in basis]
    assert "[t,x]" in texts
    assert "[[t,x],x]" in texts and "[t,[t,x]]" in texts


def test_ex2_h_basis_counts():
    basis = enumerate_h_basis(ex2(), 3)
    counts = [sum(1 for m in basis if len(m.word) == n) for n in range(1, 4)]
    assert counts == [3, 2, 1]
    assert "[t,t]" in [str(m) for m in basis]  # t is odd here


def test_ex3_h_basis_contains_square_monomials():
    basis = enumerate_h_basis(ex3(), 4)
    texts = [str(m) for m in basis]
    assert "[t,t]" in texts
    assert "[[t,x],[t,x]]" in texts  # odd square of a block letter


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_words_are_the_reduced_super_ls_words(fixture):
    # the base-word scan is the reference for the construction from W; it
    # costs (|A|+1)^n words, so the larger alphabets stop at degree 5
    degree = 6 if fixture in (ex1, ex2, ex3, ex4) else 5
    pres = fixture()
    system = build_relations(pres)
    basis = enumerate_h_basis(pres, degree)
    assert [m.word for m in basis] == enumerate_reduced_super_ls(system, degree)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_is_admissible_on_fixtures(fixture):
    assert all(is_admissible(m) for m in enumerate_h_basis(fixture(), 5))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_block_sequences_are_the_filtered_products(fixture):
    # the filter the generated block side replaced: every product of block
    # letters, kept when it is super-LS over the block alphabet
    view = hnn._WbarView(fixture(), 8)
    weights = [len(w) for w in view.letters]
    filtered = [
        [s for s in _weighted_products(weights, n) if is_super_ls(Word(view.alphabet, s))]
        for n in range(1, 9)
    ]
    assert view.super_ls_sequences() == [[]] + filtered


def _fresh(m, leaf):
    """A copy of ``m`` built from new nodes, each leaf replaced by ``leaf(rank)``."""
    if m.is_leaf:
        return leaf(m.rank)
    return NcMonomial.pair(_fresh(m.left, leaf), _fresh(m.right, leaf))


def _unshared_h_basis(pres, max_len):
    """The basis built without shared subtrees: each sequence's standard
    bracketing on its own, every node of the substituted tree new."""
    view = hnn._WbarView(pres, max_len)

    def base_leaf(r):
        return NcMonomial.leaf(pres.alphabet, r)

    def generator(r):
        return _fresh(view.generators[r], base_leaf)

    out = [base_leaf(r) for r in range(pres.t_rank)]
    for seq in chain.from_iterable(view.super_ls_sequences()):
        out.append(_fresh(standard_bracket(Word(view.alphabet, seq)), generator))
    out.sort(key=lambda m: deglex_key(m.word))
    return out


def _render(m):
    """The text of ``m``, recomputed at every node: no cached text is read."""
    if m.is_leaf:
        return m.alphabet[m.rank].name
    return "[" + _render(m.left) + "," + _render(m.right) + "]"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_generated_words_and_texts_are_the_checked_ones(fixture):
    # the enveloping basis words and the tree words are built without the
    # rank check: each equals, and hashes like, the checked word of its letters
    pres, max_len = fixture(), 6
    alphabet = pres.alphabet
    trees = enumerate_h_basis(pres, max_len) + free_generators_W(pres, max_len)
    words = enumerate_uh_basis(pres, max_len) + [n.word for m in trees for n in subtrees(m)]
    for w in words:
        checked = Word(alphabet, w.letters)
        assert w == checked and hash(w) == hash(checked) and w.alphabet is alphabet
    # a node's text is kept once made; twice read, it is still the rendering
    for _ in range(2):
        assert [str(m) for m in trees] == [_render(m) for m in trees]


def test_wbar_view_letters_are_in_lex_order():
    for fixture in FIXTURES:
        letters = hnn._WbarView(fixture(), 7).letters
        assert all(lex_cmp(u, v) == LT for u, v in zip(letters, letters[1:]))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_shares_equal_subtrees(fixture):
    pres, max_len = fixture(), 7
    unshared = _unshared_h_basis(pres, max_len)
    basis = enumerate_h_basis(pres, max_len)
    assert len(basis) == len(unshared)
    for m, old in zip(basis, unshared):
        assert m == old and hash(m) == hash(old) and str(m) == str(old)
    one_object: dict = {}
    for m in basis:
        for node in subtrees(m):
            assert one_object.setdefault(node, node) is node, node
    assert sum(1 for m in basis for _ in subtrees(m)) > 2 * len(one_object)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_basis_builds_each_tree_once(fixture, monkeypatch):
    # every pair node built is a node of the basis: no tree is built twice
    # and none is built to be thrown away
    pres, max_len = fixture(), 6 if fixture is ab5 else 7
    built = []
    pair = NcMonomial.pair.__func__

    def counted(cls, left, right):
        built.append(None)
        return pair(cls, left, right)

    monkeypatch.setattr(NcMonomial, "pair", classmethod(counted))
    basis = enumerate_h_basis(pres, max_len)
    monkeypatch.undo()
    nodes = {id(n) for m in basis for n in subtrees(m) if not n.is_leaf}
    assert len(built) == len(nodes)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_check_reads_shared_and_unshared_trees_alike(fixture, monkeypatch):
    # the leading terms and normal forms kept on shared nodes give the
    # report that trees built node by node give
    pres = fixture()
    report = verify_structure_theorem(pres, 6).to_dict()
    monkeypatch.setattr(hnn, "enumerate_h_basis", _unshared_h_basis)
    assert verify_structure_theorem(pres, 6).to_dict() == report


def test_h_basis_requires_valid_constants_and_positive_length():
    pres = load_presentation(PINNED_VIOLATIONS["odd-squares"][0])
    with pytest.raises(ValueError, match="fail validation"):
        enumerate_h_basis(pres, 3)
    with pytest.raises(ValueError, match="max_len"):
        enumerate_h_basis(ex1(), 0)


def test_free_generators_examples():
    gens1 = free_generators_W(ex1(), 3)
    assert [str(m) for m in gens1] == ["t", "[t,x]", "[[t,x],x]"]
    gens2 = free_generators_W(ex2(), 3)
    assert [str(m) for m in gens2] == ["t", "[t,a]"]  # odd a appears at most once
    # ex2's only complement letter is odd, so W stays finite at every length
    assert [str(m) for m in free_generators_W(ex2(), 10)] == ["t", "[t,a]"]
    assert [str(m) for m in free_generators_W(ex3(), 1)] == ["t"]


def test_free_generators_are_the_right_normed_brackets():
    # each tree is built from its prefix's; the reference builds each anew
    tables = [_abelian_presentation(*shape) for shape in SMALL_SHAPES]
    tables += [fixture() for fixture in FIXTURES]
    for pres in tables:
        t = pres.t_rank
        generators = free_generators_W(pres, 6)
        reference = [left_comb(pres.alphabet, t, m.word.letters[1:]) for m in generators]
        assert generators == reference, pres


def test_bases_below_length_one():
    pres = ex1()
    assert free_generators_W(pres, 0) == []
    assert free_generators_W(pres, -2) == []
    assert enumerate_uh_basis(pres, -1) == []
    assert enumerate_uh_basis(pres, 0) == [Word(pres.alphabet, ())]


def test_successors_are_the_pairs_that_are_not_leading_words():
    tables = [_abelian_presentation(*shape) for shape in SMALL_SHAPES]
    tables += [fixture() for fixture in FIXTURES]
    for pres in tables:
        leading = {r.leading_word.letters for r in build_relations(pres).rules}
        # the three shapes of relation: xy for x > y, xx for odd x other than
        # t, and t a for a in the subalgebra
        sc, t = pres.constants, pres.t_rank
        shapes = {(x, y) for x in range(t) for y in range(x)}
        shapes |= {(x, x) for x in range(t) if sc.parity(x)}
        shapes |= {(t, a) for a in range(sc.subalgebra_size)}
        assert leading == shapes, pres
        succ = hnn._successors(pres)
        size = len(pres.alphabet)
        assert len(succ) == size
        for x in range(size):
            assert list(succ[x]) == sorted(set(succ[x])), (pres, x)
            for y in range(size):
                assert (y in succ[x]) == ((x, y) not in leading), (pres, x, y)


def test_free_generator_counts_match_the_closed_form():
    # With e even and o odd complement letters, W has sum_j C(o, j) M(e, s - j)
    # generators of length s + 1: j distinct odd letters, then a multiset of
    # size s - j over the even ones, M(e, m) = C(e + m - 1, m) of them.
    def multisets(e, m):
        return 1 if m == 0 else comb(e + m - 1, m)

    checks = 0
    for parities, k, d_parity in SMALL_SHAPES:
        pres = _abelian_presentation(parities, k, d_parity)
        odd = sum(parities[k:])
        even = len(parities) - k - odd
        for max_len in range(7):
            counts = [0] * max_len
            for m in free_generators_W(pres, max_len):
                counts[len(m.word) - 1] += 1
            for s in range(max_len):
                expected = sum(
                    comb(odd, j) * multisets(even, s - j) for j in range(min(odd, s) + 1)
                )
                assert counts[s] == expected, (parities, k, d_parity, max_len, s)
                checks += 1
    assert checks == 1428


# -- structure theorem ----------------------------------------------------------------


@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_theorem_passes(fixture, monkeypatch):
    # check (i) concatenates letter tuples: no Word products are built
    products = []
    concat = Word.__mul__
    monkeypatch.setattr(Word, "__mul__", lambda u, v: products.append(v) or concat(u, v))
    report = verify_structure_theorem(fixture(), 4)
    assert products == []
    assert report.passed
    for row in report.rows:
        assert row.products == row.pattern_words
        assert row.independent_rank == row.h_basis_count


@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_rows_match_per_degree_recomputation(fixture):
    # the per-degree algorithm that one rank call over the whole basis replaced
    pres = fixture()
    system = build_relations(pres)
    for row in verify_structure_theorem(pres, 5).rows:
        basis = enumerate_h_basis(pres, row.length)
        vectors = [letter_terms(reduce(expand(m), system)[0]) for m in basis]
        assert row.h_basis_count == len(basis)
        assert row.independent_rank == rank(vectors)[0]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_memoised_normal_forms_are_the_reduced_free_expansions(fixture):
    # the oracle the memo replaced: expand each basis monomial freely, reduce
    pres = fixture()
    system = build_relations(pres)
    basis = enumerate_h_basis(pres, 7)
    forms = hnn._normal_forms(basis, system)
    assert len(forms) == len(basis) and max(len(m) for m in basis) == 7
    for m, form in zip(basis, forms):
        assert from_letter_terms(pres.alphabet, form) == reduce(expand(m), system)[0], m


def test_relations_are_built_once_per_presentation():
    pres = ex1()
    assert build_relations(pres) is build_relations(pres)
    assert build_relations(ex1()) is not build_relations(pres)


def _structure_with_basis(monkeypatch, pres, max_len, edit):
    """The structure report with ``edit`` applied to the basis it is handed."""
    build = hnn.enumerate_h_basis
    monkeypatch.setattr(hnn, "enumerate_h_basis", lambda pres, n: edit(build(pres, n)))
    return verify_structure_theorem(pres, max_len)


def _concat(words, seq):
    """The base letters of the product ``seq``: the letter tuples ``words[r]``, joined."""
    return sum((words[r] for r in seq), ())


def _check_i_oracle(pres, max_len, generators):
    """Per degree, (products, bijection_ok) of check (i) by listing every product.

    The products of ``generators`` (a list: a letter given twice counts
    twice) of total length n, concatenated and compared with the pattern
    words, the enveloping basis words that begin with t.
    """
    words = [m.word.letters for m in generators]
    t = pres.t_rank
    pattern = [w.letters for w in enumerate_uh_basis(pres, max_len) if w.letters[:1] == (t,)]
    out = []
    for n in range(1, max_len + 1):
        products = _weighted_products([len(w) for w in words], n)
        image = {_concat(words, seq) for seq in products}
        ok = len(image) == len(products) and image == {w for w in pattern if len(w) == n}
        out.append((len(products), ok))
    return out


@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_check_i_counts_the_listed_products(fixture):
    # the product walk the count replaced, up to degree 8
    pres = fixture()
    report = verify_structure_theorem(pres, 8)
    oracle = _check_i_oracle(pres, 8, free_generators_W(pres, 8))
    assert [(r.products, r.bijection_ok) for r in report.rows] == oracle
    assert all(ok for _, ok in oracle)


def _drop_letter(generators, r):
    return generators[:r] + generators[r + 1:]


def _repeat_letter(generators, r):
    return generators[: r + 1] + generators[r:]


def _replace_letter(generators, r):
    """Letter r replaced by a tree of its length whose word has no t: rank 0 repeated."""
    leaf = NcMonomial.leaf(generators[r].alphabet, 0)
    stranger = leaf
    for _ in range(len(generators[r]) - 1):
        stranger = NcMonomial.pair(stranger, leaf)
    return generators[:r] + [stranger] + generators[r + 1:]


@pytest.mark.parametrize("edit", [_drop_letter, _repeat_letter, _replace_letter])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_check_i_fails_on_an_edited_W(fixture, edit, monkeypatch):
    # negative control: check (i) reads W with one letter dropped, listed
    # twice or replaced by a word of its length outside W (the count then
    # still matches), the basis is left as it is; (i) must fail from that
    # letter's length on, and only (i)
    pres = fixture()
    max_len = 5
    basis = enumerate_h_basis(pres, max_len)
    generators = free_generators_W(pres, max_len)
    monkeypatch.setattr(hnn, "enumerate_h_basis", lambda pres, n: basis)
    for r, letter in enumerate(generators):
        edited = edit(generators, r)
        monkeypatch.setattr(hnn, "free_generators_W", lambda pres, n: edited)
        report = verify_structure_theorem(pres, max_len)
        rows = report.rows
        first = len(letter)
        assert [(row.products, row.bijection_ok) for row in rows] == _check_i_oracle(
            pres, max_len, edited
        ), (letter, edit)
        assert [row.bijection_ok for row in rows] == [n < first for n in range(1, max_len + 1)]
        assert all(
            row.ls_transfer_ok and row.admissibility_ok and row.rank_ok for row in rows
        )
        assert not report.passed


def test_non_admissible_bracketing_fails_check_iii(monkeypatch):
    # [t,[x,y]] spells txy like the basis monomial [[t,x],y], but its
    # expansion leads with tyx
    pres = ab5()
    T = pres.alphabet
    standard, other = parse_monomial(T, "[[t,x],y]"), parse_monomial(T, "[t,[x,y]]")
    assert other.word == standard.word and not is_admissible(other)

    def swap(basis):
        assert standard in basis
        return [other if m == standard else m for m in basis]

    report = _structure_with_basis(monkeypatch, pres, 3, swap)
    assert not report.passed
    assert [r.admissibility_ok for r in report.rows] == [True, True, False]
    assert not report.rows[2].passed
    assert all(r.bijection_ok and r.ls_transfer_ok for r in report.rows)


def test_missing_stable_letter_word_fails_check_iii(monkeypatch):
    pres = ex1()
    dropped = parse_monomial(pres.alphabet, "[t,[t,x]]")
    report = _structure_with_basis(
        monkeypatch, pres, 4, lambda basis: [m for m in basis if m != dropped]
    )
    assert not report.passed
    assert [r.admissibility_ok for r in report.rows] == [True, True, False, True]
    assert not report.rows[2].passed
    assert list(report.h_basis_counts) == [3, 1, 1, 3]


def _flip_longest_parity(view):
    """Flip the parity of the longest block letter whose square fits.

    Returns the first degree affected: the square of that letter.
    """
    r = max(
        (r for r, w in enumerate(view.letters) if 2 * len(w) <= view.max_len),
        key=lambda r: len(view.letters[r]),
    )
    symbols = list(view.alphabet.symbols)
    symbols[r] = Symbol(r, symbols[r].name, 1 - symbols[r].parity)
    view.alphabet = Alphabet(symbols)
    return 2 * len(view.letters[r])


def _swap_greatest_letters(view):
    """Swap the block order of the two greatest letters, t and the next.

    Returns None: the first degree affected has no closed form here.
    """
    for seq in (view.generators, view.letters):
        seq[-1], seq[-2] = seq[-2], seq[-1]
    view.alphabet = Alphabet(
        tuple(Symbol(i, str(w), w.parity) for i, w in enumerate(view.letters))
    )
    return None


@pytest.mark.parametrize("mutate", [_flip_longest_parity, _swap_greatest_letters])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_check_ii_fails_on_a_mutated_block_alphabet(fixture, mutate, monkeypatch):
    # negative control: the block alphabet no longer matches the base words,
    # so (ii) must fail at the first degree where some product's super-LS
    # status over the blocks differs from its concatenation's over the base
    pres = fixture()
    max_len = 6
    expected = []

    class Mutated(hnn._WbarView):
        def __init__(self, pres, max_len):
            super().__init__(pres, max_len)
            expected.append(mutate(self))

    monkeypatch.setattr(hnn, "_WbarView", Mutated)
    report = verify_structure_theorem(pres, max_len)
    view = Mutated(pres, max_len)
    first = next(
        n
        for n in range(1, max_len + 1)
        for s in _weighted_products([len(w) for w in view.letters], n)
        if is_super_ls(Word(view.alphabet, s))
        != is_super_ls(Word(pres.alphabet, _concat([w.letters for w in view.letters], s)))
    )
    assert expected[0] in (None, first)
    assert [r.ls_transfer_ok for r in report.rows[:first]] == [True] * (first - 1) + [False]
    assert all(r.bijection_ok for r in report.rows)
    assert not report.rows[first - 1].passed and not report.passed


@pytest.mark.parametrize("mutate", [_flip_longest_parity, _swap_greatest_letters])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_structure_check_ii_failing_fails_iii(fixture, mutate, monkeypatch):
    # (ii) is (iii)'s word equality on the words that begin with t, so on
    # every row of a mutated block alphabet's report a failed (ii) sits with
    # a failed (iii)
    class Mutated(hnn._WbarView):
        def __init__(self, pres, max_len):
            super().__init__(pres, max_len)
            mutate(self)

    monkeypatch.setattr(hnn, "_WbarView", Mutated)
    report = verify_structure_theorem(fixture(), 6)
    assert any(not r.ls_transfer_ok for r in report.rows)
    assert not any(r.admissibility_ok for r in report.rows if not r.ls_transfer_ok)


@pytest.mark.parametrize("fixture", [ex1, ab5])
def test_structure_check_leaves_no_reference_cycles(fixture):
    # the recursive closures of the prenecklace walk and of the memoised
    # normal forms drop themselves, so their memos go when the call returns
    # instead of waiting, with every word they hold, for a cyclic collection
    pres = fixture()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        verify_structure_theorem(pres, 5)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_ex1_structure_counts():
    report = verify_structure_theorem(ex1(), 4)
    assert list(report.h_basis_counts) == [3, 1, 2, 3]


def test_block_letter_order_is_prefix_greater():
    T = ex1().alphabet
    t, tx, txx = T.word("t"), T.word("tx"), T.word("txx")
    assert lex_cmp(t, tx) > 0 and lex_cmp(tx, txx) > 0


def test_degree_one_basis_is_leaves_plus_stable_letter():
    for fixture in (ex1, ex2, ex3, ex4):
        pres = fixture()
        basis = enumerate_h_basis(pres, 1)
        names = {str(m) for m in basis}
        expected = {s.name for s in pres.alphabet.symbols}
        assert names == expected


def test_defining_relations_hold_in_quotient():
    # [t, a] minus the derivation image reduces to zero for every subalgebra symbol
    for fixture in (ex1, ex2, ex3, ex4):
        pres = fixture()
        system = build_relations(pres)
        sc = pres.constants
        T = pres.alphabet
        names = [s.name for s in T.symbols]
        t = parse_poly(T, names[pres.t_rank])
        for a in range(sc.subalgebra_size):
            image = parse_poly(
                T,
                " + ".join(
                    f"{c}*{names[v]}" for v, c in sorted(sc.derivation_coeffs(a).items())
                )
                or "0",
            )
            relation = superbracket(t, parse_poly(T, names[a])) - image
            normal_form, _ = reduce(relation, system)
            assert normal_form.is_zero()


def test_original_algebra_embeds():
    for fixture in (ex1, ex2, ex3, ex4):
        pres = fixture()
        system = build_relations(pres)
        forms = set()
        for r in range(pres.t_rank):
            nf, _ = reduce(parse_poly(pres.alphabet, pres.alphabet.symbols[r].name), system)
            assert not nf.is_zero()
            forms.add(nf)
        assert len(forms) == pres.t_rank


@pytest.mark.parametrize("fixture", FIXTURES)
def test_reduced_bracketings_are_unitriangular(fixture):
    pres = fixture()
    system = build_relations(pres)
    basis = enumerate_h_basis(pres, 5)
    pairs = [(m.word, reduce(expand(m), system)[0]) for m in basis]
    assert is_unitriangular(pairs)


# -- edge-shaped presentations --------------------------------------------------------


EMPTY_SUBALGEBRA = {
    "generators": [
        {"name": "x1", "parity": 0},
        {"name": "x2", "parity": 0},
    ],
    "subalgebra_size": 0,
    "d_parity": 1,
    "brackets": [],
    "derivation": [],
}


def test_empty_subalgebra_jointly_free():
    # no derivation at all: the extension is the algebra joined with a free
    # odd letter; every piece of machinery must still work
    pres = load_presentation(EMPTY_SUBALGEBRA)
    assert validate(pres.constants).passed
    system = build_relations(pres)
    assert [str(r.leading_word) for r in system.rules] == ["x2.x1"]
    report = verify_hnn_gsb(pres)
    assert report.passed and report.families_exercised() == ()
    structure = verify_structure_theorem(pres, 4)
    assert structure.passed
    assert list(structure.h_basis_counts) == [3, 3, 5, 12]
    texts = [str(m) for m in enumerate_h_basis(pres, 4)]
    assert "[t,t]" in texts  # t is odd here
    assert "[[t,x1],[t,x1]]" in texts  # odd square of a block letter
    assert "[[t,x2],[t,x1]]" in texts  # decreasing pair of block letters


TWO_ODD_COMPLEMENT = {
    "generators": [
        {"name": "a", "parity": 0},
        {"name": "y1", "parity": 1},
        {"name": "y2", "parity": 1},
    ],
    "subalgebra_size": 1,
    "d_parity": 1,
    "brackets": [],
    "derivation": [{"arg": "a", "value": [{"basis": "y1", "coeff": "1"}]}],
}


def test_two_odd_complement_letters():
    pres = load_presentation(TWO_ODD_COMPLEMENT)
    assert validate(pres.constants).passed
    report = verify_hnn_gsb(pres)
    assert report.passed
    assert set(report.families_exercised()) == {1, 3, 4}
    assert verify_structure_theorem(pres, 4).passed
    gens = [str(m) for m in free_generators_W(pres, 3)]
    # each odd symbol may appear at most once in a generator tail
    assert gens == ["t", "[t,y1]", "[t,y2]", "[[t,y1],y2]"]


# -- presentation input ------------------------------------------------------------------


def test_loader_reports_file_errors_by_path(tmp_path):
    # a missing file is a ValueError like every other input error, not a
    # FileNotFoundError, and a file without an object names its path
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match=r"missing\.json: \[Errno 2\]"):
        load_presentation(missing)
    for text, message in (("[1, 2]", "expected a JSON object"), ("{", "invalid JSON")):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_presentation(str(path))
        assert str(info.value).startswith(f"{path}: {message}")


def test_loader_rejects_unknown_names():
    data = copy.deepcopy(EX1)
    data["derivation"][0]["arg"] = "q"
    with pytest.raises(ValueError, match=r"derivation\[0\].arg"):
        load_presentation(data)
    data = copy.deepcopy(EX1)
    data["brackets"] = [{"left": "a", "right": "nope", "value": []}]
    with pytest.raises(ValueError, match=r"brackets\[0\].right"):
        load_presentation(data)


def test_loader_applies_the_alphabet_name_rule():
    data = copy.deepcopy(EX1)
    data["generators"][1]["name"] = "x+"
    with pytest.raises(ValueError, match=r"generators: bad symbol name 'x\+' at position 1"):
        load_presentation(data)
    data = copy.deepcopy(EX1)
    data["stable_letter"] = "1"
    with pytest.raises(ValueError, match=r"^stable letter: bad symbol name '1'"):
        load_presentation(data)
    data["stable_letter"] = ["t"]
    with pytest.raises(ValueError, match=r"^stable letter: bad symbol name \['t'\]"):
        load_presentation(data)


@pytest.mark.parametrize("name", sorted(ALL))
def test_load_presentation_builds_two_alphabets(name, monkeypatch):
    # the tables' alphabet and the extended one: the stable letter's name
    # is checked by the alphabet name rule without building a third
    built = []
    init = Alphabet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Alphabet, "__init__", counting_init)
    pres = load_presentation(ALL[name])
    assert [id(a) for a in built] == [id(pres.constants.alphabet), id(pres.alphabet)]


def test_loader_normalizes_fractions():
    data = copy.deepcopy(EX1)
    data["derivation"][0]["value"] = [{"basis": "x", "coeff": "2/4"}]
    pres = load_presentation(data)
    assert pres.constants.derivation_coeffs(0) == {1: Fraction(1, 2)}


def test_loader_rejects_floats_and_bad_parities():
    data = copy.deepcopy(EX1)
    data["derivation"][0]["value"] = [{"basis": "x", "coeff": 0.5}]
    with pytest.raises(ValueError, match="exact"):
        load_presentation(data)
    data = copy.deepcopy(EX1)
    data["generators"][0]["parity"] = 2
    with pytest.raises(ValueError, match="parity"):
        load_presentation(data)


def test_loader_rejects_derivation_outside_subalgebra():
    data = copy.deepcopy(EX1)
    data["derivation"].append({"arg": "x", "value": []})
    with pytest.raises(ValueError, match="subalgebra"):
        load_presentation(data)


def test_loader_rejects_duplicate_entries():
    data = copy.deepcopy(EX2)
    data["brackets"].append(copy.deepcopy(data["brackets"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        load_presentation(data)


def test_stable_letter_name_collision():
    data = copy.deepcopy(EX1)
    data["generators"].append({"name": "t", "parity": 0})
    data["subalgebra_size"] = 1
    with pytest.raises(ValueError, match="stable letter"):
        load_presentation(data)


def test_whole_algebra_subalgebra_rejected():
    data = copy.deepcopy(EX1)
    data["subalgebra_size"] = 2
    data["derivation"].append({"arg": "x", "value": []})
    with pytest.raises(ValueError, match="proper"):
        load_presentation(data)


def test_structure_constants_reject_out_of_range_ranks():
    alphabet = Alphabet.from_names(["a", "x"])
    with pytest.raises(ValueError):
        StructureConstants(alphabet, 1, 0, {(0, 5): {0: 1}}, {})
    with pytest.raises(ValueError):
        StructureConstants(alphabet, 1, 0, {}, {1: {0: 1}})  # arg not in subalgebra


def test_structure_constants_are_immutable():
    brackets = {(1, 0): {0: 1}}
    derivation = {0: {1: 2}}
    sc = StructureConstants(Alphabet.from_names(["a", "x"]), 1, 0, brackets, derivation)
    brackets[(1, 0)][0] = 5  # the table keeps its own copy
    derivation[0] = {}
    assert sc.bracket_coeffs(1, 0) == {0: Fraction(1)}
    assert sc.derivation_coeffs(0) == {1: Fraction(2)}
    with pytest.raises(TypeError):
        sc.alpha[(0, 1)] = {}
    with pytest.raises(TypeError):
        sc.alpha[(1, 0)][1] = Fraction(1)
    with pytest.raises(TypeError):
        sc.beta[0][0] = Fraction(1)
    for name in ("alphabet", "subalgebra_size", "d_parity", "alpha", "beta", "_report"):
        with pytest.raises(AttributeError):
            setattr(sc, name, None)


def test_each_table_is_validated_once(monkeypatch, capsys, tmp_path):
    calls = []
    check = hnn._check_identities
    monkeypatch.setattr(
        hnn, "_check_identities", lambda sc: calls.append(sc) or check(sc)
    )
    pres = ex4()
    report = validate(pres.constants)
    assert validate(pres.constants) is report
    build_relations(pres)
    verify_structure_theorem(pres, 3)
    enumerate_h_basis(pres, 3)
    enumerate_uh_basis(pres, 3)
    assert calls == [pres.constants]
    # a fresh table is checked afresh, also when it is invalid
    data = copy.deepcopy(EX4)
    data["derivation"][1]["value"] = [{"basis": "b", "coeff": "1"}]
    bad = load_presentation(data)
    assert not validate(bad.constants).passed
    with pytest.raises(ValueError, match="fail validation"):
        build_relations(bad)
    assert calls == [pres.constants, bad.constants]
    # one CLI call reads one table: validated once per command
    from superlie.cli import main

    path = tmp_path / "ex4.json"
    path.write_text(json.dumps(EX4))
    for command in ("hnn-verify", "hnn-basis"):
        calls.clear()
        assert main([command, "--input", str(path), "--max-len", "3"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_mirror_bracket_is_derived_with_the_right_sign():
    pres = ex2()  # stores only the (a, a) entry plus fixture brackets
    sc = pres.constants
    # [a, x] stored nowhere: both orientations resolve to zero
    assert sc.bracket_coeffs(1, 0) == {}
    data = copy.deepcopy(EX4)
    sc4 = load_presentation(data).constants
    assert sc4.bracket_coeffs(0, 1) == {0: Fraction(1)}
    assert sc4.bracket_coeffs(1, 0) == {0: Fraction(-1)}  # even/even mirror flips sign
