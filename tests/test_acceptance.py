"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything is exact rational arithmetic, so every comparison is equality;
the only tolerances are the stated runtime budgets.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import copy
import time
import zlib
from contextlib import contextmanager
from itertools import product
from random import Random

from superlie import (
    LARGEST_LEFTMOST,
    SMALLEST_RIGHTMOST,
    Alphabet,
    RewriteSystem,
    build_relations,
    enumerate_h_basis,
    enumerate_super_ls,
    enumerate_uh_basis,
    expand,
    is_gsb,
    load_presentation,
    parse_poly,
    rank,
    reduce,
    standard_bracket,
    validate,
    verify_hnn_gsb,
    verify_structure_theorem,
)
from superlie.poly import letter_terms
from conftest import EX2, ex1, ex2, ex3
from conftest import random_poly
from test_linalg import is_unitriangular

FIXTURES = (("ex1", ex1), ("ex2", ex2), ("ex3", ex3))


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over {budget_seconds}s"
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


# -- independent oracles (no library calls) ----------------------------------------


def oracle_is_ls(letters):
    return all(letters > letters[k:] + letters[:k] for k in range(1, len(letters)))


def oracle_is_super_ls(letters, parities):
    if oracle_is_ls(letters):
        return True
    n = len(letters)
    if n % 2:
        return False
    u = letters[: n // 2]
    return (
        u == letters[n // 2 :]
        and sum(parities[c] for c in u) % 2 == 1
        and oracle_is_ls(u)
    )


def oracle_scan_reduced(letters, forbidden):
    return not any(
        letters[i : i + len(f)] == f
        for f in forbidden
        for i in range(len(letters) - len(f) + 1)
    )


def test_criterion_1_gsb_verification():
    with criterion(1, "closure of the extension relations", 1.0 * len(FIXTURES)):
        families = {}
        for name, fixture in FIXTURES:
            t0 = time.perf_counter()
            report = verify_hnn_gsb(fixture())
            assert time.perf_counter() - t0 < 1.0
            assert report.passed
            assert all(c.normal_form.is_zero() for c in report.associative.checks)
            assert all(c.normal_form.is_zero() for c in report.lie_checks)
            families[name] = set(report.families_exercised())
        assert 5 in families["ex3"]


def test_criterion_2_basis_equivalences():
    with criterion(2, "reduced words match both basis descriptions", 10.0):
        for name, fixture in FIXTURES:
            pres = fixture()
            system = build_relations(pres)
            forbidden = [r.leading_word.letters for r in system.rules]
            parities = [s.parity for s in pres.alphabet.symbols]
            size = len(pres.alphabet)

            reduced, reduced_super_ls = set(), set()
            for n in range(7):
                for letters in product(range(size), repeat=n):
                    if not oracle_scan_reduced(letters, forbidden):
                        continue
                    reduced.add(letters)
                    if n >= 1 and oracle_is_super_ls(letters, parities):
                        reduced_super_ls.add(letters)

            pattern = {w.letters for w in enumerate_uh_basis(pres, 6)}
            assert pattern == reduced

            basis_words = {m.word.letters for m in enumerate_h_basis(pres, 6)}
            assert basis_words == reduced_super_ls


def test_criterion_3_structure_theorem():
    with criterion(3, "direct-sum structure to degree 5", 30.0):
        for name, fixture in FIXTURES:
            report = verify_structure_theorem(fixture(), 5)
            assert report.passed
            if name == "ex1":
                assert list(report.h_basis_counts[:4]) == [3, 1, 2, 3]


def test_criterion_4_free_superalgebra_dimensions():
    with criterion(4, "free superalgebra dimensions", 20.0):
        ab = Alphabet.from_names(["a", "b"])
        expected = [2, 1, 2, 3, 6, 9, 18]
        oracle_counts = [
            sum(
                1
                for letters in product(range(2), repeat=n)
                if oracle_is_super_ls(letters, [0, 0])
            )
            for n in range(1, 8)
        ]
        assert oracle_counts == expected
        words = enumerate_super_ls(ab, 7)
        for n, want in zip(range(1, 8), expected):
            layer = [w for w in words if len(w) == n]
            assert len(layer) == want
            vectors = [letter_terms(expand(standard_bracket(w))) for w in layer]
            assert rank(vectors)[0] == want

        x_odd = Alphabet.from_names(["x"], odd=["x"])
        counts = [
            sum(1 for w in enumerate_super_ls(x_odd, 3) if len(w) == n)
            for n in (1, 2, 3)
        ]
        assert counts == [1, 1, 0]


def test_criterion_5_admissible_bracketing_basis():
    with criterion(5, "reduced bracketings are unitriangular", 20.0):
        for name, fixture in FIXTURES:
            pres = fixture()
            system = build_relations(pres)
            parities = [s.parity for s in pres.alphabet.symbols]
            forbidden = [r.leading_word.letters for r in system.rules]
            basis = enumerate_h_basis(pres, 5)
            pairs = [(m.word, reduce(expand(m), system)[0]) for m in basis]
            assert is_unitriangular(pairs)
            covered = {m.word.letters for m in basis}
            oracle = {
                letters
                for n in range(1, 6)
                for letters in product(range(len(pres.alphabet)), repeat=n)
                if oracle_scan_reduced(letters, forbidden)
                and oracle_is_super_ls(letters, parities)
            }
            assert covered == oracle


def test_criterion_6_soundness_and_confluence():
    with criterion(6, "trace soundness and strategy agreement", 30.0):
        for name, fixture in FIXTURES:
            pres = fixture()
            system = build_relations(pres)
            assert is_gsb(system).passed
            rng = Random(zlib.crc32(name.encode()))
            for _ in range(200):
                p = random_poly(rng, pres.alphabet, max_terms=4, max_len=4)
                nf, trace = reduce(p, system, strategy=LARGEST_LEFTMOST)
                replayed, ideal_part = trace.replay(p, system)
                assert replayed == nf
                assert p - nf == ideal_part
                nf2, trace2 = reduce(p, system, strategy=SMALLEST_RIGHTMOST)
                assert nf2 == nf
                replayed2, ideal2 = trace2.replay(p, system)
                assert replayed2 == nf2 and p - nf2 == ideal2


def test_criterion_7_negative_controls():
    with criterion(7, "corrupt inputs are caught", 10.0):
        corrupted = copy.deepcopy(EX2)
        corrupted["brackets"].append(
            {"left": "a", "right": "x", "value": [{"basis": "a", "coeff": "1"}]}
        )
        report = validate(load_presentation(corrupted).constants)
        assert not report.passed
        assert any(v.check == "jacobi" for v in report.violations)

        vyx = Alphabet.from_names(["v", "y", "x"])
        broken = RewriteSystem.from_polys(
            vyx, [parse_poly(vyx, "xy - v"), parse_poly(vyx, "yv - y")]
        )
        gsb = is_gsb(broken)
        assert not gsb.passed
        failure = gsb.failures()[0]
        assert not failure.normal_form.is_zero()
        assert failure.normal_form == parse_poly(vyx, "v - vv")
