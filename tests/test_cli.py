"""Command-line behaviour: outputs, exit codes, determinism."""

import contextlib
import copy
import doctest
import functools
import importlib
import io
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superlie import Alphabet, Poly, Word, cli, parse_monomial
from superlie.cli import main
from superlie.hnn import load_presentation, validate
from conftest import ALL, left_comb

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shipped_fixture_files_match_source():
    # every presentation file is one of the examples, so none is skipped
    presentations = {
        path.stem: path
        for path in sorted(FIXTURES.glob("*.json"))
        if "rules" not in json.loads(path.read_text())
    }
    assert set(presentations) == set(ALL)
    for path in presentations.values():
        assert validate(load_presentation(path).constants).passed


def test_package_runs_without_the_repository(capsys, tmp_path):
    # the package alone, run away from the repository root, as an installed
    # copy is: it reads no file of the repository but the input it is given
    shutil.copytree(
        ROOT / "src" / "superlie", tmp_path / "superlie",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    where = subprocess.run(
        [sys.executable, "-c", "import superlie; print(superlie.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert Path(where.stdout.strip()).parent == tmp_path / "superlie"
    argv = ["hnn-verify", "--input", str(FIXTURES / "ex1.json"), "--format", "json"]
    done = subprocess.run(
        [sys.executable, "-m", "superlie.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stderr) == (code, "") == (0, "")
    assert done.stdout == out


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh process without site: the report records are plain slotted
    # classes, so importing the CLI loads neither dataclasses nor the modules
    # it pulls in
    probe = (
        "import sys; before = set(sys.modules); import superlie.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    added = set(done.stdout.split())
    assert "superlie.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_readme_session_runs(monkeypatch):
    # the pycon blocks alone, so that a closing fence is not read as output;
    # run from the repository root, where the session's paths start
    sessions = re.findall(r"```pycon\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert sessions
    monkeypatch.chdir(ROOT)
    parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(), []
    for session in sessions:
        test = parser.get_doctest(session, {}, "README.md", str(ROOT / "README.md"), 0)
        runner.run(test, out=report.append)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed, "".join(report)


def test_library_tour_names_resolve():
    # every backticked name in the README's Library tour table is defined on
    # its row's module, or is a method of a class named before it in the row
    tour = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(superlie\.\w+)` \| (.*) \|$", tour, re.M)
    assert len(rows) == 6
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        classes = []
        for name in re.findall(r"`([^`]+)`", contents):
            owner = next((o for o in (module, *classes) if hasattr(o, name)), None)
            assert owner is not None, f"{module_name}: `{name}` does not resolve"
            if isinstance(getattr(owner, name), type):
                classes.append(getattr(owner, name))


def test_ls_words(capsys):
    cases = [
        ("a,b", "2", ["a", "b", "ba"]),
        # every longer word over one letter is a power of it; none is walked
        ("a:odd", "5000", ["a", "aa"]),
        ("a", "5000", ["a"]),
    ]
    for alphabet, max_len, words in cases:
        code, out, err = run(capsys, "ls-words", "--alphabet", alphabet, "--max-len", max_len)
        assert (code, err) == (0, "")
        assert out.splitlines() == words


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "txx", "--alphabet", "x,t")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[[t,x],x]"
    assert lines[1].startswith("txx")  # leading term 1*txx


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "[t,x]", "--alphabet", "x,t")
    assert code == 0
    assert out.strip() == "tx - xt"


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_expand_command_reads_a_comb_deeper_than_the_recursion_limit(capsys):
    # [..[[t,x],x]..,x] with n x's expands to sum_k (-1)^k C(n,k) x^k t x^(n-k),
    # built in O(n^3) letters, so the limit is lowered to keep n small: a
    # parser, printer or expansion recursing once per level would exceed it
    alphabet = Alphabet.from_names(["x", "t"])
    x, t = alphabet.rank("x"), alphabet.rank("t")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        n = sys.getrecursionlimit() + 50
        text = "[" * n + "t" + ",x]" * n
        code, out, err = run(capsys, "expand", text, "--alphabet", "x,t", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert parse_monomial(alphabet, payload["monomial"]) == left_comb(alphabet, t, [x] * n)
    finally:
        sys.setrecursionlimit(limit)
    assert payload["monomial"] == text
    closed_form = Poly(alphabet, [
        (Word(alphabet, (x,) * k + (t,) + (x,) * (n - k)), (-1) ** k * math.comb(n, k))
        for k in range(n + 1)
    ])
    assert payload["expansion"] == str(closed_form)


def test_bracket_command_brackets_a_word_longer_than_the_recursion_limit(capsys):
    # t x^n brackets to the left comb [..[[t,x],x]..,x], expanded in closed form
    alphabet = Alphabet.from_names(["x", "t"])
    x, t = alphabet.rank("x"), alphabet.rank("t")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        n = sys.getrecursionlimit() + 50
        code, out, err = run(capsys, "bracket", "t" + "x" * n, "--alphabet", "x,t", "--format", "json")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["bracket"] == "[" * n + "t" + ",x]" * n
    closed_form = Poly(alphabet, [
        (Word(alphabet, (x,) * k + (t,) + (x,) * (n - k)), (-1) ** k * math.comb(n, k))
        for k in range(n + 1)
    ])
    assert payload["expansion"] == str(closed_form)


def test_reduce_command(capsys, tmp_path):
    rules = {
        "generators": [
            {"name": "a", "parity": 0},
            {"name": "b", "parity": 0},
            {"name": "x", "parity": 0},
            {"name": "t", "parity": 0},
        ],
        "rules": ["ta - x"],
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    code, out, _ = run(capsys, "reduce", "tab", "--input", str(path))
    assert code == 0
    assert out.splitlines()[0] == "normal form: xb"


@pytest.mark.parametrize(
    "strategy, steps",
    [
        ("largest-leftmost", ["rewrote a at 0 by 1", "rewrote 1 at 0 by 1"]),
        ("smallest-rightmost", ["rewrote 1 at 0 by 1", "rewrote a at 1 by 1"]),
    ],
)
def test_reduce_by_a_constant_rule(capsys, tmp_path, strategy, steps):
    # the empty leading word also occurs at the end of a word, so in the
    # empty word; the empty word prints as 1
    rules = {"generators": [{"name": "a", "parity": 0}], "rules": ["1"]}
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    argv = ["reduce", "1 + a", "--input", str(path), "--strategy", strategy]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["normal form: 0"] + [f"  {s}" for s in steps]
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["normal_form"] == "0"
    assert [(s["word"], s["rule"]) for s in payload["steps"]] == [
        (s.split()[1], "1") for s in steps
    ]


def test_gsb_check_pass(capsys):
    code, out, _ = run(capsys, "gsb-check", "--input", str(FIXTURES / "ex3.json"))
    assert code == 0
    assert "PASS" in out


def test_gsb_check_broken_rules(capsys):
    code, out, _ = run(
        capsys, "gsb-check", "--input", str(FIXTURES / "broken_rules.json")
    )
    assert code == 1
    assert "xyv" in out  # the failing overlap word
    assert "FAIL" in out


def test_hnn_verify_ex1(capsys):
    code, out, _ = run(
        capsys, "hnn-verify", "--input", str(FIXTURES / "ex1.json"), "--max-len", "4"
    )
    assert code == 0
    assert "3, 1, 2, 3" in out


def _invalid_ex2(tmp_path) -> Path:
    """ex2 with the bracket [a, x] = a added, which breaks its Jacobi identities."""
    data = json.loads((FIXTURES / "ex2.json").read_text())
    data["brackets"].append(
        {"left": "a", "right": "x", "value": [{"basis": "a", "coeff": "1"}]}
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


def _renamed_ex4(tmp_path) -> Path:
    """ex4 with a, b, x renamed a1, b_2, x3 and the stable letter named s0."""
    names = {"a": "a1", "b": "b_2", "x": "x3"}
    data = json.loads(
        (FIXTURES / "ex4.json").read_text(),
        object_hook=lambda d: {k: names.get(v, v) if isinstance(v, str) else v
                               for k, v in d.items()},
    )
    data["stable_letter"] = "s0"
    path = tmp_path / "ex4-renamed.json"
    path.write_text(json.dumps(data))
    return path


def _rescaled_osp(tmp_path) -> Path:
    """osp with e_i -> l_i e_i and t -> m t for fixed rationals: an isomorphic table."""
    lam = {"h": Fraction(2, 3), "e": Fraction(-3, 2), "u": Fraction(1, 3),
           "f": Fraction(2), "v": Fraction(-2, 3)}
    mu = Fraction(-3, 2)
    data = json.loads((FIXTURES / "osp.json").read_text())
    for entries, factor in (
        (data["brackets"], lambda e: lam[e["left"]] * lam[e["right"]]),
        (data["derivation"], lambda e: mu * lam[e["arg"]]),
    ):
        for entry in entries:
            for term in entry["value"]:
                term["coeff"] = str(Fraction(term["coeff"]) * factor(entry) / lam[term["basis"]])
    path = tmp_path / "osp-rescaled.json"
    path.write_text(json.dumps(data))
    return path


def _rational_rules(tmp_path) -> Path:
    """Two rules with rational coefficients over v < y < x; they are not closed."""
    generators = [{"name": n, "parity": 0} for n in ("v", "y", "x")]
    path = tmp_path / "rational-rules.json"
    path.write_text(json.dumps(
        {"generators": generators, "rules": ["2*xy - 1/2*v", "3/2*yv - 2/3*y"]}
    ))
    return path


def test_hnn_verify_rejects_invalid_table(capsys, tmp_path):
    code, out, _ = run(capsys, "hnn-verify", "--input", str(_invalid_ex2(tmp_path)))
    assert code == 1
    assert "FAIL" in out


def test_hnn_basis_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "hnn-basis",
        "--input",
        str(FIXTURES / "ex3.json"),
        "--max-len",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert "[t,t]" in payload["algebra_basis"]
    assert payload["free_generators"][0] == "t"


def test_hnn_verify_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "hnn-verify",
        "--input",
        str(FIXTURES / "ex2.json"),
        "--max-len",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["structure"]["h_basis_counts"] == [3, 2, 1]
    assert json.loads(json.dumps(payload)) == payload


def test_identical_invocations_are_byte_identical(capsys):
    argv = [
        "hnn-verify", "--input", str(FIXTURES / "ex3.json"),
        "--max-len", "4", "--format", "json",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("command", ["hnn-verify", "hnn-basis"])
def test_rules_file_where_a_presentation_is_needed_exits_2(capsys, command):
    path = FIXTURES / "broken_rules.json"
    code, out, err = run(capsys, command, "--input", str(path))
    message = f"error: {path}: expected a presentation, got a rules file\n"
    assert (code, out, err) == (2, "", message)


def test_sign_without_a_term_exits_2(capsys, tmp_path):
    path = FIXTURES / "broken_rules.json"
    code, out, err = run(capsys, "reduce", "xy -", "--input", str(path))
    assert (code, out, err) == (2, "", "error: a sign without a term after it in 'xy -'\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(dict(json.loads(path.read_text()), rules=["xy -"])))
    code, out, err = run(capsys, "gsb-check", "--input", str(rules))
    message = f"error: {rules}: rules[0]: a sign without a term after it in 'xy -'\n"
    assert (code, out, err) == (2, "", message)


def test_leading_plus_exits_2(capsys):
    path = FIXTURES / "broken_rules.json"
    code, out, err = run(capsys, "reduce", "+xy", "--input", str(path))
    assert (code, out, err) == (2, "", "error: a leading '+' in '+xy'\n")


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "gsb-check", "--input", str(path))
    assert code == 2
    assert "broken.json" in err  # location-bearing message


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "hnn-verify", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in err


def test_unknown_name_in_presentation_exits_2(capsys, tmp_path):
    data = json.loads((FIXTURES / "ex1.json").read_text())
    data["brackets"] = [{"left": "a", "right": "zz", "value": []}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "hnn-verify", "--input", str(path))
    assert code == 2
    assert "brackets[0].right" in err


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("self-check failed:\n  rank 3 != 4"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError(),
    ],
    ids=["runtime", "recursion", "memory"],
)
def test_internal_error_exits_3_in_one_line(capsys, monkeypatch, error):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_hnn_verify", broken)
    code, out, err = run(capsys, "hnn-verify", "--input", str(FIXTURES / "ex1.json"))
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: {type(error).__name__}")
    assert err.count("\n") == 1 and "Traceback" not in err
    if str(error):
        assert " ".join(str(error).split()) in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
@pytest.mark.parametrize("command", ["hnn-verify", "hnn-basis"])
def test_output_matches_golden_file(capsys, command, name, fmt):
    # recorded from the CLI before the extension basis was built from W
    code, out, err = run(
        capsys, command, "--input", str(FIXTURES / f"{name}.json"),
        "--max-len", "5", "--format", "json" if fmt == "json" else "text",
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{command}-{name}.{fmt}").read_text()


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize(
    "name, alphabet, max_len",
    [("abc", "a,b:odd,c", "6"), ("lhkz", "l,h,k,z:odd", "5"), ("x1x2y", "x1,x2:odd,y", "5")],
)
def test_ls_words_matches_golden_file(capsys, name, alphabet, max_len, fmt):
    # abc and lhkz recorded from the CLI when words were still found by
    # scanning every word; x1x2y (dotted names) before str(word) had a byte table
    code, out, err = run(
        capsys, "ls-words", "--alphabet", alphabet, "--max-len", max_len,
        "--format", "json" if fmt == "json" else "text",
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"ls-words-{name}.{fmt}").read_text()


INVALID_EX2 = "<invalid ex2>"  # stands for the path _invalid_ex2 writes
RENAMED_EX4 = "<renamed ex4>"  # stands for the path _renamed_ex4 writes
RESCALED_OSP = "<rescaled osp>"  # stands for the path _rescaled_osp writes
RATIONAL_RULES = "<rational rules>"  # stands for the path _rational_rules writes
WRITTEN_INPUTS = {
    INVALID_EX2: _invalid_ex2,
    RENAMED_EX4: _renamed_ex4,
    RESCALED_OSP: _rescaled_osp,
    RATIONAL_RULES: _rational_rules,
}
BROKEN_REDUCE = ["reduce", "xyv + 2*yx", "--input", str(FIXTURES / "broken_rules.json")]
RATIONAL_REDUCE = ["reduce", "2/3*feh - 1/2*fh + 3/4*tfe", "--input", str(FIXTURES / "sl2.json")]
RESCALED_REDUCE = ["reduce", "1/3*taa + 3*xaa - 5/2*aat", "--input", str(FIXTURES / "ex2.json")]


def _report_cells(name, argv, code):
    """One golden cell per output format of a report."""
    return [(f"{name}.txt", argv, code), (f"{name}.json", [*argv, "--format", "json"], code)]


LISTING_CELLS = [
    # ranks 10 and 11: a word's bytes hold 10, the newline
    ("ls-words-a-to-l.txt", ["ls-words", "--alphabet", "a,b,c,d,e,f,g,h,i,j,k:odd,l",
                             "--max-len", "4"], 0),
    ("ls-words-a-to-l.json", ["ls-words", "--alphabet", "a,b,c,d,e,f,g,h,i,j,k:odd,l",
                              "--max-len", "4", "--format", "json"], 0),
    # odd squares and the longest enveloping lists of the fixtures, recorded
    # while every listed word was still built through the checked Word
    # constructor and printed by str(word)
    ("hnn-basis-osp-6.json", ["hnn-basis", "--input", str(FIXTURES / "osp.json"),
                              "--max-len", "6", "--format", "json"], 0),
    ("hnn-basis-ab5-5.json", ["hnn-basis", "--input", str(FIXTURES / "ab5.json"),
                              "--max-len", "5", "--format", "json"], 0),
    # reports recorded while each tree's leading term was still found
    # lazily, on first use; osp is the one fixture with all five
    # composition families
    *_report_cells("hnn-verify-osp-6", ["hnn-verify", "--input",
                                        str(FIXTURES / "osp.json"), "--max-len", "6"], 0),
    *_report_cells("hnn-verify-ab5-5", ["hnn-verify", "--input",
                                        str(FIXTURES / "ab5.json"), "--max-len", "5"], 0),
    *_report_cells("gsb-check-broken-rules",
                   ["gsb-check", "--input", str(FIXTURES / "broken_rules.json")], 1),
    *_report_cells("hnn-verify-ex2-invalid", ["hnn-verify", "--input", INVALID_EX2], 1),
    # the rules are not closed, so the two strategies reach different normal forms
    *_report_cells("reduce-broken-rules-largest-leftmost",
                   [*BROKEN_REDUCE, "--strategy", "largest-leftmost"], 0),
    *_report_cells("reduce-broken-rules-smallest-rightmost",
                   [*BROKEN_REDUCE, "--strategy", "smallest-rightmost"], 0),
    # degrees where check (iv) rewrites bracket products, recorded while it
    # still scanned every product word for a leading word
    *_report_cells("hnn-verify-ab5-7", ["hnn-verify", "--input",
                                        str(FIXTURES / "ab5.json"), "--max-len", "7"], 0),
    *_report_cells("hnn-verify-osp-8", ["hnn-verify", "--input",
                                        str(FIXTURES / "osp.json"), "--max-len", "8"], 0),
    # multi-character names, printed with dots, and a stable letter not named
    # t, through the presentation's alphabet and the block alphabet of W
    *_report_cells("hnn-basis-ex4-renamed-5", ["hnn-basis", "--input", RENAMED_EX4,
                                               "--max-len", "5"], 0),
    *_report_cells("hnn-verify-ex4-renamed-6", ["hnn-verify", "--input", RENAMED_EX4,
                                                "--max-len", "6"], 0),
    # rational coefficients in the input, the rules and the normal forms,
    # recorded while a polynomial still kept one Fraction per term
    *_report_cells("reduce-sl2-rational-largest-leftmost",
                   [*RATIONAL_REDUCE, "--strategy", "largest-leftmost"], 0),
    *_report_cells("reduce-sl2-rational-smallest-rightmost",
                   [*RATIONAL_REDUCE, "--strategy", "smallest-rightmost"], 0),
    *_report_cells("gsb-check-rational-rules", ["gsb-check", "--input", RATIONAL_RULES], 1),
    *_report_cells("hnn-verify-osp-rescaled-6", ["hnn-verify", "--input", RESCALED_OSP,
                                                 "--max-len", "6"], 0),
    # degrees with thousands of pattern words, recorded while check (i) still
    # listed each one and split it before each t
    *_report_cells("hnn-verify-ex1-12", ["hnn-verify", "--input",
                                         str(FIXTURES / "ex1.json"), "--max-len", "12"], 0),
    ("hnn-verify-ab5-8.json", ["hnn-verify", "--input", str(FIXTURES / "ab5.json"),
                               "--max-len", "8", "--format", "json"], 0),
    # words up to length 9, odd squares included, recorded while the walk
    # still recursed and went on on a stack below a fixed depth
    ("ls-words-abc-9.json", ["ls-words", "--alphabet", "a,b:odd,c", "--max-len", "9",
                             "--format", "json"], 0),
    # ex2's rule aa - 1/2*x does not divide the odd numerator of aat, so the
    # common denominator is scaled mid-reduction; recorded while the
    # reduction kernel still divided its normal form back into Fractions
    *_report_cells("reduce-ex2-rescaled-largest-leftmost",
                   [*RESCALED_REDUCE, "--strategy", "largest-leftmost"], 0),
    *_report_cells("reduce-ex2-rescaled-smallest-rightmost",
                   [*RESCALED_REDUCE, "--strategy", "smallest-rightmost"], 0),
]


@pytest.mark.parametrize(
    "name, argv, code",
    # ids as pytest made them before the cells carried an exit code
    [pytest.param(*cell, id=f"{cell[0]}-argv{i}") for i, cell in enumerate(LISTING_CELLS)],
)
def test_listing_matches_golden_file(capsys, tmp_path, name, argv, code):
    argv = [str(WRITTEN_INPUTS[arg](tmp_path)) if arg in WRITTEN_INPUTS else arg for arg in argv]
    assert run(capsys, *argv) == (code, (GOLDEN / name).read_text(), "")


EXPANSION_CELLS = {
    "bracket-tyx": ["bracket", "tyx", "--alphabet", "x,y:odd,t"],
    "bracket-cbcba": ["bracket", "cbcba", "--alphabet", "a:odd,b,c"],
    "bracket-zyzyx": ["bracket", "zyzyx", "--alphabet", "x:odd,y:odd,z"],
    "expand-tx-tx-odd": ["expand", "[[t,x],[t,x]]", "--alphabet", "x:odd,t:odd"],
    "expand-tx-tx-even": ["expand", "[[t,x],[t,x]]", "--alphabet", "x:odd,t"],
    "expand-x1-x2x2": ["expand", "[x1,[x2,x2]]", "--alphabet", "x1,x2:odd"],
}


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(EXPANSION_CELLS))
def test_expansion_matches_golden_file(capsys, name, fmt):
    # recorded from the CLI when the superbracket still summed Poly products
    code, out, err = run(
        capsys, *EXPANSION_CELLS[name], "--format", "json" if fmt == "json" else "text"
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0*e", "zero denominator in '1/0*e'"),
        ("e - 3/0", "zero denominator in '3/0'"),
        ("2*", "missing word after '*' in '2*'"),
        ("h + 2*", "missing word after '*' in '2*'"),
        ("1.5*e", "bad coefficient '1.5' (expected an integer or p/q)"),
        ("1e3*e", "bad coefficient '1e3' (expected an integer or p/q)"),
        ("1_000*e", "bad coefficient '1_000' (expected an integer or p/q)"),
        ("e + .5", "bad coefficient '.5' (expected an integer or p/q)"),
        ("e*h", "bad coefficient 'e' (expected an integer or p/q)"),
        ("2*e*e", "a term has at most one '*': '2*e*e'"),
        ("h - e*2*e", "a term has at most one '*': 'e*2*e'"),
    ],
)
def test_bad_coefficient_text_exits_2(capsys, tmp_path, text, message):
    code, out, err = run(capsys, "reduce", text, "--input", str(FIXTURES / "sl2.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    rules = tmp_path / "rules.json"
    generators = [{"name": n, "parity": 0} for n in ("h", "e")]
    rules.write_text(json.dumps({"generators": generators, "rules": ["eh - e", text]}))
    for command in (["reduce", "eh"], ["gsb-check"]):
        code, out, err = run(capsys, *command, "--input", str(rules))
        assert (code, out, err) == (2, "", f"error: {rules}: rules[1]: {message}\n")


@pytest.mark.parametrize("coeff", ["1.5", "1e3", "1_000", ".5", " 1"])
def test_bad_coefficient_in_presentation_exits_2(capsys, tmp_path, coeff):
    data = dict(ALL["ex1"], derivation=[{"arg": "a", "value": [{"basis": "x", "coeff": coeff}]}])
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hnn-verify", "--input", str(path))
    message = f"derivation[0].value[0].coeff: bad coefficient {coeff!r} (expected an integer or p/q)"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"brackets": 5}, "brackets: expected a list"),
        ({"derivation": None}, "derivation: expected a list"),
        (
            {"brackets": [{"left": ["a"], "right": "x", "value": []}]},
            "brackets[0].left: unknown generator ['a']",
        ),
        ({"derivation": [{"arg": ["a"], "value": []}]}, "derivation[0].arg: unknown generator ['a']"),
        (
            {"derivation": [{"arg": "a", "value": [{"basis": ["a"], "coeff": "1"}]}]},
            "derivation[0].value[0].basis: unknown generator ['a']",
        ),
        ({"rules": [5]}, "{path}: rules[0]: expected a string"),
        # one name, not an entry of a list, so no position
        (
            {"stable_letter": "1t"},
            "stable letter: bad symbol name '1t': use letters, digits and '_', "
            "not starting with a digit",
        ),
        (
            {"generators": [{"name": n, "parity": 0} for n in ("a", "x", "a")]},
            "generators[2].name: duplicate 'a'",
        ),
        (
            {"derivation": [{"arg": "a", "value": []}, {"arg": "a", "value": []}]},
            "derivation[1]: duplicate derivation entry for 'a'",
        ),
    ],
    ids=["brackets-int", "derivation-null", "left-list", "arg-list", "basis-list", "rule-int",
         "stable-letter-name", "duplicate-generator", "duplicate-derivation"],
)
def test_malformed_input_file_exits_2(capsys, tmp_path, changes, message):
    # a rules file when the change is to "rules", else the ex1 presentation
    if "rules" in changes:
        command, data = "gsb-check", {"generators": ALL["ex1"]["generators"], **changes}
    else:
        command, data = "hnn-verify", dict(ALL["ex1"], **changes)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize(
    "rules, message",
    [
        (["ba - a", "0"], "rules[1]: a rewrite rule cannot be zero"),
        (["ba - a", "c - a"], "rules[1]: rule body must be parity-homogeneous: c - a"),
        (["ba - a", "c", "2*ba + a"], "rules[2]: duplicate leading word 'ba'"),
        (["2", "3"], "rules[1]: duplicate leading word '1'"),
    ],
    ids=["zero", "parity-mixed", "duplicate-leading-word", "duplicate-empty-leading-word"],
)
def test_bad_rule_exits_2_with_its_location(capsys, tmp_path, rules, message):
    generators = [{"name": n, "parity": int(n == "c")} for n in "abc"]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"generators": generators, "rules": rules}))
    for command in (["reduce", "a"], ["gsb-check"]):
        code, out, err = run(capsys, *command, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("word", ["1", ""])
def test_bracket_of_the_empty_word_exits_2(capsys, word):
    code, out, err = run(capsys, "bracket", word, "--alphabet", "a,b")
    assert (code, out, err) == (2, "", "error: not a super-Lyndon-Shirshov word: ''\n")


def test_bracket_text_missing_a_name_exits_2(capsys):
    code, out, err = run(capsys, "expand", "[,a]", "--alphabet", "a,b")
    assert (code, out, err) == (2, "", "error: missing symbol name at offset 1 in '[,a]'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hnn-verify", "--input", str(FIXTURES / "ex1.json")],
        ["hnn-basis", "--input", str(FIXTURES / "ex1.json")],
        ["ls-words", "--alphabet", "a,b"],
    ],
    ids=["hnn-verify", "hnn-basis", "ls-words"],
)
def test_max_len_0_exits_2(capsys, argv):
    # argparse rejects it: a usage line, then one error line
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-len", "0"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"superlie {argv[0]}: error: argument --max-len: must be >= 1"]


def test_closed_pipe_exits_141_without_a_traceback():
    # 179 kB of words, more than the pipe holds, so the CLI is still writing
    # when its reader takes one line and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["ls-words", "--alphabet", "a,b,c,d:odd", "--max-len", "8"]
    with subprocess.Popen(
        [sys.executable, "-m", "superlie.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"a\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


ALPHABET_NAMES = ["x1", "t", "1a", "a.b", ""]


@st.composite
def _text_calls(draw):
    """An ls-words, bracket or expand call on a drawn --alphabet spec.

    Half the specs are valid, so that words and monomials are parsed too.
    """
    valid = st.lists(
        st.tuples(st.sampled_from(["x1", "t"]), st.sampled_from(["", ":odd"])),
        min_size=1, max_size=2, unique_by=lambda token: token[0],
    )
    any_tokens = st.lists(
        st.tuples(st.sampled_from(ALPHABET_NAMES), st.sampled_from(["", ":odd", ":even"])),
        min_size=1, max_size=4,
    )
    tokens = draw(st.one_of(valid, any_tokens))
    spec = ",".join(name + tag for name, tag in tokens)
    leaves = draw(st.lists(st.sampled_from([name for name, _ in tokens]), max_size=8))
    command = draw(st.sampled_from(["ls-words", "bracket", "expand"]))
    if command == "ls-words":
        return ["ls-words", "--alphabet", spec, "--max-len", str(draw(st.integers(1, 4)))]
    if command == "bracket":
        return ["bracket", draw(st.sampled_from(["", "."])).join(leaves), "--alphabet", spec]

    def bracketed(leaves):
        if len(leaves) < 2:
            return "".join(leaves)
        k = draw(st.integers(1, len(leaves) - 1))
        return f"[{bracketed(leaves[:k])},{bracketed(leaves[k:])}]"

    return ["expand", bracketed(leaves), "--alphabet", spec]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_text_calls())
def test_text_inputs_exit_0_or_2_with_a_message(argv):
    # input fuzzing: valid and invalid names, tags, empty tokens and
    # duplicates; a bad input is one "error: " line, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


DELETED = object()  # stands for deleting the key or list entry
MUTANT_VALUES = [None, True, 0, -1, "", [], {}, "1/0", "1.5", 1.5, 10**30, "q", DELETED]


def _value_paths(node, path=()):
    """The key path of every value inside the JSON value ``node``, depth first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def _mutants(data):
    """``data`` with one value replaced by one of ``MUTANT_VALUES``, each way in turn."""
    for path in _value_paths(data):
        for value in MUTANT_VALUES:
            mutant = copy.deepcopy(data)
            *head, last = path
            parent = functools.reduce(operator.getitem, head, mutant)
            if value is DELETED:
                del parent[last]
            else:
                parent[last] = value
            yield path, value, mutant


@pytest.mark.parametrize("name", ["ab5", "broken_rules"])
def test_mutated_input_files_exit_0_1_or_2_with_a_message(capsys, tmp_path, name):
    # input fuzzing: every one-value mutation of a presentation and of a
    # rules file, read by each command that takes --input; a bad file is
    # one "error: " line, never an internal error
    path = tmp_path / f"{name}.json"
    commands = [
        ["hnn-verify", "--input", str(path), "--max-len", "3"],
        ["hnn-basis", "--input", str(path), "--max-len", "2"],
        ["gsb-check", "--input", str(path)],
        ["reduce", "xy", "--input", str(path)],
    ]
    for where, value, mutant in _mutants(json.loads((FIXTURES / f"{name}.json").read_text())):
        path.write_text(json.dumps(mutant))
        for argv in commands:
            code, out, err = run(capsys, *argv)
            case = (where, "deleted" if value is DELETED else value, argv[0], err)
            assert code in (0, 1, 2), case
            assert "internal error" not in err, case
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, case


def test_bad_alphabet_name_exits_2(capsys):
    code, out, err = run(capsys, "ls-words", "--alphabet", "a+,b", "--max-len", "2")
    assert (code, out) == (2, "")
    assert "--alphabet: bad symbol name 'a+' at position 0" in err


def test_rules_file_generator_named_1_exits_2(capsys, tmp_path):
    rules = {
        "generators": [{"name": "a", "parity": 0}, {"name": "1", "parity": 0}],
        "rules": ["a - a"],
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    code, out, err = run(capsys, "gsb-check", "--input", str(path))
    assert (code, out) == (2, "")
    assert f"{path}: generators: bad symbol name '1' at position 1" in err


@pytest.mark.parametrize("parity", ["odd", 7, True, 1.0])
def test_bad_generator_parity_exits_2(capsys, tmp_path, parity):
    # rules files and presentations parse their generators the same way
    generators = [
        {"name": "v", "parity": 0},
        {"name": "x", "parity": parity},
        {"name": "y", "parity": 0},
    ]
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"generators": generators, "rules": ["xx - y"]}))
    code, out, err = run(capsys, "gsb-check", "--input", str(rules))
    assert (code, out, err) == (2, "", f"error: {rules}: generators[1].parity: must be 0 or 1\n")
    pres = tmp_path / "pres.json"
    pres.write_text(
        json.dumps({"generators": generators, "subalgebra_size": 1, "d_parity": 0})
    )
    code, out, err = run(capsys, "hnn-verify", "--input", str(pres))
    assert (code, out, err) == (2, "", "error: generators[1].parity: must be 0 or 1\n")


@pytest.mark.parametrize("d_parity", [True, 1.0])
def test_bad_d_parity_exits_2(capsys, tmp_path, d_parity):
    data = dict(ALL["ex1"], d_parity=d_parity)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hnn-verify", "--input", str(path))
    assert (code, out, err) == (2, "", "error: d_parity: must be 0 or 1\n")
