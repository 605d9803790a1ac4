"""Command-line behaviour: outputs, exit codes, determinism."""

import contextlib
import copy
import doctest
import functools
import gc
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

from superlie import Alphabet, Poly, Word, cli, parse_monomial, standard_bracket
from superlie.cli import main
from superlie.hnn import load_presentation, validate
from superlie.rewrite import GsbReport
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


def test_readme_names_no_private_identifier():
    # the README says what a caller can rely on: a private name, and the
    # mechanics behind it, are described in its docstring alone
    private = re.findall(r"(?<!\w)_+[A-Za-z]\w*", (ROOT / "README.md").read_text())
    assert not private, private


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


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"subalgebra_size": ' + "9" * 5_000 + "}"],
    ids=["nested-too-deep", "integer-too-long"],
)
@pytest.mark.parametrize(
    "argv", [["hnn-verify"], ["hnn-basis"], ["gsb-check"], ["reduce", "a"]], ids=lambda a: a[0]
)
def test_json_the_decoder_refuses_exits_2_naming_the_path(capsys, tmp_path, text, argv):
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1


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


def _parsed(parse, argv):
    """(exit code, stdout, stderr, namespace) of one argv parse; an exit leaves no namespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, out.getvalue(), err.getvalue(), vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None


_SL2 = str(FIXTURES / "sl2.json")
_EX1 = str(FIXTURES / "ex1.json")
# for each command: valid argv in the --x v and --x=v forms, abbreviated
# options, help, an unknown option, a missing option or positional, a bad
# choice, a bad int and a stray positional; then argv the top-level parser
# reads: none, help, options before the command, an unknown command, and --
ROUTER_TABLE = [
    *(
        ["ls-words", *argv]
        for argv in (
            ["--alphabet", "a,b:odd", "--max-len", "3"],
            ["--alphabet=a,b:odd", "--max-len=3", "--format=json"],
            ["--alph", "a,b", "--max", "3", "--form", "json"],
            ["-h"], ["--help"], ["--alphabet", "a", "--max-len", "3", "-h"],
            ["--alphabet", "a", "--max-len", "3", "--bogus"],
            ["--alphabet", "a", "--max-len", "3", "--bogus=1", "extra"],
            ["--alphabet", "a"], ["--max-len", "3"], [],
            ["--alphabet", "a", "--max-len", "x"], ["--alphabet", "a", "--max-len", "0"],
            ["--alphabet", "a", "--max-len", "3", "--format", "xml"],
            ["--alphabet", "a", "--max-len"], ["--alphabet", "a", "--max-len", "3", "--"],
            ["--alphabet", "a", "--", "--max-len", "3"], ["--max", "3", "--alphabet=a", "-x"],
        )
    ),
    *(
        [command, *argv]
        for command, text in (("bracket", "ab"), ("expand", "[a,b]"))
        for argv in (
            [text, "--alphabet", "a,b"], ["--alphabet=a,b", text, "--format=json"],
            [text, "--alph", "a,b", "--f", "json"], ["-h"], [text, "--help"],
            [text, "--alphabet", "a,b", "--bogus"], ["--alphabet", "a,b"], [text],
            [text, "--alphabet", "a,b", "--format", "xml"], [text, text, "--alphabet", "a,b"],
            ["--alphabet", "a,b", "--", text], ["--alphabet", "a,b", "--", "-e"],
        )
    ),
    *(
        ["reduce", *argv]
        for argv in (
            ["e", "--input", _SL2], ["--input=" + _SL2, "fe", "--strategy=smallest-rightmost"],
            ["--inp", _SL2, "--strat", "smallest-rightmost", "fe", "--form", "json"],
            ["-h"], ["-h", "--input", _SL2], ["e", "--input", _SL2, "--help"],
            ["e", "--input", _SL2, "--bogus"], ["--input", _SL2, "e", "--bogus", "x"],
            ["--input", _SL2], ["e"], ["e", "--input", _SL2, "--strategy", "fastest"],
            ["e", "--input", _SL2, "--format", "xml"], ["e", "f", "--input", _SL2],
            ["--input", _SL2, "--", "-e"], ["--", "-e", "--input", _SL2],
            ["--input", _SL2, "--", "e", "-f"], ["--input", "-e", "f"],
            ["--strategy", "-e", "--input", _SL2], ["--bogus", "-e", "--input", _SL2],
            ["-", "--input", _SL2], ["-2 + e", "--input", _SL2], ["-2", "--input", _SL2],
            ["--input", _SL2, "--", "--", "e"],
        )
    ),
    *(
        [command, *argv]
        for command in ("gsb-check", "hnn-verify", "hnn-basis")
        for argv in (
            ["--input", _EX1], ["--input=" + _EX1, "--format=json"],
            ["--inp", _EX1, "--fo", "json"],
            ["-h"], ["--input", _EX1, "--help"], ["--input", _EX1, "--bogus"],
            ["--input", _EX1, "-x"], ["--input", _EX1, "extra"], [], ["--format", "json"],
            ["--input", _EX1, "--format", "xml"], ["--input"], ["--input", _EX1, "--"],
            ["--", "--input", _EX1],
        )
    ),
    *(
        [command, "--input", _EX1, *argv]
        for command in ("hnn-verify", "hnn-basis")
        for argv in (["--max-len", "3"], ["--max-len=3"], ["--max", "3"], ["--max-len", "x"],
                     ["--max-len", "-1"], ["--max-len", "0"], ["--max-len"])
    ),
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["no-such-command"], ["hnn-v", "--input", _EX1],
    ["HNN-VERIFY"], ["--format", "json", "hnn-verify", "--input", _EX1],
    ["--input", _EX1, "gsb-check"], ["-h", "gsb-check"], ["--", "gsb-check", "--input", _EX1],
    ["--"], ["-"], [""],
]


@pytest.mark.parametrize("argv", ROUTER_TABLE, ids=" ".join)
def test_router_reads_argv_as_the_top_level_parser_does(argv):
    # the top-level parser is the oracle: same exit code, stdout, stderr and
    # namespace, help and usage text included
    assert _parsed(cli._parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize("text, form", [("-e", "-e"), ("-2*fe", "-2*ef + 2*h"), ("-he", "-he")])
@pytest.mark.parametrize("first", [True, False], ids=["poly-first", "poly-last"])
def test_reduce_reads_a_polynomial_that_starts_with_a_minus(capsys, text, form, first):
    # the one argv the router reads differently: argparse alone takes the
    # polynomial for an unknown option and misses the positional
    argv = ["reduce", text, "--input", _SL2] if first else ["reduce", "--input", _SL2, text]
    code, out, err, _ = _parsed(cli.build_parser().parse_args, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] in (
        "superlie reduce: error: the following arguments are required: poly",
        "superlie reduce: error: argument -h/--help: ignored explicit argument 'e'",
    )
    assert _parsed(cli._parse_args, argv)[3]["poly"] == text
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"normal form: {form}"
    assert run(capsys, "reduce", "--input", _SL2, "--", text) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [["reduce", "-e", "--input", _SL2, "--bogus"], ["reduce", "--bogus", "--input", _SL2, "-e"],
     ["hnn-verify", "--input", _EX1, "--bogus"]],
)
def test_unknown_option_reads_unrecognized_arguments(argv):
    code, out, err, _ = _parsed(cli._parse_args, argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "usage: superlie [-h]"
    assert err.splitlines()[-1] == "superlie: error: unrecognized arguments: --bogus"


class _ClosedPipe:
    """A stdout whose reader is gone: it takes writes, and a flush raises."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", [0, 1, 2, 3, 141, "usage"])
def test_main_pauses_the_collector_and_restores_it_on_every_exit(
    monkeypatch, tmp_path, case, enabled
):
    argv = {
        0: ["hnn-verify", "--input", str(FIXTURES / "ex1.json")],
        1: ["gsb-check", "--input", str(FIXTURES / "broken_rules.json")],
        2: ["hnn-verify", "--input", str(tmp_path / "missing.json")],
        3: ["hnn-verify", "--input", str(FIXTURES / "ex1.json")],
        141: ["ls-words", "--alphabet", "a,b:odd", "--max-len", "3"],
        "usage": ["hnn-verify", "--max-len", "0"],
    }[case]
    seen = []  # the collector's state inside the handler
    handler_name = "_cmd_" + argv[0].replace("-", "_")
    handler = getattr(cli, handler_name)

    def watched(args):
        seen.append(gc.isenabled())
        if case == 3:
            raise RuntimeError("self-check failed")
        return handler(args)

    monkeypatch.setattr(cli, handler_name, watched)
    if case == 141:
        fd = os.open(tmp_path / "out.txt", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        else:
            code = main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
        if case == 141:
            os.close(fd)
    assert code == (2 if case == "usage" else case)
    assert after is enabled
    assert seen == ([] if case == "usage" else [False])


# hnn-verify and hnn-basis on ex1, ex2 and ex3 at 5, recorded from the CLI
# before the extension basis was built from W
FIXTURE_REPORT_CELLS = [
    (command, name) for command in ("hnn-verify", "hnn-basis") for name in ("ex1", "ex2", "ex3")
]
# abc and lhkz recorded from the CLI when words were still found by scanning
# every word; x1x2y (dotted names) before str(word) had a byte table
LS_WORDS_CELLS = [
    ("abc", "a,b:odd,c", "6"), ("lhkz", "l,h,k,z:odd", "5"), ("x1x2y", "x1,x2:odd,y", "5"),
]


def _fixture_report(command, name):
    """The golden stem and argv, without a format, of a FIXTURE_REPORT_CELLS row."""
    argv = [command, "--input", str(FIXTURES / f"{name}.json"), "--max-len", "5"]
    return f"{command}-{name}", argv


def _ls_words(name, alphabet, max_len):
    """The golden stem and argv, without a format, of an LS_WORDS_CELLS row."""
    return f"ls-words-{name}", ["ls-words", "--alphabet", alphabet, "--max-len", max_len]


def _format_cell(stem, argv, fmt):
    """The golden cell of ``argv`` in ``fmt``, "txt" or "json": it prints ``stem.fmt``, exit 0."""
    return f"{stem}.{fmt}", [*argv, "--format", "json" if fmt == "json" else "text"], 0


def _assert_golden(capsys, name, argv, code):
    assert run(capsys, *argv) == (code, (GOLDEN / name).read_text(), "")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("command, name", FIXTURE_REPORT_CELLS)
def test_output_matches_golden_file(capsys, command, name, fmt):
    _assert_golden(capsys, *_format_cell(*_fixture_report(command, name), fmt))


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name, alphabet, max_len", LS_WORDS_CELLS)
def test_ls_words_matches_golden_file(capsys, name, alphabet, max_len, fmt):
    _assert_golden(capsys, *_format_cell(*_ls_words(name, alphabet, max_len), fmt))


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
REPEATED_TERMS = "2*fe - 1/2*fe + 1/3*tef - 1/3*tef + 3/4*feh - 3/4*feh + ef"


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
    # words that repeat in the input, two of them cancelling: parse_poly adds
    # each repeat to its word's first term; recorded while the constructor
    # still added every term to 0 and took the lcm of all denominators
    ("reduce-sl2-repeated-terms.json", ["reduce", REPEATED_TERMS, "--input",
                                        str(FIXTURES / "sl2.json"), "--format", "json"], 0),
    # ex2's rule aa - 1/2*x makes check (iv)'s reduction kernel scale in the
    # middle of the walk; recorded while the evaluator still divided the
    # reduced products back into Fractions and rank scaled each pivot to 1
    ("hnn-verify-ex2-14.json", ["hnn-verify", "--input", str(FIXTURES / "ex2.json"),
                                "--max-len", "14", "--format", "json"], 0),
    # the rescaled osp's rule denominators make 37 of check (iv)'s 112 kernel
    # calls scale; recorded while the evaluator still reduced the set-aside
    # products alone and scaled and merged the node's other products itself
    ("hnn-verify-osp-rescaled-8.json", ["hnn-verify", "--input", RESCALED_OSP,
                                        "--max-len", "8", "--format", "json"], 0),
    # the highest degree of the benchmark's verify cells on sl2 and ex3,
    # recorded while validate still walked the keys of every zero residual
    # and the closure check still split each side of a bracket by parity
    ("hnn-verify-sl2-7.json", ["hnn-verify", "--input", str(FIXTURES / "sl2.json"),
                               "--max-len", "7", "--format", "json"], 0),
    ("hnn-verify-ex3-7.json", ["hnn-verify", "--input", str(FIXTURES / "ex3.json"),
                               "--max-len", "7", "--format", "json"], 0),
    # 227 steps over 37 distinct words, in cascades up to 10 steps deep; recorded
    # while smallest-rightmost still kept its reducible words in a heap
    *_report_cells("reduce-osp-smallest-rightmost",
                   ["reduce", "vuhhehv", "--input", str(FIXTURES / "osp.json"),
                    "--strategy", "smallest-rightmost"], 0),
    # 15 steps, four pending entries merged into earlier ones and two words
    # summing to 0; recorded while largest-leftmost still kept every word in
    # the dict and skipped a cancelled one when the heap gave it back
    *_report_cells("reduce-osp-largest-leftmost",
                   ["reduce", "vuhhehv", "--input", str(FIXTURES / "osp.json")], 0),
]


@pytest.mark.parametrize(
    "name, argv, code",
    # ids as pytest made them before the cells carried an exit code
    [pytest.param(*cell, id=f"{cell[0]}-argv{i}") for i, cell in enumerate(LISTING_CELLS)],
)
def test_listing_matches_golden_file(capsys, tmp_path, name, argv, code):
    _assert_golden(capsys, name, _resolved(argv, tmp_path), code)


def _resolved(argv, directory):
    """``argv`` with each WRITTEN_INPUTS placeholder the path its writer writes in ``directory``."""
    return [str(WRITTEN_INPUTS[arg](directory)) if arg in WRITTEN_INPUTS else arg for arg in argv]


# quotes, backslashes, control and non-ASCII characters, a lone surrogate:
# every kind of character the encoder escapes
_JSON_TEXT = st.text(
    st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\xe9€\ud800\U0001f600') | st.characters(), max_size=6
)
_JSON_INTS = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | st.floats() | _JSON_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=10,
)
_WORD_LISTS = st.lists(_JSON_TEXT, max_size=8)
# a list of strings with an int or a dict after its first item
_MIXED_LISTS = st.builds(
    lambda first, before, odd, after: [first, *before, odd, *after],
    _JSON_TEXT, _WORD_LISTS, _JSON_INTS | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=3),
    _WORD_LISTS,
)
_WORD_ITEMS = _WORD_LISTS | _WORD_LISTS.map(tuple) | _MIXED_LISTS | _MIXED_LISTS.map(tuple)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(_JSON_TEXT, _WORD_ITEMS | _JSON_VALUES, max_size=6))
def test_json_writer_writes_what_json_dumps_writes(payload):
    # every nesting of dicts, lists and tuples, empty ones included, holding
    # every kind of scalar; floats go through json.dumps
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


def _every_subcommand(name):
    """The argv of each subcommand on the fixture ``name``, its alphabet or its file."""
    path = str(FIXTURES / f"{name}.json")
    alphabet = load_presentation(path).alphabet
    spec = ",".join(n + (":odd" if p else "") for n, p in zip(alphabet.names, alphabet.parities))
    word = Word(alphabet, tuple(reversed(range(len(alphabet)))))
    return [
        ["ls-words", "--alphabet", spec, "--max-len", "5"],
        ["bracket", str(word), "--alphabet", spec],
        ["expand", str(standard_bracket(word)), "--alphabet", spec],
        ["reduce", f"2/3*{word} - {alphabet.names[0]}", "--input", path],
        ["gsb-check", "--input", path],
        ["hnn-verify", "--input", path, "--max-len", "5"],
        ["hnn-basis", "--input", path, "--max-len", "5"],
    ]


@pytest.mark.parametrize("name", sorted(ALL))
def test_json_writer_writes_every_payload_as_json_dumps_does(name):
    for argv in _every_subcommand(name):
        args = cli.build_parser().parse_args([*argv, "--format", "json"])
        _, payload, _ = getattr(cli, "_cmd_" + args.command.replace("-", "_"))(args)
        assert cli._json_text(payload) == json.dumps(payload, indent=2), argv


def test_no_subcommand_hashes_a_word_or_a_polynomial(monkeypatch, capsys):
    # Word and Poly compute their hash on each call and keep none: no
    # subcommand asks for one, so a cache would only cost a slot
    calls = {Word: 0, Poly: 0}
    for cls in calls:
        def counting(self, cls=cls, original=cls.__hash__):
            calls[cls] += 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    for name in sorted(ALL):
        for argv in _every_subcommand(name):
            for fmt in ("text", "json"):
                assert main([*argv, "--format", fmt]) == 0, argv
    capsys.readouterr()
    assert calls == {Word: 0, Poly: 0}


def test_no_subcommand_reads_a_polynomials_terms_twice(monkeypatch, capsys):
    # a Poly sorts and builds its terms on each read and keeps none: the
    # leading term is found without them, and each command renders a
    # polynomial once, so a cache would only cost a slot
    reads = {}  # id -> [poly, count]; the poly is kept so no id is reused
    original = Poly.terms

    def counting(self):
        reads.setdefault(id(self), [self, 0])[1] += 1
        return original(self)

    monkeypatch.setattr(Poly, "terms", counting)
    cells = [
        ([*argv, "--format", fmt], 0)
        for name in sorted(ALL)
        for argv in _every_subcommand(name)
        for fmt in ("text", "json")
    ]
    broken = str(FIXTURES / "broken_rules.json")
    cells += [(["gsb-check", "--input", broken, "--format", fmt], 1) for fmt in ("json", "text")]
    for argv, code in cells:
        reads.clear()
        assert main(argv) == code, argv
        assert max((count for _, count in reads.values()), default=0) <= 1, argv
    capsys.readouterr()


def test_hnn_verify_reads_the_closure_verdict_once(monkeypatch, capsys):
    # GsbReport.passed walks every check on each read: in json the exit code,
    # the gsb payload's verdict and the closure payload's all come from one
    # read; in text the exit code reads it, and the report's header takes its
    # own from the pass that renders its lines, saying what the payload says
    reads = []
    verdict = GsbReport.passed.fget
    monkeypatch.setattr(GsbReport, "passed", property(lambda r: reads.append(r) or verdict(r)))
    for name in sorted(ALL):
        reads.clear()
        argv = ["hnn-verify", "--input", str(FIXTURES / f"{name}.json"), "--max-len", "5"]
        assert main([*argv, "--format", "json"]) == 0
        assert len(reads) == 1, name
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is payload["gsb"]["passed"] is payload["gsb"]["associative"]["passed"]
        reads.clear()
        assert main(argv) == 0
        assert len(reads) == 1, name
        count = len(payload["gsb"]["associative"]["compositions"])
        assert f"composition closure: PASS ({count} compositions)" in capsys.readouterr().out
    # text output as recorded, a passing and a failing closure report
    for argv, code, golden in [
        (["hnn-verify", "--input", str(FIXTURES / "ab5.json"), "--max-len", "5"], 0,
         "hnn-verify-ab5-5.txt"),
        (["gsb-check", "--input", str(FIXTURES / "broken_rules.json")], 1,
         "gsb-check-broken-rules.txt"),
    ]:
        reads.clear()
        assert run(capsys, *argv) == (code, (GOLDEN / golden).read_text(), "")
        assert len(reads) == 1, golden


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
    _assert_golden(capsys, *_format_cell(name, EXPANSION_CELLS[name], fmt))


# golden cells too slow for tier-1: only the installed-package CI step runs
# them, through the superlie command
SLOW_CELLS = [
    # the one cell whose check (iv) walk meets more words than a step table
    # keeps (65 536), so the table empties itself mid-walk; about 7 s and 380 MiB
    ("hnn-verify-ab5-10.json", ["hnn-verify", "--input", str(FIXTURES / "ab5.json"),
                                "--max-len", "10", "--format", "json"], 0),
    # check (iv) at depth, where it takes most of the run: about 2.5 s for the two
    ("hnn-verify-ex1-14.json", ["hnn-verify", "--input", str(FIXTURES / "ex1.json"),
                                "--max-len", "14", "--format", "json"], 0),
    ("hnn-verify-osp-11.json", ["hnn-verify", "--input", str(FIXTURES / "osp.json"),
                                "--max-len", "11", "--format", "json"], 0),
]


def golden_cells(directory):
    """Every golden cell of the five tables as (golden file, argv, exit code).

    The argv is the one the cell's test runs, written inputs being written
    in ``directory``; the CLI must print the file byte for byte, exit with
    the code and write nothing to stderr.
    """
    stems = [
        *(_fixture_report(*row) for row in FIXTURE_REPORT_CELLS),
        *(_ls_words(*row) for row in LS_WORDS_CELLS),
        *EXPANSION_CELLS.items(),
    ]
    cells = [
        *(_format_cell(stem, argv, fmt) for stem, argv in stems for fmt in ("txt", "json")),
        *LISTING_CELLS,
        *SLOW_CELLS,
    ]
    return [(GOLDEN / name, _resolved(argv, directory), code) for name, argv, code in cells]


def test_every_golden_file_has_one_cell(tmp_path):
    # each file in tests/golden is named by exactly one cell, and no cell
    # names a file that is not there
    names = [path.name for path, _, _ in golden_cells(tmp_path)]
    assert sorted(names) == sorted(path.name for path in GOLDEN.iterdir())


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
    assert (code, out, err) == (2, "", "error: not a super-Lyndon-Shirshov word: '1'\n")


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


@pytest.mark.parametrize("value", ["abc", "2.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hnn-verify", "--input", str(FIXTURES / "ex1.json")],
        ["hnn-basis", "--input", str(FIXTURES / "ex1.json")],
        ["ls-words", "--alphabet", "a,b"],
    ],
    ids=["hnn-verify", "hnn-basis", "ls-words"],
)
def test_max_len_not_an_integer_exits_2(capsys, argv, value):
    # the error names what was expected, not the parser's converter
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-len", value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        f"superlie {argv[0]}: error: argument --max-len: expected an integer, got {value!r}"
    ]


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
