"""REPRODUCTION.md: every command it names exits as its row says."""

import json
import re
import shlex
from collections import Counter
from pathlib import Path

from superlie.cli import main
from test_hnn import _dimension_oracle

ROOT = Path(__file__).resolve().parent.parent
LEDGER = (ROOT / "REPRODUCTION.md").read_text()


def _ledger_commands():
    """(argv, exit code) of each superlie line of the ledger's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", LEDGER, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.strip()]
    commands = []
    for line in lines:
        command = re.fullmatch(r"superlie (.+?)  # exit (\d)", line)
        assert command, line
        commands.append((shlex.split(command[1]), int(command[2])))
    return commands


def test_ledger_has_one_row_per_claim_of_the_abstract():
    assert re.findall(r"^\| (\d)\. ", LEDGER, re.M) == ["1", "2", "3", "4"]


def test_every_ledger_command_exits_as_stated(monkeypatch, capsys):
    # the superlie lines of the sh blocks, each at degree 6 or lower
    commands = _ledger_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(ROOT)
    for argv, code in commands:
        if "--max-len" in argv:
            assert int(argv[argv.index("--max-len") + 1]) <= 6, argv
        assert main(argv) == code, argv
    capsys.readouterr()


def _per_degree(degrees, top, low=1):
    """How many of ``degrees`` are each degree from ``low`` to ``top``."""
    counts = Counter(degrees)
    return [counts[n] for n in range(low, top + 1)]


def _letters(text):
    """The leaves of a printed monomial, "[[t,x],y]", or of a name."""
    return re.findall(r"[^\[\],]+", text)


def test_ledger_basis_counts_equal_the_dimension_oracle(monkeypatch, capsys):
    # the per-degree counts hnn-basis and hnn-verify print for each ledger
    # command, against the super Witt formula from the tables' parities
    monkeypatch.chdir(ROOT)
    oracle = _dimension_oracle()
    checked = Counter()
    for argv, code in _ledger_commands():
        if argv[0] not in ("hnn-basis", "hnn-verify"):
            continue
        assert main([*argv, "--format", "json"]) == code == 0, argv
        payload = json.loads(capsys.readouterr().out)
        data = json.loads(Path(argv[argv.index("--input") + 1]).read_text())
        top = int(argv[argv.index("--max-len") + 1])
        expected = oracle.extension_counts(
            [g["parity"] for g in data["generators"]], data["subalgebra_size"],
            data["d_parity"], top,
        )
        checked[argv[0]] += 1
        if argv[0] == "hnn-verify":
            assert payload["structure"]["h_basis_counts"] == expected["algebra"], argv
            continue
        algebra, generators = payload["algebra_basis"], payload["free_generators"]
        # degree 1 lists every name; words join them with '.' unless each is one character
        dotted = any(len(name) > 1 for text in algebra for name in _letters(text))
        envelope = [
            0 if text == "1" else text.count(".") + 1 if dotted else len(text)
            for text in payload["enveloping_basis"]
        ]
        counts = {
            "algebra": _per_degree([len(_letters(m)) for m in algebra], top),
            "enveloping": _per_degree(envelope, top, 0),
            "generators": _per_degree([len(_letters(m)) for m in generators], top),
        }
        assert counts == expected, argv
    assert checked["hnn-basis"] >= 3 and checked["hnn-verify"] >= 4
