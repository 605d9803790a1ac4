"""REPRODUCTION.md: every command it names exits as its row says."""

import re
import shlex
from pathlib import Path

from superlie.cli import main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = (ROOT / "REPRODUCTION.md").read_text()


def test_ledger_has_one_row_per_claim_of_the_abstract():
    assert re.findall(r"^\| (\d)\. ", LEDGER, re.M) == ["1", "2", "3", "4"]


def test_every_ledger_command_exits_as_stated(monkeypatch, capsys):
    # the superlie lines of the sh blocks, each at degree 6 or lower
    blocks = re.findall(r"```sh\n(.*?)```", LEDGER, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.strip()]
    assert len(lines) >= 9
    monkeypatch.chdir(ROOT)
    for line in lines:
        command = re.fullmatch(r"superlie (.+?)  # exit (\d)", line)
        assert command, line
        argv = shlex.split(command[1])
        if "--max-len" in argv:
            assert int(argv[argv.index("--max-len") + 1]) <= 6, line
        assert main(argv) == int(command[2]), line
    capsys.readouterr()
