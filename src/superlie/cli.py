"""Command-line front end.

Subcommands: ls-words, bracket, expand, reduce, gsb-check, hnn-verify,
hnn-basis.  Exit status 0 when every requested check passes, 1 on a check
failure, 2 on an input error, 3 on an internal error (a ``RuntimeError``,
``RecursionError`` or ``MemoryError``, reported in one line on stderr), 141,
silently, when the reader closes stdout early, as a shell reports a writer
that SIGPIPE stopped.  Output is plain text or JSON (--format).

A command's arguments are read once, by its own parser: argv that starts
with a command's name goes straight to that command's parser, and any
other argv to the top-level one, with argparse's messages unchanged
(:func:`_parse_args`).  ``reduce`` also reads a polynomial that starts
with a minus, as ``-e``, which argparse alone takes for an unknown option.
Every JSON payload, report or word list, is written by one writer, byte
for byte as ``json.dumps(payload, indent=2)`` writes it (:func:`_write_json`).

A command runs with Python's cyclic garbage collector paused, from parsing
to writing the output, and :func:`main` then restores the state it found
(a caller's disabled collector stays disabled).  superlie's values form no
reference cycles, and ``tests/test_gc.py`` holds every builder to that, so
reference counting frees all a command drops; without the pause, each
older-generation collection rescans every live object of a result that
grows with the degree.  The only cyclic garbage a command leaves is the
standard library's (the ``json`` encoder's closures, argparse's help
formatters), taken by the first collection after it.  An in-process caller
of a large builder may pause the collector the same way.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from gettext import gettext
from typing import Optional

from .bracketing import expand, parse_monomial, standard_bracket
from .hnn import (
    _read_json,
    build_relations,
    enumerate_h_basis,
    enumerate_uh_basis,
    load_presentation,
    parse_entries,
    parse_generators,
    validate,
    verify_hnn_gsb,
    verify_structure_theorem,
)
from .poly import parse_poly
from .rewrite import (
    LARGEST_LEFTMOST,
    STRATEGIES,
    RewriteRule,
    RewriteSystem,
    is_gsb,
    reduce,
)
from .words import Alphabet, _texts, enumerate_super_ls

_encode = json.encoder.encode_basestring_ascii


def _parse_alphabet(spec: str) -> Alphabet:
    """Comma-separated "name[:odd]" tokens in increasing order."""
    names: list[str] = []
    parities: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty alphabet token")
        name, colon, tag = token.partition(":")
        if colon and tag != "odd":
            raise ValueError(f"bad alphabet token {token!r}; use name or name:odd")
        names.append(name)
        parities.append(1 if colon else 0)
    try:
        return Alphabet(names, parities)
    except ValueError as exc:
        raise ValueError(f"--alphabet: {exc}") from None


def _load_system(path: str) -> RewriteSystem:
    """A rewrite system from either a presentation or a rules file.

    Rules files look like {"generators": [{"name", "parity"}...],
    "rules": ["xy - v", ...]}; presentations are detected by their
    subalgebra_size key.
    """
    data = _read_json(path)
    if "subalgebra_size" in data:
        return build_relations(load_presentation(data))
    if "rules" in data:
        rules: list[RewriteRule] = []
        try:
            alphabet = parse_generators(data.get("generators"))
            for i, text in enumerate(parse_entries(data, "rules", kind=str)):
                try:
                    rules.append(RewriteRule(parse_poly(alphabet, text)))
                except ValueError as exc:
                    raise ValueError(f"rules[{i}]: {exc}") from None
            return RewriteSystem(alphabet, rules)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: expected a presentation or a rules file")


def _cmd_ls_words(args) -> tuple[int, dict, list[str]]:
    alphabet = _parse_alphabet(args.alphabet)
    texts = _texts(alphabet, enumerate_super_ls(alphabet, args.max_len))
    payload = {
        "command": "ls-words",
        "max_len": args.max_len,
        "count": len(texts),
        "words": texts,
    }
    return 0, payload, texts


def _cmd_bracket(args) -> tuple[int, dict, list[str]]:
    alphabet = _parse_alphabet(args.alphabet)
    word = alphabet.word(args.word)
    monomial = standard_bracket(word)
    expansion = expand(monomial)
    payload = {
        "command": "bracket",
        "word": str(word),
        "bracket": str(monomial),
        "expansion": str(expansion),
    }
    return 0, payload, [payload["bracket"], payload["expansion"]]


def _cmd_expand(args) -> tuple[int, dict, list[str]]:
    alphabet = _parse_alphabet(args.alphabet)
    monomial = parse_monomial(alphabet, args.monomial)
    expansion = expand(monomial)
    payload = {
        "command": "expand",
        "monomial": str(monomial),
        "expansion": str(expansion),
    }
    return 0, payload, [payload["expansion"]]


def _cmd_reduce(args) -> tuple[int, dict, list[str]]:
    system = _load_system(args.input)
    poly = parse_poly(system.alphabet, args.poly)
    normal_form, trace = reduce(poly, system, strategy=args.strategy)
    steps = [
        {
            "word": str(s.word),
            "rule": str(system.rules[s.rule_index].leading_word),
            "position": s.position,
        }
        for s in trace.steps
    ]
    payload = {
        "command": "reduce",
        "input": str(poly),
        "normal_form": str(normal_form),
        "steps": steps,
    }
    lines = [f"normal form: {payload['normal_form']}"]
    for s in steps:
        lines.append(f"  rewrote {s['word']} at {s['position']} by {s['rule']}")
    return 0, payload, lines


def _cmd_gsb_check(args) -> tuple[int, Optional[dict], list[str]]:
    # a report renders each normal form as it prints, so only the chosen
    # format is built: the payload for json, the lines for text
    system = _load_system(args.input)
    report = is_gsb(system)
    code = 0 if report.passed else 1
    if args.format == "json":
        return code, {"command": "gsb-check", **report.to_dict()}, []
    return code, None, [str(report)]


def _cmd_hnn_verify(args) -> tuple[int, Optional[dict], list[str]]:
    pres = load_presentation(args.input)
    validation = validate(pres.constants)
    reports = [validation]
    if validation.passed:
        reports += [verify_hnn_gsb(pres), verify_structure_theorem(pres, args.max_len)]
    if args.format != "json":
        code = 0 if all(report.passed for report in reports) else 1
        return code, None, [str(report) for report in reports]
    # each report's verdict is read once, from its payload
    parts = dict(zip(("validation", "gsb", "structure"), [r.to_dict() for r in reports]))
    passed = all(part["passed"] for part in parts.values())
    return 0 if passed else 1, {"command": "hnn-verify", "passed": passed, **parts}, []


def _cmd_hnn_basis(args) -> tuple[int, dict, list[str]]:
    pres = load_presentation(args.input)
    h_basis = enumerate_h_basis(pres, args.max_len)
    uh_basis = enumerate_uh_basis(pres, args.max_len)
    # W, read off the basis: the monomials whose word holds one stable letter
    t = pres.t_rank
    generators = [m for m in h_basis if m.word.letters.count(t) == 1]
    payload = {
        "command": "hnn-basis",
        "max_len": args.max_len,
        "algebra_basis": [str(m) for m in h_basis],
        "enveloping_basis": _texts(pres.alphabet, uh_basis),
        "free_generators": [str(m) for m in generators],
    }
    lines = []
    if args.format == "text":
        for title, key in (
            ("algebra basis:", "algebra_basis"),
            ("enveloping algebra basis:", "enveloping_basis"),
            ("free generators of the complement:", "free_generators"),
        ):
            lines.append(title)
            lines.extend(f"  {text}" for text in payload[key])
    return 0, payload, lines


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, written by :func:`_write_json`."""
    parts: list[str] = []
    _write_json(payload, "\n", parts)
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` as ``json.dumps(value, indent=2)`` writes it at the depth of ``newline``.

    Before Python 3.13, ``json.dumps`` with an indent runs the pure-Python
    encoder, one generator step per item, and the word lists of ls-words and
    hnn-basis hold thousands of items.  Here strings go through the C
    ``encode_basestring_ascii``, a list of strings is joined at once, ints
    through ``int.__repr__`` and ``True``, ``False`` and ``None`` are
    literals, as the encoder writes them.  A dict's keys are strings, as in
    every payload.  Anything else, a float say, is written by ``json.dumps``
    and indented to ``newline`` (an encoded string holds no raw newline).
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        try:
            parts += ("[", inner, ("," + inner).join(map(_encode, value)), newline, "]")
        except TypeError:  # an item that is not a string
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _write_json(item, inner, parts)
                sep = "," + inner
            parts += (newline, "]")
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts += (sep, _encode(key), ": ")
            _write_json(item, inner, parts)
            sep = "," + inner
        parts += (newline, "}")
    else:
        parts.append(json.dumps(value, indent=2).replace("\n", newline))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="superlie",
        description="Exact computations with free Lie superalgebras and "
        "stable-letter extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        return p

    p = add("ls-words", "enumerate super-Lyndon-Shirshov words")
    p.add_argument("--alphabet", required=True, help="comma-separated name[:odd]")
    p.add_argument("--max-len", type=_positive_int, required=True)

    p = add("bracket", "standard bracketing of a word, with expansion")
    p.add_argument("word")
    p.add_argument("--alphabet", required=True)

    p = add("expand", "expand a bracketed monomial")
    p.add_argument("monomial")
    p.add_argument("--alphabet", required=True)

    p = add("reduce", "normal form of a polynomial modulo a system")
    p.add_argument("poly")
    p.add_argument("--input", required=True, help="presentation or rules file")
    p.add_argument("--strategy", choices=STRATEGIES, default=LARGEST_LEFTMOST)

    p = add("gsb-check", "check closure under composition")
    p.add_argument("--input", required=True, help="presentation or rules file")

    p = add("hnn-verify", "validate, check closure, verify structure")
    p.add_argument("--input", required=True, help="presentation file")
    p.add_argument("--max-len", type=_positive_int, default=4)

    p = add("hnn-basis", "bases and free generators up to a length")
    p.add_argument("--input", required=True, help="presentation file")
    p.add_argument("--max-len", type=_positive_int, default=4)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    return _parsers()[0]


def _parse_args(argv) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, argv read once.

    The arguments after a command's name go straight to that command's
    parser, and leftovers raise the top-level parser's own ``unrecognized
    arguments`` error, as the top-level parser does after handing them to
    the command.  Any other argv (none, ``-h``, an unknown command, an
    option first) goes to the top-level parser.  One difference: for
    ``reduce``, a polynomial that starts with a minus, as ``-e`` or
    ``-2*fe``, which argparse reads as an unknown option, is moved after a
    ``--``, so that it reaches the positional.  Such a token starts with a
    single ``-``, is not ``-h`` and does not follow a ``--name`` option
    written without ``=`` (it would stand where that option's value goes);
    argv that already holds a ``--`` is left as it is.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    name = argv[0] if argv else None
    if name not in commands:
        return parser.parse_args(argv)
    rest = argv[1:]
    if name == "reduce" and "--" not in rest:
        for i, token in enumerate(rest):
            before = rest[i - 1] if i else ""
            if (
                token.startswith("-") and not token.startswith("--") and token != "-h"
                and not (before.startswith("--") and "=" not in before)
            ):
                rest = [*rest[:i], *rest[i + 1 :], "--", token]
                break
    args, extras = commands[name].parse_known_args(rest)
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = name
    return args


def main(argv=None) -> int:
    """Run one command and return its exit status, the collector paused throughout."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = _parse_args(argv)
    # looked up on each call, not bound into the parser, which is built once
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code, payload, lines = handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # RecursionError is a RuntimeError
        detail = " ".join(str(exc).split())
        kind = type(exc).__name__
        print(f"internal error: {kind}: {detail}" if detail else f"internal error: {kind}",
              file=sys.stderr)
        return 3
    try:
        if args.format == "json":
            print(_json_text(payload))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit stays silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
