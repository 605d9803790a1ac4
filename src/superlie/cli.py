"""Command-line front end.

Subcommands: ls-words, bracket, expand, reduce, gsb-check, hnn-verify,
hnn-basis.  Exit status 0 when every requested check passes, 1 on a check
failure, 2 on an input error, 3 on an internal error (a ``RuntimeError``,
``RecursionError`` or ``MemoryError``, reported in one line on stderr).
Output is plain text or JSON (--format).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bracketing import expand, parse_monomial, standard_bracket
from .hnn import (
    _read_json,
    build_relations,
    enumerate_h_basis,
    enumerate_uh_basis,
    free_generators_W,
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


def _parse_alphabet(spec: str) -> Alphabet:
    """Comma-separated "name[:odd]" tokens in increasing order."""
    names: list[str] = []
    odd: set[str] = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty alphabet token")
        if ":" in token:
            name, tag = token.split(":", 1)
            if tag != "odd":
                raise ValueError(f"bad alphabet token {token!r}; use name or name:odd")
            odd.add(name)
        else:
            name = token
        names.append(name)
    try:
        return Alphabet.from_names(names, odd)
    except ValueError as exc:
        raise ValueError(f"--alphabet: {exc}") from None


def _word_text(w) -> str:
    """A word as the polynomial grammar writes it: the empty word is "1"."""
    return str(w) or "1"


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
            for where, text in parse_entries(data, "rules", kind=str):
                try:
                    rules.append(RewriteRule(parse_poly(alphabet, text)))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
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
    return 0, payload, [str(monomial), str(expansion)]


def _cmd_expand(args) -> tuple[int, dict, list[str]]:
    alphabet = _parse_alphabet(args.alphabet)
    monomial = parse_monomial(alphabet, args.monomial)
    expansion = expand(monomial)
    payload = {
        "command": "expand",
        "monomial": str(monomial),
        "expansion": str(expansion),
    }
    return 0, payload, [str(expansion)]


def _cmd_reduce(args) -> tuple[int, dict, list[str]]:
    system = _load_system(args.input)
    poly = parse_poly(system.alphabet, args.poly)
    normal_form, trace = reduce(poly, system, strategy=args.strategy)
    steps = [
        {
            "word": _word_text(s.word),
            "rule": _word_text(system.rules[s.rule_index].leading_word),
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
    lines = [f"normal form: {normal_form}"]
    for s in steps:
        lines.append(f"  rewrote {s['word']} at {s['position']} by {s['rule']}")
    return 0, payload, lines


def _cmd_gsb_check(args) -> tuple[int, dict, list[str]]:
    system = _load_system(args.input)
    report = is_gsb(system)
    payload = {"command": "gsb-check", **report.to_dict()}
    return (0 if report.passed else 1), payload, [str(report)]


def _cmd_hnn_verify(args) -> tuple[int, dict, list[str]]:
    pres = load_presentation(args.input)
    validation = validate(pres.constants)
    if not validation.passed:
        payload = {
            "command": "hnn-verify",
            "passed": False,
            "validation": validation.to_dict(),
        }
        return 1, payload, [str(validation)]
    gsb = verify_hnn_gsb(pres)
    structure = verify_structure_theorem(pres, args.max_len)
    passed = gsb.passed and structure.passed
    payload = {
        "command": "hnn-verify",
        "passed": passed,
        "validation": validation.to_dict(),
        "gsb": gsb.to_dict(),
        "structure": structure.to_dict(),
    }
    lines = [str(validation), str(gsb), str(structure)] if args.format == "text" else []
    return (0 if passed else 1), payload, lines


def _cmd_hnn_basis(args) -> tuple[int, dict, list[str]]:
    pres = load_presentation(args.input)
    h_basis = enumerate_h_basis(pres, args.max_len)
    uh_basis = enumerate_uh_basis(pres, args.max_len)
    generators = free_generators_W(pres, args.max_len)
    payload = {
        "command": "hnn-basis",
        "max_len": args.max_len,
        "algebra_basis": [str(m) for m in h_basis],
        "enveloping_basis": [text or "1" for text in _texts(pres.alphabet, uh_basis)],
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
