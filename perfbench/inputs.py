"""Seeded inputs for the three workloads; standard library only.

Everything the program sees is written here, to files under one directory:
rescaled presentation tables, negative controls, and ``tasks.json``, the
closed-loop task list with the answer each task must give.  The answers come
from ``oracle`` and from hand-checked verdicts, never from superlie.

The seed changes the inputs but not the amount of work, so that timings of
different seeds are comparable:

* presentations get a seeded diagonal rescaling, which gives an isomorphic
  algebra: same verdict, same counts, same rewriting steps;
* ``ls-words`` alphabets get seeded names, order and odd positions, with
  fixed numbers of letters and of odd letters;
* ``reduce`` tasks take their word shapes from one fixed pool (``POOL_SEED``)
  and their coefficients and system rescaling from the seed.  One reduction
  costs from 0.1 ms to seconds depending on the words alone, so drawing the
  words from the seed would make wall time a lottery.

A run repeats one list of task slots in rounds.  Each round fills every
slot with fresh seeded inputs of the same shape, in a seeded order.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import oracle

WORKLOADS = ("verify", "enumerate", "rewrite")
STRATEGIES = ("largest-leftmost", "smallest-rightmost")
POOL_SEED = "superlie-rewrite-pool-1"
STABLE_LETTER = "t"

# Seconds one round of each workload takes at the commit that defined the
# benchmark.  A run stops after the round during which --seconds ran out,
# so inputs are written for twice the rounds that fit at that speed.
NOMINAL_ROUND_S = {"verify": 7.0, "enumerate": 5.0, "rewrite": 2.5}
MIN_ROUNDS = 2
REWRITE_SLOTS = 150

VERIFY_CELLS = [(name, n) for name in ("ex1", "ex2", "ex3", "ex4", "sl2") for n in (5, 6, 7)]
VERIFY_CELLS += [(name, n) for name in ("osp", "ab5") for n in (5, 6)]
BASIS_CELLS = [
    (name, n) for name in ("ex1", "ex2", "ex3", "ex4", "sl2", "osp", "ab5") for n in (4, 5, 6)
]
# (letters, odd letters, length): the seed picks names, order and which
# letters are odd, and the counts fix how many words come out.
LS_CELLS = [(3, 1, 7), (3, 2, 8), (4, 2, 7), (4, 1, 8)]
REWRITE_SYSTEMS = ("sl2", "osp", "ab5")
LETTER_POOL = "abcdefghijklmnopqrsuvwxyz"
SCALES = [Fraction(p, q) for p, q in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (3, 2))]


def _gen(name, parity):
    return {"name": name, "parity": parity}


def _val(*pairs):
    return [{"basis": b, "coeff": c} for b, c in pairs]


def _br(left, right, *pairs):
    return {"left": left, "right": right, "value": _val(*pairs)}


def _d(arg, *pairs):
    return {"arg": arg, "value": _val(*pairs)}


# sl2 with d = ad f restricted to the Borel subalgebra {h, e}.
SL2 = {
    "generators": [_gen("h", 0), _gen("e", 0), _gen("f", 0)],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [_br("h", "e", ("e", "2")), _br("h", "f", ("f", "-2")), _br("e", "f", ("h", "1"))],
    "derivation": [_d("h", ("f", "2")), _d("e", ("h", "-1"))],
}

# osp(1|2) with the odd derivation d = ad v on {h, e, u}; its closure check
# exercises all five composition families.
OSP = {
    "generators": [_gen("h", 0), _gen("e", 0), _gen("u", 1), _gen("f", 0), _gen("v", 1)],
    "subalgebra_size": 3,
    "d_parity": 1,
    "brackets": [
        _br("h", "e", ("e", "2")),
        _br("h", "f", ("f", "-2")),
        _br("e", "f", ("h", "1")),
        _br("h", "u", ("u", "1")),
        _br("h", "v", ("v", "-1")),
        _br("e", "v", ("u", "-1")),
        _br("f", "u", ("v", "-1")),
        _br("u", "u", ("e", "2")),
        _br("v", "v", ("f", "-2")),
        _br("u", "v", ("h", "1")),
    ],
    "derivation": [_d("h", ("v", "1")), _d("e", ("u", "1")), _d("u", ("h", "1"))],
}

# Five even letters, abelian, subalgebra {a, b}, d(a) = x.
AB5 = {
    "generators": [_gen(n, 0) for n in "abxyz"],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [],
    "derivation": [_d("a", ("x", "1"))],
}

# The non-abelian subalgebra case of the test suite.
EX4 = {
    "generators": [_gen("a", 0), _gen("b", 0), _gen("x", 0)],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [_br("a", "b", ("a", "1"))],
    "derivation": [_d("a", ("a", "1")), _d("b", ("x", "1"))],
}


def load_tables(root: Path) -> dict:
    """ex1-ex3 from the repository's fixtures, the rest from the copies above."""
    tables = {}
    for name in ("ex1", "ex2", "ex3"):
        tables[name] = json.loads((root / "fixtures" / f"{name}.json").read_text())
    tables.update({"ex4": EX4, "sl2": SL2, "osp": OSP, "ab5": AB5})
    return tables


def negative_controls(tables: dict) -> list:
    """(name, table, check that must be among the violations), each invalid by hand."""
    jacobi = copy.deepcopy(tables["ex2"])
    jacobi["brackets"].append(_br("a", "x", ("a", "1")))
    law = copy.deepcopy(tables["ex4"])
    law["derivation"] = [_d("a", ("a", "1")), _d("b", ("b", "1"))]
    anti = copy.deepcopy(tables["ex1"])
    anti["brackets"] = [_br("a", "a", ("x", "1"))]
    return [
        ("bad-jacobi", jacobi, "jacobi"),
        ("bad-derivation", law, "derivation-law"),
        ("bad-anticomm", anti, "anticommutativity"),
    ]


def rescale(table: dict, rng: Random) -> dict:
    """Replace e_i by l_i e_i and t by m t; the result is isomorphic to ``table``."""
    def scale():
        return rng.choice(SCALES) * rng.choice((1, -1))

    lam = {g["name"]: scale() for g in table["generators"]}
    mu = scale()
    out = copy.deepcopy(table)
    for entry in out["brackets"]:
        factor = lam[entry["left"]] * lam[entry["right"]]
        for term in entry["value"]:
            term["coeff"] = str(Fraction(term["coeff"]) * factor / lam[term["basis"]])
    for entry in out["derivation"]:
        factor = mu * lam[entry["arg"]]
        for term in entry["value"]:
            term["coeff"] = str(Fraction(term["coeff"]) * factor / lam[term["basis"]])
    return out


def letters_of(table: dict) -> list:
    """(name, parity) of the extended alphabet: the basis, then the stable letter."""
    gens = [(g["name"], g["parity"]) for g in table["generators"]]
    return gens + [(STABLE_LETTER, table["d_parity"])]


def forbidden_pairs(table: dict) -> list:
    """Leading words of the defining relations: xy with x > y, xx with x odd, ta with a in A."""
    letters = letters_of(table)
    pairs = []
    for i, (x, px) in enumerate(letters[:-1]):
        pairs.extend(x + y for y, _ in letters[:i])
        if px:
            pairs.append(x + x)
    pairs.extend(STABLE_LETTER + a for a, _ in letters[: table["subalgebra_size"]])
    return pairs


def _expected_counts(table: dict, n: int) -> dict:
    parities = [g["parity"] for g in table["generators"]]
    return oracle.extension_counts(parities, table["subalgebra_size"], table["d_parity"], n)


def _write(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, math.ceil(2 * seconds / NOMINAL_ROUND_S[workload]))


def _verify_round(tables, rng, r, out_dir):
    tasks = []
    for name, n in VERIFY_CELLS:
        table = rescale(tables[name], rng)
        _write(out_dir / f"r{r}-{name}-n{n}.json", table)
        counts = _expected_counts(table, n)["algebra"]
        tasks.append({"slot": f"{name}-n{n}", "kind": "hnn-verify", "input": f"r{r}-{name}-n{n}.json",
                      "max_len": n, "expect": {"passed": True, "counts": counts}})
    for name, table, check in negative_controls(tables):
        _write(out_dir / f"r{r}-{name}.json", rescale(table, rng))
        tasks.append({"slot": name, "kind": "hnn-verify", "input": f"r{r}-{name}.json",
                      "max_len": 5, "expect": {"passed": False, "violation": check}})
    return tasks


def _enumerate_round(tables, rng, r, out_dir):
    tasks = []
    written = set()
    for name, n in BASIS_CELLS:
        if name not in written:
            _write(out_dir / f"r{r}-{name}.json", rescale(tables[name], rng))
            written.add(name)
        table = tables[name]
        tasks.append({"slot": f"{name}-n{n}", "kind": "hnn-basis", "input": f"r{r}-{name}.json",
                      "max_len": n,
                      "expect": dict(_expected_counts(table, n), forbidden=forbidden_pairs(table))})
    for size, odd, n in LS_CELLS:
        names = rng.sample(LETTER_POOL, size)
        parities = [0] * (size - odd) + [1] * odd
        rng.shuffle(parities)
        spec = ",".join(x + (":odd" if p else "") for x, p in zip(names, parities))
        tasks.append({"slot": f"ls{size}-odd{odd}-n{n}", "kind": "ls-words", "alphabet": spec,
                      "max_len": n,
                      "expect": {"counts": oracle.ls_word_counts(parities, n),
                                 "letters": names, "parities": parities}})
    return tasks


def rewrite_pool(count: int) -> list:
    """The fixed word shapes: (system, strategy, distinct words), in pool order."""
    rng = Random(POOL_SEED)
    sizes = {name: len(letters_of(t)) for name, t in (("sl2", SL2), ("osp", OSP), ("ab5", AB5))}
    pool = []
    for i in range(count):
        system = REWRITE_SYSTEMS[i % 3]
        strategy = STRATEGIES[(i // 3) % 2]
        words = set()
        for _ in range(rng.randint(1, 4)):
            words.add(tuple(rng.randrange(sizes[system]) for _ in range(rng.randint(0, 8))))
        pool.append((system, strategy, sorted(words)))
    return pool


def _rewrite_round(systems, rng, r, out_dir):
    tasks = []
    for i, (system, strategy, words) in enumerate(rewrite_pool(REWRITE_SLOTS)):
        terms = []
        for word in words:
            coeff = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
            terms.append(["".join(systems[system][k] for k in word), str(coeff)])
        tasks.append({"slot": f"p{i}", "kind": "reduce", "system": system,
                      "strategy": strategy, "terms": terms})
    return tasks


def generate(root: Path, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Write every input of one run to ``out_dir``; returns the task list it wrote."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    tables = load_tables(root)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Random(f"{workload}:{seed}")
    if workload == "rewrite":
        # one rescaled system per run: set-up builds its relations once
        context = {}
        for name in REWRITE_SYSTEMS:
            table = rescale(tables[name], rng)
            _write(out_dir / f"{name}.json", table)
            context[name] = [x for x, _ in letters_of(table)]
        build = _rewrite_round
    else:
        context = tables
        build = _verify_round if workload == "verify" else _enumerate_round
    rounds = rounds_for(workload, seconds)
    tasks = []
    for r in range(rounds):
        chunk = build(context, rng, r, out_dir)
        rng.shuffle(chunk)
        for task in chunk:
            task.update(id=f"r{r}-{task['slot']}", round=r)
        tasks.extend(chunk)
    _write(out_dir / "probe.json", tables["ex3"])
    plan = {"workload": workload, "seed": seed, "rounds": rounds, "tasks": tasks}
    if workload == "rewrite":
        plan["forbidden"] = {name: forbidden_pairs(tables[name]) for name in REWRITE_SYSTEMS}
    _write(out_dir / "tasks.json", plan)
    return plan
