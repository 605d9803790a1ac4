"""Desk-scale extension inputs used by the test suite and the docs.

EX1: even subalgebra {a} inside an abelian even 2-dimensional algebra,
     derivation a -> x, even stable letter.  Exercises the plain pair and
     stable-letter relations with no odd symbols at all.
EX2: even subalgebra {x} with an odd complement symbol a squaring to x,
     derivation x -> a, odd stable letter.  Exercises the odd-square rules
     on a complement symbol (composition families 3 and 4 shapes).
EX3: odd subalgebra {a} with [a, a] = 0, derivation a -> x, odd stable
     letter.  Exercises the odd-square rule inside the subalgebra (family 5)
     and the self-bracket [t, t] basis monomial.
EX4: non-abelian subalgebra {a, b} with [a, b] = a, derivation a -> a,
     b -> x.  Exercises families 1 and 2 (triple overlap, stable/pair).
SL2: sl2 with d = ad f restricted to the Borel subalgebra {h, e}.
OSP: osp(1|2) with the odd derivation d = ad v on {h, e, u}.  The only
     input with an odd subalgebra symbol, an odd complement symbol and all
     five composition families.
AB5: five even letters, abelian, subalgebra {a, b}, derivation a -> x.

Each is also shipped as ``fixtures/<name>.json``, under its key in ``ALL``.
"""

from __future__ import annotations

from .hnn import HnnPresentation, load_presentation

EX1 = {
    "generators": [
        {"name": "a", "parity": 0},
        {"name": "x", "parity": 0},
    ],
    "subalgebra_size": 1,
    "d_parity": 0,
    "brackets": [],
    "derivation": [
        {"arg": "a", "value": [{"basis": "x", "coeff": "1"}]},
    ],
}

EX2 = {
    "generators": [
        {"name": "x", "parity": 0},
        {"name": "a", "parity": 1},
    ],
    "subalgebra_size": 1,
    "d_parity": 1,
    "brackets": [
        {"left": "a", "right": "a", "value": [{"basis": "x", "coeff": "1"}]},
    ],
    "derivation": [
        {"arg": "x", "value": [{"basis": "a", "coeff": "1"}]},
    ],
}

EX3 = {
    "generators": [
        {"name": "a", "parity": 1},
        {"name": "x", "parity": 0},
    ],
    "subalgebra_size": 1,
    "d_parity": 1,
    "brackets": [],
    "derivation": [
        {"arg": "a", "value": [{"basis": "x", "coeff": "1"}]},
    ],
}

EX4 = {
    "generators": [
        {"name": "a", "parity": 0},
        {"name": "b", "parity": 0},
        {"name": "x", "parity": 0},
    ],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [
        {"left": "a", "right": "b", "value": [{"basis": "a", "coeff": "1"}]},
    ],
    "derivation": [
        {"arg": "a", "value": [{"basis": "a", "coeff": "1"}]},
        {"arg": "b", "value": [{"basis": "x", "coeff": "1"}]},
    ],
}

SL2 = {
    "generators": [
        {"name": "h", "parity": 0},
        {"name": "e", "parity": 0},
        {"name": "f", "parity": 0},
    ],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [
        {"left": "h", "right": "e", "value": [{"basis": "e", "coeff": "2"}]},
        {"left": "h", "right": "f", "value": [{"basis": "f", "coeff": "-2"}]},
        {"left": "e", "right": "f", "value": [{"basis": "h", "coeff": "1"}]},
    ],
    "derivation": [
        {"arg": "h", "value": [{"basis": "f", "coeff": "2"}]},
        {"arg": "e", "value": [{"basis": "h", "coeff": "-1"}]},
    ],
}

OSP = {
    "generators": [
        {"name": "h", "parity": 0},
        {"name": "e", "parity": 0},
        {"name": "u", "parity": 1},
        {"name": "f", "parity": 0},
        {"name": "v", "parity": 1},
    ],
    "subalgebra_size": 3,
    "d_parity": 1,
    "brackets": [
        {"left": "h", "right": "e", "value": [{"basis": "e", "coeff": "2"}]},
        {"left": "h", "right": "f", "value": [{"basis": "f", "coeff": "-2"}]},
        {"left": "e", "right": "f", "value": [{"basis": "h", "coeff": "1"}]},
        {"left": "h", "right": "u", "value": [{"basis": "u", "coeff": "1"}]},
        {"left": "h", "right": "v", "value": [{"basis": "v", "coeff": "-1"}]},
        {"left": "e", "right": "v", "value": [{"basis": "u", "coeff": "-1"}]},
        {"left": "f", "right": "u", "value": [{"basis": "v", "coeff": "-1"}]},
        {"left": "u", "right": "u", "value": [{"basis": "e", "coeff": "2"}]},
        {"left": "v", "right": "v", "value": [{"basis": "f", "coeff": "-2"}]},
        {"left": "u", "right": "v", "value": [{"basis": "h", "coeff": "1"}]},
    ],
    "derivation": [
        {"arg": "h", "value": [{"basis": "v", "coeff": "1"}]},
        {"arg": "e", "value": [{"basis": "u", "coeff": "1"}]},
        {"arg": "u", "value": [{"basis": "h", "coeff": "1"}]},
    ],
}

AB5 = {
    "generators": [
        {"name": "a", "parity": 0},
        {"name": "b", "parity": 0},
        {"name": "x", "parity": 0},
        {"name": "y", "parity": 0},
        {"name": "z", "parity": 0},
    ],
    "subalgebra_size": 2,
    "d_parity": 0,
    "brackets": [],
    "derivation": [
        {"arg": "a", "value": [{"basis": "x", "coeff": "1"}]},
    ],
}

ALL = {
    "ex1": EX1,
    "ex2": EX2,
    "ex3": EX3,
    "ex4": EX4,
    "sl2": SL2,
    "osp": OSP,
    "ab5": AB5,
}


def ex1() -> HnnPresentation:
    return load_presentation(EX1)


def ex2() -> HnnPresentation:
    return load_presentation(EX2)


def ex3() -> HnnPresentation:
    return load_presentation(EX3)


def ex4() -> HnnPresentation:
    return load_presentation(EX4)


def sl2() -> HnnPresentation:
    return load_presentation(SL2)


def osp() -> HnnPresentation:
    return load_presentation(OSP)


def ab5() -> HnnPresentation:
    return load_presentation(AB5)
