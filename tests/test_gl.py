"""gl(m|n) from its matrix units: generated tables and their extensions.

The bracket of gl(m|n) is the supercommutator of matrix units, so super
Jacobi holds by construction and ``validate`` meets an oracle that shares
none of its code.  Each table lists a bracket-closed part B first, and
d = ad(y)|_B for a unit y is a derivation B -> A of y's parity.
"""

import copy
import json
import zlib
from collections import Counter
from random import Random

import pytest

from superlie import (
    enumerate_h_basis,
    load_presentation,
    validate,
    verify_hnn_gsb,
    verify_structure_theorem,
)
from superlie.cli import main
from test_hnn import IDENTITY_CHECKS, _dimension_oracle, reference_identity_violations

# the bracket-closed parts that may come first: the even part, the Cartan
# (diagonal) part and the Borel (upper triangular) part
PARTS = {
    "even": lambda m, i, j: (i >= m) == (j >= m),
    "cartan": lambda m, i, j: i == j,
    "borel": lambda m, i, j: i <= j,
}


def gl(m, n, part, y):
    """gl(m|n) as a presentation dict, B = ``part`` first and d = ad(y)|_B.

    Index i is odd when i >= m, the unit E_ij has parity |i| + |j| and the
    name ``e<i><j>``, and [E_ij, E_kl] = d_jk E_il - (-1)^{|E_ij||E_kl|} d_li E_kj.
    ``y`` is an index pair (i, j).
    """
    in_b = PARTS[part]
    units = [(i, j) for i in range(m + n) for j in range(m + n)]
    units.sort(key=lambda u: not in_b(m, *u))  # stable: B first, each part in index order
    parity = {(i, j): (i >= m) ^ (j >= m) for i, j in units}

    def bracket(u, v):
        (i, j), (k, l) = u, v
        out = Counter()
        if j == k:
            out[(i, l)] += 1
        if l == i:
            out[(k, j)] -= -1 if parity[u] and parity[v] else 1
        return [{"basis": "e%d%d" % w, "coeff": c} for w, c in sorted(out.items()) if c]

    b = [u for u in units if in_b(m, *u)]
    return {
        "generators": [{"name": "e%d%d" % u, "parity": int(parity[u])} for u in units],
        "subalgebra_size": len(b),
        "d_parity": int(parity[y]),
        "brackets": [
            {"left": "e%d%d" % u, "right": "e%d%d" % v, "value": value}
            for x, u in enumerate(units)
            for v in units[x:]
            if (value := bracket(u, v))
        ],
        "derivation": [
            {"arg": "e%d%d" % a, "value": value} for a in b if (value := bracket(y, a))
        ],
    }


TABLES = [
    (m, n, part)
    for m, n in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
    for part in PARTS
]


@pytest.mark.parametrize("m, n, part", TABLES)
def test_matrix_units_pass_validate(m, n, part):
    data = gl(m, n, part, (0, m))
    assert len(data["generators"]) == (m + n) ** 2
    assert validate(load_presentation(data).constants).passed


@pytest.mark.parametrize("m, n, part", TABLES)
def test_one_raised_bracket_coefficient_fails_validate(m, n, part):
    # each stored coefficient in turn on the tables of up to 9 units, every
    # fifteenth on those of 16; all 702 of the 18 tables fail jacobi
    data = gl(m, n, part, (0, m))
    spots = [
        (e, t)
        for e, entry in enumerate(data["brackets"])
        for t in range(len(entry["value"]))
    ]
    for e, t in spots if m + n < 4 else spots[::15]:
        broken = copy.deepcopy(data)
        broken["brackets"][e]["value"][t]["coeff"] += 1
        report = validate(load_presentation(broken).constants)
        assert "jacobi" in {v.check for v in report.violations}, (m, n, part, e, t)


def test_raised_coefficients_are_reported_as_the_reference_reports_them():
    # a seeded sample of single raised coefficients on the tables of up to 9
    # units: every identity violation, its indices, detail and place in the
    # report, as the coefficient-at-a-time reference lists them
    rng = Random(zlib.crc32(b"gl raised coefficients"))
    cells = [(m, n, part) for m, n, part in TABLES if m + n <= 3]
    odd_pairs = 0
    for _ in range(12):
        m, n, part = rng.choice(cells)
        data = gl(m, n, part, (0, m))
        parity = {g["name"]: g["parity"] for g in data["generators"]}
        entry = rng.choice(data["brackets"])
        rng.choice(entry["value"])["coeff"] += 1
        odd_pairs += parity[entry["left"]] & parity[entry["right"]]
        sc = load_presentation(data).constants
        got = [
            (v.check, v.indices, v.detail)
            for v in validate(sc).violations
            if v.check in IDENTITY_CHECKS
        ]
        assert got and got == reference_identity_violations(sc), (m, n, part, entry)
    assert odd_pairs  # the sample raises an odd-odd bracket


# (m, n, B, y, degree): both parities of d and three kinds of B
EXTENSIONS = [
    (1, 1, "even", (0, 1), 6),
    (1, 1, "cartan", (0, 1), 6),
    (2, 1, "borel", (0, 2), 6),
    (2, 1, "borel", (1, 0), 6),
    (2, 1, "even", (0, 2), 6),
    (2, 1, "cartan", (0, 1), 6),
    (1, 2, "even", (1, 2), 6),
    (2, 2, "cartan", (0, 1), 5),
]


@pytest.mark.parametrize("m, n, part, y, top", EXTENSIONS)
def test_extension_of_gl_passes_with_the_oracle_counts(m, n, part, y, top):
    data = gl(m, n, part, y)
    pres = load_presentation(data)
    expected = _dimension_oracle().extension_counts(
        [g["parity"] for g in data["generators"]], data["subalgebra_size"], data["d_parity"], top
    )
    assert verify_hnn_gsb(pres).passed
    structure = verify_structure_theorem(pres, top)
    assert structure.passed
    assert list(structure.h_basis_counts) == expected["algebra"]
    lengths = Counter(map(len, enumerate_h_basis(pres, top)))
    assert [lengths[k] for k in range(1, top + 1)] == expected["algebra"]


def test_generated_presentation_runs_through_the_cli(tmp_path, capsys):
    path = tmp_path / "gl21-borel.json"
    path.write_text(json.dumps(gl(2, 1, "borel", (0, 2))))
    code = main(["hnn-verify", "--input", str(path), "--max-len", "5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["passed"]) == (0, True)
