"""superlie builds no reference cycles.

``cli.main`` runs each command with the cyclic garbage collector paused, so
what a command drops must be freed by reference counting alone.  These
tests hold the library's builders to that: with the collector paused, they
run over every presentation fixture, their results are dropped, and a
collection then finds nothing to free.  The recursive closures of the
prenecklace walk and of the memoised normal forms, for one, drop
themselves, so their memos go when the call returns instead of waiting,
with every word they hold, for a cyclic collection.
"""

import gc
from pathlib import Path
from random import Random

import pytest

from superlie import (
    Alphabet,
    RewriteSystem,
    build_relations,
    enumerate_h_basis,
    enumerate_super_ls,
    enumerate_uh_basis,
    expand,
    free_generators_W,
    is_gsb,
    load_presentation,
    parse_poly,
    reduce,
    standard_bracket,
    validate,
    verify_hnn_gsb,
    verify_structure_theorem,
)
from superlie.rewrite import STRATEGIES
from conftest import ALL, random_poly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAX_LEN = 5


def _reductions(system: RewriteSystem, seed: int) -> list:
    """Seeded reductions by ``system`` under both strategies, traces read and replayed."""
    rng = Random(seed)
    out = []
    for strategy in STRATEGIES:
        for _ in range(8):
            p = random_poly(rng, system.alphabet, max_terms=4, max_len=6)
            normal_form, trace = reduce(p, system, strategy=strategy)
            out.append((normal_form, trace, trace.steps, trace.replay(p, system)))
    return out


def _presentation_results(name: str) -> list:
    pres = load_presentation(str(FIXTURES / f"{name}.json"))
    system = build_relations(pres)
    words = enumerate_super_ls(pres.alphabet, MAX_LEN)
    trees = [standard_bracket(w) for w in words]
    return [
        pres,
        validate(pres.constants),
        system,
        verify_hnn_gsb(pres),
        verify_structure_theorem(pres, MAX_LEN),
        enumerate_h_basis(pres, MAX_LEN),
        enumerate_uh_basis(pres, MAX_LEN),
        free_generators_W(pres, MAX_LEN),
        _reductions(system, len(name)),
        is_gsb(system),
        words,
        trees,
        [expand(m) for m in trees],
    ]


def _broken_rules_results() -> list:
    # a rules file whose closure check fails: its report holds failing
    # compositions with their traces
    alphabet = Alphabet.from_names(["v", "y", "x"])
    system = RewriteSystem.from_polys(
        alphabet, [parse_poly(alphabet, "xy - v"), parse_poly(alphabet, "yv - y")]
    )
    report = is_gsb(system)
    assert not report.passed
    return [system, report, _reductions(system, 0)]


def _cyclic_garbage_after(build) -> int:
    """The objects a collection frees after ``build()``'s result is dropped,
    with the collector paused from before the call."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(ALL))
def test_presentation_builders_leave_no_cyclic_garbage(name):
    assert _cyclic_garbage_after(lambda: _presentation_results(name)) == 0


def test_failing_closure_check_leaves_no_cyclic_garbage():
    assert _cyclic_garbage_after(_broken_rules_results) == 0
