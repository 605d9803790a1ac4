"""Tests of the benchmark itself: inputs, oracle, answer checks, tracing.

    python3 -m pytest perfbench -q

Scratch files go under ``perfbench/_out/tests``.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import inputs
import oracle
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_out" / "tests"
sys.path.insert(0, str(ROOT / "src"))

import superlie  # noqa: E402
import superlie.cli  # noqa: E402


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(scratch, workload):
    inputs.generate(ROOT, workload, 3, 20, scratch / "a")
    inputs.generate(ROOT, workload, 3, 20, scratch / "b")
    assert _files(scratch / "a") == _files(scratch / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seed_changes_inputs(scratch, workload):
    one = inputs.generate(ROOT, workload, 1, 20, scratch / "a")
    two = inputs.generate(ROOT, workload, 2, 20, scratch / "b")
    assert one["tasks"] != two["tasks"]
    assert _files(scratch / "a") != _files(scratch / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_keeps_the_slots(scratch, workload):
    """The seed changes inputs, not which work is done: same slots, same rounds."""
    one = inputs.generate(ROOT, workload, 1, 20, scratch / "a")
    two = inputs.generate(ROOT, workload, 2, 20, scratch / "b")
    def shape(plan):
        return sorted((t["slot"], t["round"], t["kind"]) for t in plan["tasks"])

    assert shape(one) == shape(two)


@pytest.mark.parametrize("workload", ["enumerate", "rewrite"])
def test_same_seed_gives_identical_output_digests(scratch, workload):
    inputs.generate(ROOT, workload, 5, 1, scratch)
    digests = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--work", str(scratch)],
            capture_output=True, text=True, check=True,
        ).stdout
        report = json.loads(out.splitlines()[-1])
        assert report["failures"] == []
        digests.append(report["digest"])
    assert digests[0] == digests[1]


def test_oracle_hand_values():
    assert oracle.ls_word_counts([0, 0], 7) == [2, 1, 2, 3, 6, 9, 18]
    assert oracle.ls_word_counts([1], 3) == [1, 1, 0]


@pytest.mark.parametrize(
    "name, counts",
    [
        ("sl2", [4, 1, 2, 3, 6, 9, 18]),
        ("osp", [6, 3, 4, 8, 16, 32, 68]),
        ("ab5", [6, 3, 9, 22, 61, 156, 437]),
    ],
)
def test_oracle_matches_the_published_extension_counts(name, counts):
    table = inputs.load_tables(ROOT)[name]
    parities = [g["parity"] for g in table["generators"]]
    got = oracle.extension_counts(parities, table["subalgebra_size"], table["d_parity"], 7)
    assert got["algebra"] == counts


@pytest.mark.parametrize("parities", [[0, 0, 0], [1, 0, 1], [0, 1]])
def test_oracle_agrees_with_superlie_on_small_alphabets(parities):
    names = "abc"[: len(parities)]
    alphabet = superlie.Alphabet.from_names(names, [x for x, p in zip(names, parities) if p])
    lengths = [len(w) for w in superlie.enumerate_super_ls(alphabet, 6)]
    assert [lengths.count(n) for n in range(1, 7)] == oracle.ls_word_counts(parities, 6)


def test_rescaled_tables_validate():
    from random import Random

    rng = Random(0)
    for name, table in inputs.load_tables(ROOT).items():
        pres = superlie.load_presentation(inputs.rescale(table, rng))
        assert superlie.validate(pres.constants).passed, name


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = superlie.cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("index", range(3))
def test_negative_controls_fail_with_the_named_check(scratch, index):
    name, table, check = inputs.negative_controls(inputs.load_tables(ROOT))[index]
    path = scratch / f"{name}.json"
    path.write_text(json.dumps(table))
    out = _cli(["hnn-verify", "--input", str(path), "--max-len", "5", "--format", "json"])
    data = json.loads(out[1])
    assert out[0] == 1 and data["passed"] is False
    assert check in {v["check"] for v in data["validation"]["violations"]}
    spec = {"expect": {"passed": False, "violation": check}}
    assert worker.check_verify(spec, out) is None
    assert worker.check_verify({"expect": {"passed": True, "counts": []}}, out) is not None


def test_answer_checks_reject_wrong_answers(scratch):
    plan = inputs.generate(ROOT, "enumerate", 1, 1, scratch)
    ls_spec = next(t for t in plan["tasks"] if t["kind"] == "ls-words")
    task = worker.CliTask(ls_spec, scratch)
    code, text = task.call(superlie)
    assert worker.check_ls(ls_spec, (code, text)) is None
    data = json.loads(text)
    data["words"][-1] = data["words"][-1][::-1]
    assert worker.check_ls(ls_spec, (code, json.dumps(data))) is not None

    basis_spec = next(t for t in plan["tasks"] if t["slot"] == "sl2-n4")
    code, text = worker.CliTask(basis_spec, scratch).call(superlie)
    assert worker.check_basis(basis_spec, (code, text)) is None
    data = json.loads(text)
    data["enveloping_basis"][-1] = "fh" + data["enveloping_basis"][-1][2:]
    assert "leading word" in worker.check_basis(basis_spec, (code, json.dumps(data)))
    wrong = copy.deepcopy(basis_spec)
    wrong["expect"]["algebra"][0] += 1
    assert worker.check_basis(wrong, (code, text)) is not None


def test_reduce_checks_pass_and_catch_a_leading_word(scratch):
    plan = inputs.generate(ROOT, "rewrite", 1, 1, scratch)
    tasks = worker.load_tasks(superlie, plan, scratch)[:20]
    for task in tasks:
        task.replay = True
        assert task.check(superlie, task.call(superlie)) is None
    task = tasks[0]
    alphabet = task.system.alphabet
    bad = superlie.Poly(alphabet, [(alphabet.word("ht" if task.spec["system"] != "ab5" else "ba"), 1)])
    assert task.check(superlie, (bad, None)) is not None


def test_wrappers_cover_every_binding_and_all_fire(scratch):
    (scratch / "probe.json").write_text(json.dumps(inputs.load_tables(ROOT)["ex3"]))
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        assert spans.unwrapped_bindings(installed) == []
        assert superlie.hnn.reduce is superlie.rewrite.reduce is superlie.reduce
        assert hasattr(superlie.reduce, "__wrapped__")
        assert hasattr(superlie.poly.Poly.__init__, "__wrapped__")
        worker.probe(superlie, scratch)
        assert [name for name, n in spans.fired(tracer).items() if not n] == []
    finally:
        installed.restore()
    assert superlie.hnn.reduce is superlie.rewrite.reduce is superlie.reduce
    assert not hasattr(superlie.reduce, "__wrapped__")
    assert not hasattr(superlie.poly.Poly.__init__, "__wrapped__")


def test_span_self_times_sum_to_each_task(scratch):
    plan = inputs.generate(ROOT, "rewrite", 2, 1, scratch)
    tasks = worker.load_tasks(superlie, plan, scratch)[:30]
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        result = worker.run_round(superlie, tasks, tracer)
    finally:
        installed.restore()
    assert result["failures"] == []
    assert tracer.check_spans() == []
    assert tracer.total("task", tracer.calls) == 30
    metrics = spans.layer_metrics(tracer)
    assert metrics["rewrite.reduce.calls"][0] == 30
    assert metrics["poly.Poly.created"][0] > 0 and metrics["words.Word.created"][0] > 0
