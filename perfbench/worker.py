"""One workload run in a fresh process: set-up, closed loop, answer checks, trace.

Started by ``run.py``, never by hand.  It imports the superlie under test
from the checkout's ``src/``, loads the inputs ``inputs.generate`` wrote,
prints ``READY``, and (unless ``--setup-only``) runs the task list round
by round in a closed loop: one client, the next task starts when the
previous returns, no threads.  It starts no round once ``--seconds`` have
passed and ``MIN_ROUNDS`` are done.  Every answer is checked outside the
timed region.  The last stdout line is one JSON object with the raw
measurements.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

from inputs import MIN_ROUNDS

ROOT = Path(__file__).resolve().parent.parent

# One reduce task in this many also gets the other strategy and a trace replay.
REPLAY_EVERY = 30

# Seconds ``reference()`` takes on an idle core of the machine the benchmark
# was defined on (a Xeon KVM guest, Python 3.11); it only sets the scale.
REFERENCE_S = 0.00048
SAMPLE_EVERY_S = 0.02


def reference() -> float:
    """Time one fixed standard-library computation: how fast the core runs now.

    The work resembles superlie's (Fraction arithmetic, tuple keys, dict
    updates, a keyed sort) and never changes, so a task's time divided by
    the reference times taken while it ran cancels the slowdown that other
    tenants of a shared machine cause at that moment.
    """
    start = perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 17)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)
    return perf_counter() - start


def reference_scale(samples: int = 9) -> float:
    """REFERENCE_S over the mean of a few reference times taken now."""
    return REFERENCE_S * samples / sum(reference() for _ in range(samples))


class SpeedSampler:
    """Times ``reference()`` every SAMPLE_EVERY_S, from a SIGALRM handler.

    The handler runs between bytecodes of whatever is executing, tasks
    included; ``spent`` accumulates its own time so callers can take it
    out of what they measure.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a sample that overran the interval: skip, do not nest
            return
        self._busy = True
        start = perf_counter()
        self.starts.append(start)
        self.durations.append(reference())
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean reference time from just before t0 to just after t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        window = self.durations[max(0, lo - 1) : hi + 1]
        if not window:
            return reference_scale()
        return REFERENCE_S * len(window) / sum(window)


def _is_ls(r: tuple) -> bool:
    return all(r > r[k:] + r[:k] for k in range(1, len(r)))


def _is_super_ls(r: tuple, parities: list) -> bool:
    if _is_ls(r):
        return True
    half = len(r) // 2
    u = r[:half]
    return len(r) % 2 == 0 and u == r[half:] and sum(parities[c] for c in u) % 2 == 1 and _is_ls(u)


def _has_forbidden(word: str, forbidden: set) -> bool:
    return any(word[i : i + 2] in forbidden for i in range(len(word) - 1))


def _histogram(lengths, lo: int, hi: int):
    counts = [0] * (hi - lo + 1)
    for n in lengths:
        if not lo <= n <= hi:
            return None
        counts[n - lo] += 1
    return counts


def _monomial_len(text: str) -> int:
    return sum(ch not in "[]," for ch in text)


def _word_len(text: str) -> int:
    return 0 if text == "1" else len(text)


def check_verify(spec: dict, out) -> str | None:
    code, text = out
    data = json.loads(text)
    expect = spec["expect"]
    if not expect["passed"]:
        checks = {v["check"] for v in data["validation"]["violations"]}
        if code != 1 or data["passed"] is not False or expect["violation"] not in checks:
            return f"negative control: exit {code}, passed {data['passed']}, checks {sorted(checks)}"
        return None
    if code != 0 or data["passed"] is not True:
        return f"exit {code}, passed {data['passed']}"
    counts = data["structure"]["h_basis_counts"]
    if counts != expect["counts"]:
        return f"h_basis_counts {counts} != oracle {expect['counts']}"
    return None


def check_basis(spec: dict, out) -> str | None:
    code, text = out
    data = json.loads(text)
    expect, n = spec["expect"], spec["max_len"]
    if code != 0:
        return f"exit {code}"
    lists = {
        "algebra": (data["algebra_basis"], _monomial_len, 1),
        "enveloping": (data["enveloping_basis"], _word_len, 0),
        "generators": (data["free_generators"], _monomial_len, 1),
    }
    for key, (items, length, lo) in lists.items():
        if len(set(items)) != len(items):
            return f"{key}: repeated entries"
        counts = _histogram(map(length, items), lo, n)
        if counts != expect[key]:
            return f"{key} counts {counts} != oracle {expect[key]}"
    forbidden = set(expect["forbidden"])
    bad = [w for w in data["enveloping_basis"] if _has_forbidden(w, forbidden)]
    if bad:
        return f"enveloping basis words contain a leading word: {bad[:3]}"
    return None


def check_ls(spec: dict, out) -> str | None:
    code, text = out
    data = json.loads(text)
    expect = spec["expect"]
    if code != 0:
        return f"exit {code}"
    words = data["words"]
    if len(set(words)) != len(words):
        return "repeated words"
    counts = _histogram(map(len, words), 1, spec["max_len"])
    if counts != expect["counts"]:
        return f"counts {counts} != oracle {expect['counts']}"
    rank = {x: i for i, x in enumerate(expect["letters"])}
    parities = expect["parities"]
    bad = [w for w in words if not _is_super_ls(tuple(rank[c] for c in w), parities)]
    if bad:
        return f"not super-LS: {bad[:3]}"
    return None


class CliTask:
    """One in-process CLI call; its output is (exit code, stdout text)."""

    CHECKS = {"hnn-verify": check_verify, "hnn-basis": check_basis, "ls-words": check_ls}

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        if spec["kind"] == "ls-words":
            source = ["--alphabet", spec["alphabet"]]
        else:
            source = ["--input", str(work / spec["input"])]
        self.argv = [spec["kind"], *source, "--max-len", str(spec["max_len"]), "--format", "json"]

    def call(self, superlie):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = superlie.cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, superlie, out) -> str | None:
        return self.CHECKS[self.spec["kind"]](self.spec, out)

    @staticmethod
    def text(out) -> str:
        return f"{out[0]}\n{out[1]}"


class ReduceTask:
    """``superlie.reduce(p, system, strategy)``; its output is (normal form, trace)."""

    def __init__(self, spec: dict, poly, system, forbidden: set, replay: bool):
        self.spec = spec
        self.poly = poly
        self.system = system
        self.forbidden = forbidden
        self.replay = replay

    def call(self, superlie):
        return superlie.reduce(self.poly, self.system, self.spec["strategy"])

    def check(self, superlie, out) -> str | None:
        normal_form, trace = out
        bad = [str(w) for w in normal_form.words() if _has_forbidden(str(w), self.forbidden)]
        if bad:
            return f"normal form keeps a leading word: {bad[:3]}"
        if not self.replay:
            return None
        other = "smallest-rightmost" if self.spec["strategy"] == "largest-leftmost" else "largest-leftmost"
        if superlie.reduce(self.poly, self.system, other)[0] != normal_form:
            return f"strategies disagree on {self.poly}"
        final, ideal = trace.replay(self.poly, self.system)
        if final != normal_form or self.poly - normal_form != ideal:
            return "trace replay does not give p - nf as the ideal member"
        return None

    @staticmethod
    def text(out) -> str:
        return str(out[0])


def load_tasks(superlie, plan: dict, work: Path) -> list:
    """Set-up: parse every generated input the run will use."""
    if plan["workload"] != "rewrite":
        for name in sorted({t["input"] for t in plan["tasks"] if "input" in t}):
            superlie.load_presentation(work / name)
        return [CliTask(spec, work) for spec in plan["tasks"]]
    systems = {}
    for name in plan["forbidden"]:
        systems[name] = superlie.build_relations(superlie.load_presentation(work / f"{name}.json"))
    picker = Random(f"checks:{plan['seed']}")
    tasks = []
    for spec in plan["tasks"]:
        system = systems[spec["system"]]
        alphabet = system.alphabet
        poly = superlie.Poly(alphabet, [(alphabet.word(w), Fraction(c)) for w, c in spec["terms"]])
        forbidden = set(plan["forbidden"][spec["system"]])
        tasks.append(ReduceTask(spec, poly, system, forbidden, picker.randrange(REPLAY_EVERY) == 0))
    return tasks


def run_round(superlie, tasks: list, tracer=None) -> dict:
    """Closed loop over ``tasks``; checks run between tasks, off the clock.

    Returns per-task latencies, failures, and each output as text.  Without
    a tracer, a SpeedSampler runs throughout: latencies exclude its handler,
    and each task also gets a scaled latency, its latency times the
    sampler's scale over the task.  With a tracer, each task is one root
    span and the answer checks are skipped: they call superlie too, and the
    caller compares digests instead.
    """
    latencies, windows, failures, outputs = [], [], [], []
    off_clock = 0.0
    task_span = tracer.name_id("task") if tracer else None
    with contextlib.nullcontext() if tracer else SpeedSampler() as sampler:
        start = perf_counter()
        for i, task in enumerate(tasks):
            if tracer:
                tracer.current_task = i
                sid = tracer.enter(task_span)
            spent = sampler.spent if sampler else 0.0
            t0 = perf_counter()
            try:
                out, problem = task.call(superlie), None
            except Exception:  # a task that raises is a failed task, not a failed run
                out, problem = None, traceback.format_exc()
            t1 = perf_counter()
            if tracer:
                tracer.exit(sid)
            else:
                spent = sampler.spent - spent
                windows.append((t0, t1))
                if problem is None:
                    try:
                        problem = task.check(superlie, out)
                    except Exception:
                        problem = traceback.format_exc()
            latencies.append(t1 - t0 - spent)
            if problem:
                failures.append(f"{task.spec['id']}: {problem}")
            outputs.append(task.text(out) if out else "")
            off_clock += perf_counter() - t1 + spent
        elapsed = perf_counter() - start - off_clock
    scaled = [lat * sampler.scale(*w) for lat, w in zip(latencies, windows)] if sampler else []
    return {"latencies": latencies, "scaled": scaled, "failures": failures,
            "elapsed": elapsed, "outputs": outputs}


def digest_of(tasks: list, texts: list) -> str:
    digest = hashlib.sha256()
    for task, text in zip(tasks, texts):
        digest.update(f"{task.spec['id']}\0{text}\0".encode())
    return digest.hexdigest()


def probe(superlie, work: Path) -> None:
    """Small calls that reach every wrapped function."""
    path = str(work / "probe.json")
    for argv in (["hnn-verify", "--input", path, "--max-len", "3"],
                 ["hnn-basis", "--input", path, "--max-len", "3"],
                 ["ls-words", "--alphabet", "a,b:odd", "--max-len", "3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            superlie.cli.main(argv + ["--format", "json"])


def traced_round(superlie, tasks: list, work: Path, untraced: dict) -> tuple[dict, list]:
    """Run round 0 again under the wrappers; returns (per-layer metrics, problems)."""
    import spans

    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        problems = [f"unwrapped binding {b}" for b in spans.unwrapped_bindings(installed)]
        probe(superlie, work)
        problems += [f"wrapper {n} never fired on the probe" for n, c in spans.fired(tracer).items() if not c]
        tracer.reset()
        traced = run_round(superlie, tasks, tracer)
    finally:
        installed.restore()
    problems += tracer.check_spans()
    problems += traced["failures"]
    if digest_of(tasks, traced["outputs"]) != untraced["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced["elapsed"] - untraced["elapsed"], "s")
    tracer.write(work / "spans")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="start no round after this long, once MIN_ROUNDS are done")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import superlie
    import superlie.cli  # noqa: F401  (tasks call superlie.cli.main)

    plan = json.loads((args.work / "tasks.json").read_text())
    tasks = load_tasks(superlie, plan, args.work)
    print("READY", flush=True)
    if args.setup_only:
        print(f"SCALE {reference_scale()}")
        return 0

    setup_scale = reference_scale()
    rounds = [[t for t in tasks if t.spec["round"] == r] for r in range(plan["rounds"])]
    start = perf_counter()
    runs = []
    for r, chunk in enumerate(rounds):
        if r >= MIN_ROUNDS and perf_counter() - start >= args.seconds:
            break
        runs.append(run_round(superlie, chunk))
        if r:
            del runs[-1]["outputs"]  # only round 0 is digested; keep memory flat
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = [t for chunk in rounds[: len(runs)] for t in chunk]
    report = {
        "attempted": len(done),
        "failures": [f for run in runs for f in run["failures"]],
        "latencies": [x for run in runs for x in run["latencies"]],
        "scaled": [x for run in runs for x in run["scaled"]],
        "slots": [t.spec["slot"] for t in done],
        "rounds": len(runs),
        "elapsed_s": sum(run["elapsed"] for run in runs),
        "setup_scale": setup_scale,
        "peak_rss_mib": peak_rss_mib,
        "digest": digest_of(rounds[0], runs[0]["outputs"]),
        "layers": None,
        "trace_problems": [],
    }
    if args.trace:
        untraced = {"elapsed": runs[0]["elapsed"], "digest": report["digest"]}
        layers, problems = traced_round(superlie, rounds[0], args.work, untraced)
        report["layers"] = {k: [v, unit] for k, (v, unit) in layers.items()}
        report["trace_problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
