"""Benchmark for superlie: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads (see README.md in this
directory): ``verify`` (hnn-verify over a ladder of presentations),
``enumerate`` (hnn-basis and ls-words) and ``rewrite`` (reduce on random
polynomials).  The seed picks the inputs; the run repeats its task list in
whole rounds until ``--seconds`` have passed (at least two rounds).

Each workload runs in one fresh worker process.  Set-up time is measured
from process start to the worker's READY line, over several fresh
processes.  Times are scaled to a reference speed (see README.md).  With
``--trace 1`` the run repeats round 0 under wrappers and reports per-layer
metrics instead of end-to-end ones.  Every answer is checked against the
dimension oracle and the known verdicts; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # fresh set-up-only processes before the run, and again after
TIMEOUT_S = 175.0
TAIL_ABOVE = 10  # the tail latency has this many tasks above it


class WorkerError(RuntimeError):
    pass


def _run_worker(work: Path, deadline: float, *extra: str) -> tuple[float, str]:
    """Run a worker to the end; returns (seconds until READY, the rest of its stdout).

    A watchdog kills the worker at ``deadline``; the pipe then closes and
    the run fails instead of hanging.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with bytecode cached, as installed
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--work", str(work), *extra],
        stdout=subprocess.PIPE, text=True, env=env,
    ) as proc:
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(extra)} failed (exit {proc.returncode})")
    return ready, rest


def _setup_sample(work: Path, deadline: float) -> tuple[float, float]:
    """(seconds until READY, the worker's reference scale right after it)."""
    ready, rest = _run_worker(work, deadline, "--setup-only")
    if not rest.startswith("SCALE "):
        raise WorkerError(f"set-up worker printed {rest[:80]!r}")
    return ready, float(rest.split()[1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + TIMEOUT_S
    work = HERE / "_out" / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs.generate(ROOT, workload, seed, seconds, work)

    _setup_sample(work, deadline)  # untimed: lets bytecode caches fill, as after an install
    setups = [_setup_sample(work, deadline) for _ in range(SETUP_SAMPLES)]
    ready, out = _run_worker(work, deadline, "--trace", str(trace), "--seconds", str(seconds))
    # more samples after the run, so a burst of contention at the start weighs less
    setups += [_setup_sample(work, deadline) for _ in range(SETUP_SAMPLES)]
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    report = json.loads(lines[-1])
    setups.append((ready, report["setup_scale"]))
    report["setup_raw_s"] = statistics.median(r for r, _ in setups)
    report["setup_s"] = statistics.median(r * scale for r, scale in setups)
    return report


def per_slot(report: dict) -> list:
    """Each slot's median scaled latency over its repeats, sorted."""
    repeats: dict[str, list] = {}
    for slot, latency in zip(report["slots"], report["scaled"]):
        repeats.setdefault(slot, []).append(latency)
    return sorted(statistics.median(v) for v in repeats.values())


def end_to_end(report: dict) -> dict:
    lat = per_slot(report)
    return {
        "setup_s": (report["setup_s"], "s"),
        "wall_s": (sum(lat), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (lat[max(0, len(lat) - TAIL_ABOVE - 1)], "s"),
        "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/superlie/__init__.py", "fixtures/ex1.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a superlie checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = report["attempted"], report["failures"]
    problems = report["trace_problems"]
    for line in failures[:5] + problems[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    slots, rounds = len(set(report["slots"])), report["rounds"]
    print(f"{args.workload} seed {args.seed}: {attempted} tasks ({slots} slots x {rounds} rounds) "
          f"in {report['elapsed_s']:.2f} s (set-up {report['setup_raw_s']:.3f} s unscaled), "
          f"failed {len(failures)}, "
          f"failed_frac {len(failures) / attempted:.4f} ratio, latency_tail_s = "
          f"p{100 * (slots - TAIL_ABOVE) / slots:.1f} of {slots} slots, digest {report['digest'][:16]}")
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = end_to_end(report)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
