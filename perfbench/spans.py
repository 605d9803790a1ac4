"""Outside-in tracing of superlie's layers, for the traced run only.

``install`` replaces each public function listed in ``FUNCTIONS`` by a
wrapper wherever a ``superlie`` module (or the package namespace) binds it:
``hnn``, ``cli``, ``rewrite``, ``linalg`` and ``bracketing`` import these by
name, so patching only the defining module would silently miss their calls.
Three methods are wrapped on their class: ``Poly.__init__``, ``Poly.__mul__``
(spans only for Poly x Poly) and ``Word.__init__`` (a count, no span).

Each wrapped call records a span -- name, start, end, parent span, task id --
into flat arrays kept in memory until ``write``.  Counts are taken from the
arguments and return values at the same boundary.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

FUNCTIONS = (
    ("words", "enumerate_super_ls"),
    ("words", "is_super_ls"),
    ("poly", "superbracket"),
    ("bracketing", "expand"),
    ("bracketing", "is_admissible"),
    ("bracketing", "standard_bracket"),
    ("rewrite", "reduce"),
    ("rewrite", "is_reduced_word"),
    ("rewrite", "is_gsb"),
    ("rewrite", "enumerate_reduced_super_ls"),
    ("linalg", "rank"),
    ("hnn", "load_presentation"),
    ("hnn", "validate"),
    ("hnn", "build_relations"),
    ("hnn", "verify_hnn_gsb"),
    ("hnn", "enumerate_h_basis"),
    ("hnn", "enumerate_uh_basis"),
    ("hnn", "verify_structure_theorem"),
    ("cli", "main"),
)
POLY_INIT = "poly.Poly.init"
PRODUCT = "poly.product"
WORD_CREATED = "words.Word.created"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_enumerate(counts, args, kwargs, result):
    size = len(_arg(args, kwargs, 0, "alphabet"))
    counts["words.enumerate_super_ls.candidates"] += sum(
        size**n for n in range(1, _arg(args, kwargs, 1, "max_len") + 1)
    )
    counts["words.enumerate_super_ls.returned"] += len(result)


def _count_expand(counts, args, kwargs, result):
    counts["bracketing.expand.out_terms"] += len(result.terms())


def _count_reduce(counts, args, kwargs, result):
    normal_form, trace = result
    counts["rewrite.reduce.steps"] += len(trace)
    counts["rewrite.reduce.in_terms"] += len(_arg(args, kwargs, 0, "p").terms())
    counts["rewrite.reduce.out_terms"] += len(normal_form.terms())


def _count_reduced_word(counts, args, kwargs, result):
    counts["rewrite.is_reduced_word.true"] += bool(result)


def _count_gsb(counts, args, kwargs, result):
    counts["rewrite.is_gsb.compositions"] += len(result.checks)
    counts["rewrite.is_gsb.failed"] += len(result.failures())


def _count_rank(counts, args, kwargs, result):
    counts["linalg.rank.vectors"] += len(_arg(args, kwargs, 0, "vectors"))


def _count_validate(counts, args, kwargs, result):
    counts["hnn.validate.rejected"] += not result.passed


COUNTERS = {
    "words.enumerate_super_ls": _count_enumerate,
    "bracketing.expand": _count_expand,
    "rewrite.reduce": _count_reduce,
    "rewrite.is_reduced_word": _count_reduced_word,
    "rewrite.is_gsb": _count_gsb,
    "linalg.rank": _count_rank,
    "hnn.validate": _count_validate,
}


class Tracer:
    """Spans in flat arrays, plus per-name calls, self times and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Drop all spans and totals; wrappers keep references to the dicts, so clear in place."""
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.current_task = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self.start.append(perf_counter())
        return sid

    def exit(self, sid: int) -> None:
        end = perf_counter()
        self.end[sid] = end
        duration = end - self.start[sid]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += duration
        nid = self.name[sid]
        self.calls[nid] += 1
        self.self_s[nid] += duration - child

    def total(self, name: str, table) -> float:
        nid = self._ids.get(name)
        return table.get(nid, 0) if nid is not None else 0

    def check_spans(self, tolerance: float = 1e-6) -> list[str]:
        """Recompute self times from the spans alone and check how they nest.

        Every span must lie inside its parent and share its task; each
        task's self times must sum to the duration of its root span; and
        the recomputed per-name self times must match the running totals.
        """
        problems = []
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            if self.task[p] != self.task[i] or self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                problems.append(f"span {i} ({self.names[self.name[i]]}) escapes its parent {p}")
            child[p] += self.end[i] - self.start[i]
        per_task: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        per_name: dict[int, float] = defaultdict(float)
        for i in range(n):
            duration = self.end[i] - self.start[i]
            own = duration - child[i]
            per_task[self.task[i]] += own
            per_name[self.name[i]] += own
            if self.parent[i] < 0:
                if self.task[i] in roots:
                    problems.append(f"task {self.task[i]} has more than one root span")
                roots[self.task[i]] = duration
        for task, total in sorted(per_task.items()):
            if task not in roots or abs(total - roots[task]) > tolerance:
                problems.append(f"task {task}: self times sum to {total}, root span is {roots.get(task)}")
        for nid, total in per_name.items():
            if abs(total - self.self_s[nid]) > tolerance * max(1.0, self.calls[nid] / 1000):
                problems.append(f"{self.names[nid]}: recomputed self time {total} != {self.self_s[nid]}")
        return problems

    def write(self, path_stem) -> None:
        """Spans as raw arrays (``.bin``) plus a JSON header naming their layout."""
        with open(f"{path_stem}.bin", "wb") as out:
            for column in (self.name, self.parent, self.task, self.start, self.end):
                column.tofile(out)
        header = {
            "spans": len(self.start),
            "columns": [["name", "i"], ["parent", "i"], ["task", "i"], ["start", "d"], ["end", "d"]],
            "itemsize": {"i": self.name.itemsize, "d": self.start.itemsize},
            "names": self.names,
        }
        with open(f"{path_stem}.json", "w") as out:
            json.dump(header, out, indent=1)


def _wrap_function(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counter = COUNTERS.get(name)
    enter, leave = tracer.enter, tracer.exit

    if name == "cli.main":
        def wrapper(*args, **kwargs):
            before = sys.stdout.tell()
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid)
            # the harness captures stdout in a StringIO; JSON output is ASCII
            tracer.counts["cli.main.stdout_bytes"] += sys.stdout.tell() - before
            return result
    else:
        def wrapper(*args, **kwargs):
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Installed:
    """The wrappers in place, and what ``restore`` puts back."""

    def __init__(self):
        self.originals: dict[int, object] = {}
        self.bindings: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, value in reversed(self.bindings):
            setattr(owner, attr, value)
        self.bindings.clear()


def _superlie_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "superlie" or n.startswith("superlie.")]


def install(tracer: Tracer) -> Installed:
    """Wrap every listed function at every binding, and the three methods."""
    installed = Installed()
    wrappers: dict[int, object] = {}
    for module, attr in FUNCTIONS:
        fn = getattr(sys.modules[f"superlie.{module}"], attr)
        installed.originals[id(fn)] = fn
        wrappers[id(fn)] = _wrap_function(tracer, f"{module}.{attr}", fn)
    for module in _superlie_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and installed.originals[id(value)] is value:
                installed.bindings.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    poly_cls = sys.modules["superlie.poly"].Poly
    word_cls = sys.modules["superlie.words"].Word
    poly_init, poly_mul, word_init = poly_cls.__init__, poly_cls.__mul__, word_cls.__init__
    init_id, product_id = tracer.name_id(POLY_INIT), tracer.name_id(PRODUCT)
    enter, leave, counts = tracer.enter, tracer.exit, tracer.counts

    def traced_poly_init(self, *args, **kwargs):
        sid = enter(init_id)
        try:
            poly_init(self, *args, **kwargs)
        finally:
            leave(sid)

    def traced_poly_mul(self, other):
        if not isinstance(other, poly_cls):
            return poly_mul(self, other)
        sid = enter(product_id)
        try:
            return poly_mul(self, other)
        finally:
            leave(sid)

    def counted_word_init(self, *args, **kwargs):
        counts[WORD_CREATED] += 1
        word_init(self, *args, **kwargs)

    for cls, attr, original, wrapper in (
        (poly_cls, "__init__", poly_init, traced_poly_init),
        (poly_cls, "__mul__", poly_mul, traced_poly_mul),
        (word_cls, "__init__", word_init, counted_word_init),
    ):
        installed.originals[id(original)] = original
        installed.bindings.append((cls, attr, original))
        wrapper.__wrapped__ = original
        setattr(cls, attr, wrapper)
    return installed


def unwrapped_bindings(installed: Installed) -> list[str]:
    """Names in any superlie module that still resolve to an original function."""
    leftovers = []
    for module in _superlie_modules():
        for attr, value in vars(module).items():
            if installed.originals.get(id(value)) is value:
                leftovers.append(f"{module.__name__}.{attr}")
        for cls in (v for v in vars(module).values() if isinstance(v, type)):
            for attr, value in vars(cls).items():
                if installed.originals.get(id(value)) is value:
                    leftovers.append(f"{module.__name__}.{cls.__name__}.{attr}")
    return leftovers


def fired(tracer: Tracer) -> dict[str, int]:
    """Calls seen per wrapper, methods included."""
    out = {f"{m}.{a}": tracer.total(f"{m}.{a}", tracer.calls) for m, a in FUNCTIONS}
    out[POLY_INIT] = tracer.total(POLY_INIT, tracer.calls)
    out[PRODUCT] = tracer.total(PRODUCT, tracer.calls)
    out[WORD_CREATED] = tracer.counts.get(WORD_CREATED, 0)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); a ratio with no attempts reads 0."""
    def calls(name):
        return tracer.total(name, tracer.calls)

    def self_s(name):
        return tracer.total(name, tracer.self_s)

    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for module, attr in FUNCTIONS:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["words.super_ls_yield"] = (
        _ratio(counts["words.enumerate_super_ls.returned"], counts["words.enumerate_super_ls.candidates"]),
        "ratio",
    )
    out["words.Word.created"] = (counts[WORD_CREATED], "count")
    out["poly.Poly.created"] = (calls(POLY_INIT), "count")
    out["poly.Poly.init_self_s"] = (self_s(POLY_INIT), "s")
    out["poly.product.calls"] = (calls(PRODUCT), "count")
    out["poly.product.self_s"] = (self_s(PRODUCT), "s")
    out["bracketing.expand.out_terms"] = (counts["bracketing.expand.out_terms"], "count")
    for stat in ("steps", "in_terms", "out_terms"):
        out[f"rewrite.reduce.{stat}"] = (counts[f"rewrite.reduce.{stat}"], "count")
    out["rewrite.is_reduced_word.true_frac"] = (
        _ratio(counts["rewrite.is_reduced_word.true"], calls("rewrite.is_reduced_word")),
        "ratio",
    )
    out["rewrite.is_gsb.compositions"] = (counts["rewrite.is_gsb.compositions"], "count")
    out["rewrite.is_gsb.failed"] = (counts["rewrite.is_gsb.failed"], "count")
    out["linalg.rank.vectors"] = (counts["linalg.rank.vectors"], "count")
    out["hnn.validate.rejected"] = (counts["hnn.validate.rejected"], "count")
    out["cli.main.stdout_bytes"] = (counts["cli.main.stdout_bytes"], "bytes")
    return out
