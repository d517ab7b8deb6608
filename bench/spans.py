"""Span tracing of dhpp's layers, recorded from outside the program.

The benchmark opens a span around each public call it makes (parse, ground,
enumerate, check). `Tracer.install` also swaps wrappers in for the functions
the pipeline calls inside those, at the module attribute where the caller
looks them up, and `uninstall` puts the originals back. Spans stay in
memory, each with its parent's index; a span's self time is its duration
minus the durations of its children, so the self times of one round add up
exactly to the round's wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

# span name -> metric that accumulates the span's self time
SELF_TIME = {
    "parse_program": "parser.parse_s",
    "parse_classical": "classical.parse_s",
    "translate_dlp": "classical.translate_s",
    "ground_program": "grounder.index_s",
    "ground_rule": "grounder.instantiate_s",
    "enumerate_answer_sets": "solver.closure_s",
    "satisfies_program": "semantics.pmodel_s",
    "reduct": "semantics.reduct_s",
    "find_smaller_model": "solver.minimality_s",
    "value_lattice": "grounder.lattice_s",
    "build_multiset": "aggregates.eval_s",
    "eval_aggregate": "aggregates.eval_s",
    "is_answer_set": "solver.is_answer_set_s",
}
# span name -> metric that accumulates the span's whole duration
INCLUSIVE = {
    "ground_program": "grounder.ground_s",
    "enumerate_answer_sets": "solver.enumerate_s",
}
# span name -> metric that counts the spans
CALLS = {
    "satisfies_program": "semantics.pmodel_checks",
    "reduct": "semantics.reducts",
    "find_smaller_model": "solver.minimality_calls",
    "eval_aggregate": "aggregates.evals",
}

# the check phase reports the same hooks under this prefix
CHECK_METRICS = [
    "solver.is_answer_set_s",
    "semantics.pmodel_s",
    "semantics.pmodel_checks",
    "semantics.pmodel_rejects",
    "semantics.reduct_s",
    "semantics.reducts",
    "solver.minimality_s",
    "solver.minimality_calls",
    "solver.minimality_nodes",
    "solver.minimality_rejects",
    "aggregates.eval_s",
    "aggregates.evals",
    "grounder.lattice_s",
    "grounder.lattice_values",
    "strategies.fold_calls",
]

# every per-layer metric a traced run prints: (name, unit, better)
PER_LAYER = (
    [
        (name, "s" if name.endswith("_s") else "count", "lower")
        for name in [
            "parser.parse_s",
            "classical.parse_s",
            "classical.translate_s",
            "grounder.ground_s",
            "grounder.index_s",
            "grounder.instantiate_s",
            "grounder.rules",
            "grounder.formulae",
            "solver.enumerate_s",
            "solver.closure_s",
            "strategies.fold_calls",
            "solver.candidates_checked",
            "semantics.pmodel_s",
            "semantics.pmodel_checks",
            "semantics.pmodel_rejects",
            "solver.minimality_s",
            "solver.minimality_calls",
            "solver.minimality_nodes",
            "solver.minimality_rejects",
            "semantics.reduct_s",
            "semantics.reducts",
            "aggregates.eval_s",
            "aggregates.evals",
            "grounder.lattice_s",
            "grounder.lattice_values",
        ]
        + ["check." + name for name in CHECK_METRICS]
        + [
            "trace.wall_s",
            "trace.self_sum_s",
            "trace.glue_s",
            "trace.spans",
            "trace.solve_untraced_s",
            "trace.solve_traced_s",
            "trace.overhead_s",
        ]
    ]
    + [("solver.answer_sets", "count", "higher")]
)

# metrics that stay unmeasured when a hooked function has gone
HOOK_METRICS = {
    "satisfies_program": ["semantics.pmodel_s", "semantics.pmodel_checks",
                          "semantics.pmodel_rejects", "solver.candidates_checked"],
    "reduct": ["semantics.reduct_s", "semantics.reducts"],
    "find_smaller_model": ["solver.minimality_s", "solver.minimality_calls",
                           "solver.minimality_nodes", "solver.minimality_rejects"],
    "value_lattice": ["grounder.lattice_s", "grounder.lattice_values"],
    "ground_rule": ["grounder.instantiate_s"],
    "build_multiset": ["aggregates.eval_s"],
    "eval_aggregate": ["aggregates.eval_s", "aggregates.evals"],
    "compose_fold": ["strategies.fold_calls"],
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a round
    phase: str  # setup, solve or check
    start: int  # perf_counter_ns
    end: int = 0


def _observe_pmodel(tracer: "Tracer", report) -> None:
    if not report.satisfied:
        tracer.count("semantics.pmodel_rejects")


def _observe_minimality(tracer: "Tracer", result) -> None:
    witness, nodes = result
    tracer.count("solver.minimality_nodes", nodes)
    if witness is not None:
        tracer.count("solver.minimality_rejects")


def _observe_lattice(tracer: "Tracer", lattice) -> None:
    tracer.count("grounder.lattice_values", sum(len(v) for v in lattice.values()))


# (module, attribute path, observer of the result)
HOOKS = [
    ("dhpp.solver", "satisfies_program", _observe_pmodel),
    ("dhpp.solver", "reduct", None),
    ("dhpp.solver", "find_smaller_model", _observe_minimality),
    ("dhpp.grounder", "GroundProgram.value_lattice", _observe_lattice),
    ("dhpp.grounder", "ground_rule", None),
    ("dhpp.semantics", "build_multiset", None),
    ("dhpp.semantics", "eval_aggregate", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.phase = ""
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans and counts ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, self.phase, perf_counter_ns()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: int = 1) -> None:
        prefix = "check." if self.phase == "check" else ""
        self.counts[prefix + name] += n

    # -- hooks ----------------------------------------------------------------

    def _timed(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.count("strategies.fold_calls")
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every hooked function that exists; record the ones that do not."""
        self.absent = []
        for module_name, path, observe in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self._timed(attr, fn, observe))
        # compose_fold is counted at each module that imported it
        strategies = importlib.import_module("dhpp.strategies")
        fold = getattr(strategies, "compose_fold", None)
        sites = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("dhpp.") and module is not strategies
            and getattr(module, "compose_fold", None) is fold
        ]
        if fold is None or not sites:
            self.absent.append("dhpp.strategies.compose_fold")
            return
        for module in sites:
            self._patch(module, "compose_fold", self._counted(fold))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def unmeasured(self) -> set[str]:
        names = set()
        for hook in self.absent:
            for metric in HOOK_METRICS[hook.rsplit(".", 1)[1]]:
                names |= {metric, "check." + metric}
        return names

    # -- per-round metrics ----------------------------------------------------

    def round_metrics(self, first: int) -> dict[str, float]:
        """Per-layer figures of the round whose root span is spans[first]."""
        spans = self.spans[first:]
        self_ns = [s.end - s.start for s in spans]
        for s in spans[1:]:
            self_ns[s.parent - first] -= s.end - s.start
        out: Counter[str] = Counter()
        for s, own in zip(spans, self_ns):
            prefix = "check." if s.phase == "check" else ""
            if s.name in SELF_TIME:
                out[prefix + SELF_TIME[s.name]] += own / 1e9
            if s.name in INCLUSIVE:
                out[prefix + INCLUSIVE[s.name]] += (s.end - s.start) / 1e9
            if s.name in CALLS:
                out[prefix + CALLS[s.name]] += 1
            if s.name == "satisfies_program" and spans[s.parent - first].name == "enumerate_answer_sets":
                out["solver.candidates_checked"] += 1
        out.update(self.counts)
        out["trace.wall_s"] = (spans[0].end - spans[0].start) / 1e9
        out["trace.self_sum_s"] = sum(self_ns) / 1e9
        out["trace.glue_s"] = self_ns[0] / 1e9
        out["trace.spans"] = len(spans)
        if sum(self_ns) != spans[0].end - spans[0].start:
            raise AssertionError("span self times do not add up to the round's wall time")
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span: index, parent, name, phase, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps([i, s.parent, s.name, s.phase, s.start, s.end]) + "\n")
