"""Span tracing of falabel's public functions from outside the package.

``Tracer.install`` replaces every public function bound in each falabel
module namespace (``falabel.cli.fit_fa_em``, ``falabel.label_model.fit_fa_em``,
...) with a wrapper that records a span: name, start, end, parent span and
command id.  Spans stay in memory until the run ends.  A span is named by
the module that defines the function, so a call through any namespace
lands on the same layer.  Per-call counts (iterations, rows, bytes) are
taken after the span closes, inside a ``trace.bookkeeping`` span, so their
cost never inflates a layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _values(matrix) -> np.ndarray:
    return getattr(matrix, "values", matrix)


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans: list[tuple] = []  # (name, start, end, parent index, command id)
        self.counts: dict[str, float] = defaultdict(float)
        self.command = ""
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._pattern_cache: dict[tuple, tuple[int, int]] = {}

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("falabel."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.command)
            if counter is not None:
                self.spans.append(None)
                index = len(self.spans) - 1
                counter(self, args, kwargs, result)
                self.spans[index] = (BOOKKEEPING, end, perf_counter(), parent, self.command)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------
    def count_rows(self, matrix, evaluations: int = 1) -> None:
        """Per-row evaluations attempted, and how many a pattern-deduplicated
        pass would need (distinct rows) and spend on all-abstain rows."""
        values = _values(matrix)
        key = (values.shape, hash(values.tobytes()))
        if key not in self._pattern_cache:
            distinct = len(np.unique(values, axis=0))
            all_abstain = int((values == -1).all(axis=1).sum())
            self._pattern_cache[key] = (distinct, all_abstain)
        distinct, all_abstain = self._pattern_cache[key]
        self.counts["rows.attempted"] += values.shape[0] * evaluations
        self.counts["rows.distinct"] += distinct * evaluations
        self.counts["rows.all_abstain"] += all_abstain * evaluations

    # -- aggregation ------------------------------------------------------
    def summary(self, first_span: int = 0) -> dict[str, dict[str, float]]:
        """Self time, inclusive time and call count per span name, over the
        spans recorded from ``first_span`` on."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
        for offset, (name, start, end, _, _) in enumerate(spans):
            entry = out[name]
            entry["incl"] += end - start
            entry["self"] += end - start - child_time[first_span + offset]
            entry["calls"] += 1
        return dict(out)

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "command": c}
            for n, s, e, p, c in self.spans
        ]


def _iterations(name, matrix_name):
    def count(tracer, args, kwargs, result):
        iterations = result[1].iterations
        tracer.counts[f"{name}.iterations"] += iterations
        tracer.count_rows(_arg(args, kwargs, 0, matrix_name), iterations)

    return count


def _rows(index, matrix_name):
    def count(tracer, args, kwargs, result):
        tracer.count_rows(_arg(args, kwargs, index, matrix_name))

    return count


def _load_bytes(tracer, args, kwargs, result):
    tracer.counts["labelling.load_label_matrix.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _lf_evals(tracer, args, kwargs, result):
    tracer.counts["labelling.apply_lfs.lf_evals"] += result.n * result.m


def _candidates(tracer, args, kwargs, result):
    scores = _arg(args, kwargs, 0, "scores")
    tracer.counts["label_model.youden_threshold.candidates"] += len(np.unique(scores)) + 1


def _cells(tracer, args, kwargs, result):
    tracer.counts["metrics_eval.robustness_sweep.cells"] += len(result.records)


COUNTERS = {
    "fa_core.fit_fa_em": _iterations("fa_core.fit_fa_em", "data"),
    "fa_core.fit_fa_vi": _iterations("fa_core.fit_fa_vi", "data"),
    "ci_baseline.fit_ci_em": _iterations("ci_baseline.fit_ci_em", "matrix"),
    "fa_core.posterior_moments": _rows(1, "data"),
    "ci_baseline.ci_posterior": _rows(1, "matrix"),
    "ci_baseline.majority_vote": _rows(0, "matrix"),
    "labelling.load_label_matrix": _load_bytes,
    "labelling.apply_lfs": _lf_evals,
    "label_model.youden_threshold": _candidates,
    "metrics_eval.robustness_sweep": _cells,
}
