"""In-memory spans around the calls that ssbrp's layers make into each other.

While installed, the tracer replaces the module attributes through which
one layer calls another (``ssbrp.search.construct_solution``,
``ssbrp.loading.linprog``, ...) with timing wrappers, and puts the originals
back when it is removed. ssbrp itself is not changed: ``run()`` is called
as it is and looks the wrapped functions up in its own module namespace.

A span is ``(id, parent, name, request, thread, start, end, attr)``. The
parent is the span open on the same thread when it started; a span that
starts on a worker thread of the search pool hangs below the ``search.run``
span of its ``run()`` call. ``request`` is the master seed of that call.
``attr`` is a size measured on the result after ``end``.

Self time is a span's duration minus the durations of its child spans,
except detail spans: those are nested inside ``construct_solution`` and
their time stays in its self time, so ``construct_solution.self_s`` keeps
its meaning if the functions they wrap are removed.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (module, attribute the caller looks up, span name)
BOUNDARIES = (
    ("ssbrp.instances", "check_instance", "model.check_instance"),
    ("ssbrp.search", "check_instance", "model.check_instance"),
    ("ssbrp.search", "construct_solution", "construction.construct_solution"),
    ("ssbrp.construction", "feasible_successors", "construction.feasible_successors"),
    ("ssbrp.construction", "select_next", "construction.select_next"),
    ("ssbrp.construction", "solution_from_plans", "model.solution_from_plans"),
    ("ssbrp.search", "reoptimize_solution", "loading.reoptimize_solution"),
    ("ssbrp.loading", "build_model", "loading.build_model"),
    ("ssbrp.loading", "solve_exact", "loading.solve_exact"),
    ("ssbrp.loading", "linprog", "loading.lp"),
    ("ssbrp.loading", "solution_from_plans", "model.solution_from_plans"),
)
DETAIL = frozenset({"construction.feasible_successors", "construction.select_next"})
RUN = "search.run"


def _model_size(model) -> tuple[int, int, int, int]:
    """Rows, columns, nonzeros and dense bytes of the constraint matrices."""
    a_ub, a_eq = model.a_ub, model.a_eq
    return (
        a_ub.shape[0] + a_eq.shape[0],
        model.n_vars,
        int(np.count_nonzero(a_ub) + np.count_nonzero(a_eq)),
        a_ub.nbytes + a_eq.nbytes,
    )


ATTRS = {
    "construction.feasible_successors": len,
    "construction.construct_solution": lambda s: sum(len(r.visits) for r in s.routes),
    "loading.build_model": _model_size,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._request = None
        self._root = None

    def _stack(self) -> list[int]:
        """Ids of the spans open on the calling thread, innermost last."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, root=False):
        measure = ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(span_id)
            if root:
                self._root = span_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    self._root = None
            attr = measure(result) if measure else None
            self.spans.append(
                (span_id, parent, name, self._request, threading.get_ident(), start, end, attr)
            )
            return result

        return traced

    def run(self, run, instance, config):
        """Call ``run(instance, config)`` inside a root span for its master seed."""
        self._request = config.master_seed
        try:
            return self._wrap(RUN, run, root=True)(instance, config)
        finally:
            self._request = None

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self seconds, and result sizes, by span name."""
        child_s: dict[int, float] = defaultdict(float)
        for span_id, parent, name, _, _, start, end, _ in self.spans:
            if parent is not None and name not in DETAIL:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for span_id, _, name, _, _, start, end, attr in self.spans:
            stat = out[name]
            stat.calls += 1
            stat.total_s += end - start
            stat.self_s += end - start - child_s[span_id]
            if attr is not None:
                stat.attrs.append(attr)
        return out

    def children_per_parent(self, child: str, parent: str) -> list[int]:
        """How many ``child`` spans each ``parent`` span holds, in parent order."""
        counts = {span[0]: 0 for span in self.spans if span[2] == parent}
        for span in self.spans:
            if span[2] == child and span[1] in counts:
                counts[span[1]] += 1
        return list(counts.values())

    def idle_s(self, busy: frozenset[str]) -> list[float]:
        """Per run() call: seconds in which no thread was inside a ``busy`` span.

        Intervals of ``busy`` spans directly below each ``search.run`` span
        are merged across threads, and their union is taken from the run's
        duration.
        """
        intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, name, _, _, start, end, _ in self.spans:
            if name in busy:
                intervals[parent].append((start, end))
        out = []
        for span_id, _, name, _, _, start, end, _ in self.spans:
            if name != RUN:
                continue
            covered = 0.0
            reach = start
            for lo, hi in sorted(intervals[span_id]):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
