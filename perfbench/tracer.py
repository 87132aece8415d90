"""Span recording around the module-level names the package calls.

``degreesearch.experiment`` and ``degreesearch.cli`` look their
collaborators up as module globals at call time, so replacing those globals
with timing wrappers traces every layer boundary without touching the
package.  Spans stay in memory as ``[name, start, end, parent, attrs]``
(``parent`` is an index into the same list, -1 for a root) and are written
once, when the workload has finished.

Pool workers are forked from the traced process, so they inherit the
wrappers.  Each chunk a worker runs records into a fresh list that travels
back with the chunk's records and is adopted by the parent's tracer while
the result is unpickled.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# The tracer of this process; unpickling a worker's chunk result needs a
# module-level function to reach it.
_ACTIVE: "Tracer | None" = None


def build_views(g) -> None:
    """First access of the graph's derived views (built lazily, cached)."""
    g.degrees
    g.neighbor_sets
    g.neighbors_by_degree


class Tracer:
    def __init__(self, variants):
        """``variants``: ``(label, h, c)`` per plan variant, in plan order."""
        global _ACTIVE
        _ACTIVE = self
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.adopted: list[list[list]] = []
        self.variants = variants
        self._next_variant = 0
        self._variant = "?"
        # Graphs whose views were built, by id; holding them keeps ids unique.
        self._viewed: dict[int, object] = {}

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, attrs=None):
        """``fn`` timed as span ``name``; ``attrs(result, *args)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs is not None:
                self.spans[i][4] = attrs(result, *args)
            return result

        return traced

    def ensure_views(self, g) -> None:
        """Build the graph's views once per process, as their own span."""
        if id(g) in self._viewed:
            return
        self._viewed[id(g)] = g
        i = self.open("graphs.views")
        try:
            build_views(g)
        finally:
            self.close(i)

    # The harness calls the oracle once per pair, then walks every variant
    # in plan order.  Walks are attributed to variants by that order; the
    # runner cross-checks the attributed step counts against searches.csv.
    def _pair_started(self, result, *args):
        self._next_variant = 0

    def _walk_attrs(self, trace, g, s, t, cfg):
        label = "?"
        if self._next_variant < len(self.variants):
            label, h, c = self.variants[self._next_variant]
            if (h, c) != (cfg.visibility_h, cfg.consult_budget_c):
                label = "?"
        self._next_variant += 1
        self._variant = label
        return {
            "v": label,
            "steps": trace.walk_steps,
            "consults": trace.consults,
            "found": trace.found_via is not None,
        }

    def _route_attrs(self, route, *args):
        return {"v": self._variant, "len": route.length}

    def _refine_attrs(self, res, *args):
        return {"v": self._variant, "route": res.original.length, "refined": res.refined.length}

    def traced_search(self, fn):
        walk = self.wrap("search.walk", fn, self._walk_attrs)

        @functools.wraps(fn)
        def search(g, *args, **kwargs):
            self.ensure_views(g)
            return walk(g, *args, **kwargs)

        return search

    def install_experiment(self, experiment) -> None:
        """Wrap the per-search layers as ``degreesearch.experiment`` sees them."""
        experiment.pair_distance = self.wrap("graphs.oracle", experiment.pair_distance, self._pair_started)
        experiment.run_search = self.traced_search(experiment.run_search)
        experiment.materialize_route = self.wrap(
            "search.materialize", experiment.materialize_route, self._route_attrs
        )
        experiment.refine_route = self.wrap("refine", experiment.refine_route, self._refine_attrs)
        experiment.sample_pairs = self.wrap("experiment.sample", experiment.sample_pairs)
        chunk = getattr(experiment, "_run_chunk_in_worker", None)
        if chunk is not None:
            experiment._run_chunk_in_worker = self.traced_chunk(chunk)

    def traced_chunk(self, fn):
        @functools.wraps(fn)
        def chunk(task):
            outer = self.spans, self.stack
            self.spans, self.stack = [], []
            try:
                i = self.open("experiment.chunk")
                records = fn(task)
                self.close(i)
                return _ChunkRecords(records, self.spans)
            finally:
                self.spans, self.stack = outer

        return chunk

    def dump(self, path) -> list[list]:
        """Write every span, the workers' included, to ``path``; return them."""
        spans = list(self.spans)
        for chunk in self.adopted:
            base = len(spans)
            for name, start, end, parent, attrs in chunk:
                spans.append([name, start, end, parent + base if parent >= 0 else -1, attrs])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))
        return spans


class _ChunkRecords(list):
    """A worker's chunk result carrying the spans recorded while making it."""

    def __init__(self, records, spans):
        super().__init__(records)
        self.spans = spans

    def __reduce__(self):
        return _adopt_chunk, (list(self), self.spans)


def _adopt_chunk(records, spans):
    # Runs in the parent's result thread; list.append is atomic there.
    _ACTIVE.adopted.append(spans)
    return records
