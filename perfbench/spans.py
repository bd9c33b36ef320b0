"""Spans and counters recorded around calls into kleinian's public functions.

A span is (name, start, end, parent); the parent is the span that was
open when the call began, so nesting follows the call stack of the one
benchmark thread.  Spans and counts stay in memory until the benchmark
writes them out.  Layer calls made by the package itself are caught by
rebinding the module attribute the caller looks up (for example
``kleinian.semigroup.phi_map``), which leaves every file of the package
untouched; :meth:`Tracer.installed` restores the originals on exit.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): the module-level names through which one
# layer of the package calls another on the benchmarked paths
MODULE_BOUNDARIES = (
    ("kleinian.semigroup", "phi_map", "semigroup.phi_map"),
    ("kleinian.semigroup", "check_chain", "chains.check_chain"),
    ("kleinian.semigroup", "enumerate_ball", "orbit.enumerate_ball"),
    ("kleinian.semigroup", "orbit_distance", "orbit.orbit_distance"),
    ("kleinian.measure", "apex_products", "measure.apex_products"),
    ("kleinian.measure", "orbit_distance", "orbit.orbit_distance"),
    ("kleinian.orbit", "split_distance", "hyperbolic.split_distance"),
)


def _count_ball(tracer, args, kwargs, ball):
    tracer.count("orbit.rows", len(ball))
    tracer.count("orbit.members", ball.n_members)
    tracer.count("orbit.merged", ball.merged)


def _count_queries(tracer, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    tracer.count("orbit.query_points", len(np.atleast_2d(points)))


def _count_certified(tracer, args, kwargs, cert):
    tracer.count("chains.certified", int(bool(cert.ok)))


def _count_seed(tracer, args, kwargs, seed):
    tracer.count("semigroup.seed_candidates", seed.candidates)
    tracer.count("semigroup.seed_size", len(seed))


def _count_stage(tracer, args, kwargs, stage):
    tracer.count("semigroup.family_words", len(stage.truncated_F.words))


def _count_atoms(tracer, args, kwargs, atoms):
    tracer.count("measure.atoms", len(atoms))


def _count_deep(tracer, args, kwargs, query):
    certified = query.diagnostics.get("certified", 0)
    tracer.count("semigroup.deep_certified", certified)


# counters read off a call's arguments or result, keyed by span name
RESULT_COUNTERS = {
    "orbit.enumerate_ball": _count_ball,
    "orbit.orbit_distance": _count_queries,
    "chains.check_chain": _count_certified,
    "semigroup.seed": _count_seed,
    "semigroup.stage": _count_stage,
    "measure.ps_atoms": _count_atoms,
    "semigroup.deep_element": _count_deep,
}


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def installed(self):
        yield


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self._open: list = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _open_span(self, name):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close_span(self, record):
        record[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        record = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(record)

    def call(self, name, fn, *args, **kwargs):
        record = self._open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close_span(record)
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every module boundary to a traced wrapper for the block."""
        saved = []
        try:
            for module_name, attr, span_name in MODULE_BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a name
        nested inside itself is not counted twice.  Self time is a span's
        duration minus the durations of its direct children; spans of one
        thread nest, so the children cover disjoint parts of the parent.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            row["calls"] += 1
            row["self_seconds"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["seconds"] += end - start
        return out
