"""Spans around the calls the benchmark makes into each omstirap layer.

The wrappers are installed from here, by replacing the names the package's
own modules look up (``protocols.evolve``, ``cli.run_scenario``, ...) for the
length of one traced batch; nothing under ``src/`` changes.  Spans stay in
memory and are written when the run ends.  H(t) is called tens of thousands
of times per batch, so it gets a counter and a time total instead of spans.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

#: the package functions the observables pass consists of
ANALYSIS_FUNCTIONS = ("partial_trace", "negativity", "fidelity", "collective_populations")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or None, op]
        self._open = []
        self.op = None
        self.h_calls = 0
        self.h_seconds = 0.0
        self.pictures = Counter()
        self.sweep_cells = 0
        self.sweep_failed = 0
        self.missing = []

    def _begin(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, outermost: bool = False):
        """Span every call of ``fn``.  With ``outermost``, a call made inside a
        span of the same layer gets none, so that an analysis function
        calling another is counted once."""
        layer = name.split(".")[0] + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self._open and self.spans[self._open[-1]][0].startswith(layer):
                return fn(*args, **kwargs)
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return traced

    def run_op(self, op: str, fn, *args):
        self.op = op
        return self.wrap("cli.main", fn)(*args)

    def _builder(self, builder):
        @functools.wraps(builder)
        def traced_builder(spec):
            h = builder(spec)

            def traced_h(t):
                t0 = time.perf_counter()
                try:
                    return h(t)
                finally:
                    self.h_seconds += time.perf_counter() - t0
                    self.h_calls += 1

            return traced_h

        return traced_builder

    def _picker(self, pick):
        @functools.wraps(pick)
        def traced_pick(scenario):
            picture = pick(scenario)
            self.pictures[picture] += 1
            return picture

        return traced_pick

    def _sweeper(self, run_sweep):
        traced = self.wrap("sweep.run_sweep", run_sweep)

        @functools.wraps(run_sweep)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.sweep_cells += math.prod(len(axis.values) for axis in result.axes)
            self.sweep_failed += len(result.failures)
            return result

        return counted

    @contextmanager
    def installed(self):
        """Wrap the package's functions for the length of the block.  A name
        the package no longer has is listed in ``self.missing`` and left
        alone; its metrics then read 0."""
        from omstirap import analysis, cli, protocols, sweep

        def span(name, outermost=False):
            return lambda fn: self.wrap(name, fn, outermost)

        targets = [
            (protocols, "hamiltonian_builder", self._builder),
            (protocols, "evolve", span("dynamics.evolve")),
            (protocols, "evolve_pure", span("dynamics.evolve")),
            (protocols, "expectation", span("analysis.expectation", outermost=True)),
            (cli, "run_scenario", span("protocols.run_scenario")),
            (sweep, "run_scenario", span("protocols.run_scenario")),
            (sweep, "pick_picture", self._picker),
            (cli, "run_sweep", self._sweeper),
            (cli, "load_config", span("cli.load_config")),
            (cli, "build_scenario", span("cli.build_scenario")),
        ]
        targets += [(analysis, f, span(f"analysis.{f}", outermost=True))
                    for f in ANALYSIS_FUNCTIONS]
        saved = []
        for module, attr, make_wrapper in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def span_records(self) -> list:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, span)) for span in self.spans]

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced batch, keyed as in BENCHMARK.json."""
        child_time = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        def total(pred):
            return sum(end - start for name, start, end, _, _ in self.spans if pred(name))

        def self_time(span_name):
            return sum(end - start - child_time[i]
                       for i, (name, start, end, _, _) in enumerate(self.spans)
                       if name == span_name)

        evolve_runs = sum(1 for span in self.spans if span[0] == "dynamics.evolve")
        evolve_s = total(lambda n: n == "dynamics.evolve")
        # per op: a sweep cell in sweep-mixed, a scenario in the others
        scenarios = [end - start for name, start, end, _, _ in self.spans
                     if name == "protocols.run_scenario"]
        h_calls = self.h_calls
        return {
            "model.h_evals": h_calls,
            "model.h_s": self.h_seconds,
            "model.h_us": 1e6 * self.h_seconds / h_calls if h_calls else 0.0,
            "dynamics.runs": evolve_runs,
            "dynamics.evolve_s": evolve_s,
            "dynamics.self_s": evolve_s - self.h_seconds,
            "dynamics.rhs_us": 1e6 * (evolve_s - self.h_seconds) / h_calls if h_calls else 0.0,
            # DP45: 2 rhs calls for the initial step, 6 per attempted step
            "dynamics.rk_attempts": (h_calls - 2 * evolve_runs) / 6,
            "analysis.s": total(lambda n: n.startswith("analysis.")),
            "analysis.calls": sum(1 for span in self.spans if span[0].startswith("analysis.")),
            "protocols.run_scenario_s": sum(scenarios),
            "protocols.self_s": self_time("protocols.run_scenario"),
            "sweep.cells": self.sweep_cells,
            "sweep.cells_failed": self.sweep_failed,
            "sweep.cells_rwa": self.pictures["rwa"],
            "sweep.cells_bs": self.pictures["bs"],
            "sweep.cells_full": self.pictures["full"],
            "sweep.cell_p50_s": statistics.median(scenarios) if scenarios else 0.0,
            "sweep.cell_max_s": max(scenarios, default=0.0),
            "cli.config_s": total(lambda n: n in ("cli.load_config", "cli.build_scenario")),
            "cli.write_s": self_time("cli.main"),
        }
