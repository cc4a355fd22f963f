"""Spans around the calls each structprop layer makes into the next.

Spans are recorded from the benchmark's side only: the benchmark calls the
public layer functions through a :class:`Layers` table, and while tracing
it swaps wrapped versions into the module attributes through which one
layer reaches the next (``search`` -> ``propagate``, ``run_fixpoint`` ->
``propagate_record``, ``detect_all`` -> each family detector).  Nothing in
``src/`` changes; the originals are restored on exit.

Spans are aggregated in memory by (parent, name) as they close: count,
total time and self time (total minus the time covered by child spans).
A child whose time exceeds its parent's is counted in ``nest_violations``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import structprop.detect.engine as detect_engine
import structprop.propagate as propagate_mod
import structprop.search as search_mod
from structprop.bench import aggregate
from structprop.detect import detect_all
from structprop.mps import parse_mps
from structprop.propagate import propagate_block_fixpoint, run_fixpoint
from structprop.search import dfs_solve
from structprop.verify import enumerate_feasible

ROOT = "op"
SOLVE_PLUG = "search.dfs_solve.plug"
SOLVE_BASE = "search.dfs_solve.base"


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    spans: dict[tuple[str, str], SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    nest_violations: int = 0
    _stack: list[list] = field(default_factory=list)
    points: list[tuple[int, float]] = field(default_factory=list)  # (rows, detect_all s)
    # bookkeeping for the dfs_solve span currently open
    in_search: bool = False
    in_root: bool = False
    root_has_records: bool = False

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if child > duration:
            self.nest_violations += 1
        parent = self._stack[-1][0] if self._stack else ROOT
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.spans.get((parent, name))
        if stats is None:
            stats = self.spans[(parent, name)] = SpanStats()
        stats.count += 1
        stats.total += duration
        stats.self_time += duration - child
        return duration

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(
            s.total for (p, n), s in self.spans.items() if n == name and parent in (None, p)
        )

    def self_time(self, name: str) -> float:
        return sum(s.self_time for (_, n), s in self.spans.items() if n == name)


@dataclass(frozen=True)
class Layers:
    """The public layer functions the pipelines call, plain or traced."""

    parse_mps: object = parse_mps
    detect_all: object = detect_all
    dfs_solve: object = dfs_solve  # plugin searches
    dfs_solve_base: object = dfs_solve  # baseline searches, records=[]
    rows_fixpoint: object = propagate_block_fixpoint
    records_fixpoint: object = run_fixpoint
    enumerate_feasible: object = enumerate_feasible
    aggregate: object = aggregate
    tracer: Tracer | None = None


PLAIN = Layers()


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


@contextmanager
def traced_layers(tracer: Tracer):
    """Yield a traced :class:`Layers`; patch inter-layer calls meanwhile.

    Root spans follow ``dfs_solve``'s own root-node loop: row fixpoints and
    record fixpoints alternate until the records change nothing or either
    side cuts off, and with no records the first row fixpoint is the root.
    """

    def rows(rows_, box, config=None):
        name = "propagate.rows.root" if tracer.in_root else "propagate.rows"
        tracer.begin(name)
        try:
            out = propagate_block_fixpoint(rows_, box, config)
        finally:
            tracer.end()
        if out.cutoff or not tracer.root_has_records:
            tracer.in_root = False
        return out

    def records(model, records_, box, config=None):
        name = "propagate.records.root" if tracer.in_root else "propagate.records"
        tracer.begin(name)
        try:
            out = run_fixpoint(model, records_, box, config)
        finally:
            tracer.end()
        if tracer.in_root:
            tracer.add("propagate.root_reductions", out.domain_reductions)
            if out.cutoff or not out.bound_changes:
                tracer.in_root = False
        return out

    def record(model, record_, box, config=None):
        family = record_.family.value
        tracer.begin(f"propagate.family.{family}")
        try:
            out = original_record(model, record_, box, config)
        finally:
            tracer.end()
        tracer.add(f"propagate.calls.{family}")
        if tracer.in_search:
            tracer.add(f"search.reductions.{family}", out.domain_reductions)
            tracer.add(f"search.cutoffs.{family}", out.cutoffs)
        return out

    def solver(name):
        def solve(model, records_, config=None):
            tracer.in_root = tracer.in_search = True
            tracer.root_has_records = bool(records_)
            tracer.begin(name)
            try:
                return dfs_solve(model, records_, config)
            finally:
                tracer.end()
                tracer.in_root = tracer.in_search = False

        return solve

    def detect(model, config=None):
        tracer.begin("detect.detect_all")
        try:
            return detect_all(model, config)
        finally:
            tracer.points.append((len(model.rows), tracer.end()))

    def detector(family, fn):
        def wrapper(view, config):
            tracer.begin(f"detect.family.{family.value}")
            try:
                found = fn(view, config)
            finally:
                tracer.end()
            tracer.add(f"detect.family.{family.value}.found", len(found))
            return found

        return wrapper

    def root_rows(rows_, box, config=None):
        tracer.in_root = True
        tracer.root_has_records = True
        return rows(rows_, box, config)

    original_record = propagate_mod.propagate_record
    original_detectors = dict(detect_engine.DETECTORS)
    search_mod.propagate_block_fixpoint = rows
    search_mod.run_fixpoint = records
    propagate_mod.propagate_record = record
    for family, fn in original_detectors.items():
        detect_engine.DETECTORS[family] = detector(family, fn)
    try:
        yield Layers(
            parse_mps=_timed(tracer, "mps.parse", parse_mps),
            detect_all=detect,
            dfs_solve=solver(SOLVE_PLUG),
            dfs_solve_base=solver(SOLVE_BASE),
            rows_fixpoint=root_rows,
            records_fixpoint=records,
            enumerate_feasible=_timed(tracer, "verify.enumerate", enumerate_feasible),
            aggregate=_timed(tracer, "bench.aggregate", aggregate),
            tracer=tracer,
        )
    finally:
        search_mod.propagate_block_fixpoint = propagate_block_fixpoint
        search_mod.run_fixpoint = run_fixpoint
        propagate_mod.propagate_record = original_record
        detect_engine.DETECTORS.update(original_detectors)
        tracer.in_root = tracer.in_search = False
