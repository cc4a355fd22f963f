"""The three workloads: corpus, pipeline per operation, checks, metrics.

One operation is the user pipeline on one corpus instance:

* ``solve-planted``: MPS text -> parse_mps -> detect_all -> plugin
  dfs_solve.  A baseline dfs_solve (records=[]) follows outside the timed
  pipeline, for the paired speedups.
* ``detect-merged``: MPS text -> parse_mps -> detect_all -> one root
  fixpoint (rows, then records, as dfs_solve does at its root node).
* ``feasibility``: the ``solve-planted`` pipeline on models without an
  objective, then one enumerate_feasible over the planted record's scope.

Every search is bounded by nodes.  The time limit is far beyond any run,
so a search that stops on time is a failure, not a result.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from corpus import (
    FAMILIES,
    Block,
    Item,
    merged_corpus,
    single_block_corpus,
    to_item,
)
from metrics import loglog_slope, ratio, tail
from spans import PLAIN, SOLVE_BASE, SOLVE_PLUG, Layers, Tracer, traced_layers
from structprop.bench import NODE_SHIFT, TIME_SHIFT, BenchRun, shifted_geometric_mean
from structprop.model import FEAS_TOL, DomainBox
from structprop.propagate import PropagatorConfig, propagate_block_fixpoint
from structprop.records import records_equal
from structprop.search import SearchConfig

#: Far beyond the longest run, so only the node limit ever stops a search.
TIME_LIMIT_S = 3600.0
SETUP_REPEATS = 3
#: Small corpora set up in a tenth of a second, where host noise is large;
#: they repeat set-up until this much time is spent, for a steady median.
SETUP_MIN_S = 2.0

SOLVE_FACTORS = (2, 3)
SOLVE_REPLICAS = 4
SOLVE_NODE_LIMIT = 50

#: (blocks per family, models): about 0.2k, 0.9k and 3.4k rows.  Most
#: models are large, so the median and tail sit among the models the
#: workload is about; the small ones anchor detect.scaling_exponent.
MERGED_SIZES = ((1, 4), (4, 4), (16, 12))

FEAS_FACTOR = 2
FEAS_REPLICAS = 6
FEAS_NODE_LIMIT = 50
ENUM_CAP = 300


@dataclass
class Op:
    """Outcome of one operation on one instance."""

    item: Item
    wall: float = 0.0  # timed pipeline, wall clock
    cpu: float = 0.0  # timed pipeline, process CPU
    node_wall: float = 0.0  # plugin dfs_solve (root fixpoint on detect-merged)
    base_wall: float = 0.0  # baseline dfs_solve, outside the pipeline
    oracle_wall: float = 0.0  # enumerate_feasible, outside the pipeline
    counts: dict = field(default_factory=dict)  # must repeat exactly
    failures: list[str] = field(default_factory=list)
    runs: tuple[BenchRun, ...] = ()
    report: object = None  # DetectionReport


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Block]]
    run_op: Callable[[Item, Layers], Op]
    searched: bool
    paired: bool = False  # baseline searches too, for the speedups
    oracle: bool = False  # enumerate_feasible too


# ---------------------------------------------------------------------------
# checks


def _objective(model, incumbent) -> float:
    return sum(c * incumbent[v] for v, c in model.objective)


def _incumbent_consistent(model, incumbent) -> bool:
    box = DomainBox.from_model(model)
    for var, value in incumbent.items():
        box.fix(var, value)
    return not propagate_block_fixpoint(model.rows, box).cutoff


def _search_failures(model, item: Item, incumbent, stats, label: str, node_limit: int) -> list[str]:
    failures = []
    if stats.status == "infeasible":
        failures.append(f"{label}: planted-feasible instance reported infeasible")
    if stats.status == "limit" and stats.nodes < node_limit:
        failures.append(f"{label}: stopped on time after {stats.nodes} nodes")
    if stats.status == "optimal" and incumbent is None:
        failures.append(f"{label}: optimal without an incumbent")
    if incumbent is not None:
        if not _incumbent_consistent(model, incumbent):
            failures.append(f"{label}: incumbent cut off by the rows")
        if stats.status == "optimal" and item.witness_objective is not None:
            if _objective(model, incumbent) > item.witness_objective + FEAS_TOL:
                failures.append(f"{label}: optimum worse than the planted witness")
    return failures


def _recovered(report, item: Item) -> int:
    return sum(
        1 for truth in item.planted if any(records_equal(r, truth) for r in report.records)
    )


def _detect_counts(report, item: Item) -> dict:
    return {
        "recovered": _recovered(report, item),
        "planted": len(item.planted),
        "records": len(report.records),
        "dropped": len(report.dropped),
    }


def _search_counts(prefix: str, incumbent, stats, model) -> dict:
    counts = {
        f"{prefix}_status": stats.status,
        f"{prefix}_nodes": stats.nodes,
        f"{prefix}_calls": stats.handler_calls,
        f"{prefix}_reductions": stats.domain_reductions,
        f"{prefix}_cutoffs": stats.cutoffs,
    }
    if incumbent is not None and model.objective:
        counts[f"{prefix}_objective"] = _objective(model, incumbent)
    return counts


# ---------------------------------------------------------------------------
# pipelines


def _search_config(node_limit: int) -> SearchConfig:
    return SearchConfig(node_limit=node_limit, time_limit=TIME_LIMIT_S)


def solve_planted_op(item: Item, layers: Layers) -> Op:
    config = _search_config(SOLVE_NODE_LIMIT)
    op = Op(item)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    model = layers.parse_mps(item.mps)
    report = layers.detect_all(model)
    solve0 = time.perf_counter()
    incumbent, stats = layers.dfs_solve(model, list(report.records), config)
    end = time.perf_counter()
    op.cpu = time.process_time() - cpu0
    op.wall, op.node_wall = end - wall0, end - solve0
    base0 = time.perf_counter()
    base_incumbent, base_stats = layers.dfs_solve_base(model, [], config)
    op.base_wall = time.perf_counter() - base0

    op.report = report
    op.runs = (
        BenchRun.from_search(item.name, 0, "plugin", op.node_wall, stats),
        BenchRun.from_search(item.name, 0, "baseline", op.base_wall, base_stats),
    )
    op.counts = {
        **_detect_counts(report, item),
        **_search_counts("plug", incumbent, stats, model),
        **_search_counts("base", base_incumbent, base_stats, model),
    }
    op.failures = _search_failures(
        model, item, incumbent, stats, "plugin", SOLVE_NODE_LIMIT
    ) + _search_failures(model, item, base_incumbent, base_stats, "baseline", SOLVE_NODE_LIMIT)
    if stats.status == base_stats.status == "optimal":
        gap = abs(_objective(model, incumbent) - _objective(model, base_incumbent))
        if gap > FEAS_TOL:
            op.failures.append(f"plugin and baseline optima differ by {gap}")
    return op


def root_fixpoint(layers: Layers, model, records, box: DomainBox) -> tuple[bool, int]:
    """dfs_solve's root-node loop; returns (cutoff, record reductions)."""
    config = PropagatorConfig()
    reductions = 0
    for _ in range(config.max_fixpoint_rounds):
        if layers.rows_fixpoint(model.rows, box, config).cutoff:
            return True, reductions
        if not records:
            break
        out = layers.records_fixpoint(model, records, box, config)
        reductions += out.domain_reductions
        if out.cutoff:
            return True, reductions
        if not out.bound_changes:
            break
    return False, reductions


def detect_merged_op(item: Item, layers: Layers) -> Op:
    op = Op(item)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    model = layers.parse_mps(item.mps)
    report = layers.detect_all(model)
    box = DomainBox.from_model(model)
    fix0 = time.perf_counter()
    cutoff, reductions = root_fixpoint(layers, model, list(report.records), box)
    end = time.perf_counter()
    op.cpu = time.process_time() - cpu0
    op.wall, op.node_wall = end - wall0, end - fix0

    op.report = report
    op.counts = {
        **_detect_counts(report, item),
        "root_cutoff": cutoff,
        "root_reductions": reductions,
        "plug_nodes": 1,
    }
    if cutoff:
        op.failures.append("root fixpoint cut off a planted-feasible model")
    elif not box.contains(item.witness):
        op.failures.append("root fixpoint excluded the planted witness")
    return op


def feasibility_op(item: Item, layers: Layers) -> Op:
    config = _search_config(FEAS_NODE_LIMIT)
    op = Op(item)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    model = layers.parse_mps(item.mps)
    report = layers.detect_all(model)
    solve0 = time.perf_counter()
    incumbent, stats = layers.dfs_solve(model, list(report.records), config)
    end = time.perf_counter()
    op.cpu = time.process_time() - cpu0
    op.wall, op.node_wall = end - wall0, end - solve0

    scope = item.planted[0].scope
    oracle0 = time.perf_counter()
    enum = layers.enumerate_feasible(model, scope, cap=ENUM_CAP)
    op.oracle_wall = time.perf_counter() - oracle0

    op.report = report
    op.counts = {
        **_detect_counts(report, item),
        **_search_counts("plug", incumbent, stats, model),
        "enum_nodes": enum.nodes_visited,
        "enum_truncated": enum.truncated,
        "enum_points": len(enum.feasible_points),
    }
    op.failures = _search_failures(model, item, incumbent, stats, "plugin", FEAS_NODE_LIMIT)
    if not enum.truncated:
        projection = tuple(int(round(item.witness[v])) for v in enum.scope_vars)
        if projection not in enum.feasible_points:
            op.failures.append("enumeration misses the planted witness")
    return op


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "solve-planted",
            "paired baseline/plugin DFS on single planted blocks of all 11 families at 2x/3x: "
            "search node loop and row tightening; parse and detect are small",
            lambda seed: single_block_corpus(
                seed, SOLVE_FACTORS, SOLVE_REPLICAS, objective=True
            ),
            solve_planted_op,
            searched=True,
            paired=True,
        ),
        Workload(
            "detect-merged",
            "disjoint unions of all-family blocks at 3 sizes over a 10x row range: "
            "parse, detection and one root fixpoint at scale; bypasses the search loop",
            lambda seed: merged_corpus(seed, MERGED_SIZES),
            detect_merged_op,
            searched=False,
        ),
        Workload(
            "feasibility",
            "2x blocks without objective searched with records, plus enumerate_feasible: "
            "no bound pruning, value branching and box copies in the oracle",
            lambda seed: single_block_corpus(
                seed, (FEAS_FACTOR,), FEAS_REPLICAS, objective=False
            ),
            feasibility_op,
            searched=True,
            oracle=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# running a workload


@dataclass
class Setup:
    items: list[Item]
    total_s: list[float]
    generate_s: list[float]
    write_s: list[float]
    identical: bool


def set_up(workload: Workload, seed: int) -> Setup:
    """Build the corpus several times; each build must be byte-identical."""
    setup = Setup([], [], [], [], True)
    while len(setup.total_s) < SETUP_REPEATS or sum(setup.total_s) < SETUP_MIN_S:
        start = time.perf_counter()
        blocks = workload.build(seed)
        generated = time.perf_counter()
        items = [to_item(block) for block in blocks]
        end = time.perf_counter()
        setup.total_s.append(end - start)
        setup.generate_s.append(generated - start)
        setup.write_s.append(end - generated)
        if setup.items and [i.mps for i in items] != [i.mps for i in setup.items]:
            setup.identical = False
        setup.items = items
    return setup


@dataclass
class PassLog:
    ops: list[Op]
    wall: float


def _run_op(workload: Workload, item: Item, layers: Layers) -> Op:
    if layers.tracer is not None:
        layers.tracer.begin("pipeline")
    try:
        return workload.run_op(item, layers)
    except Exception as exc:  # any failure is counted, never filtered out
        traceback.print_exc(file=sys.stderr)
        return Op(item, failures=[f"raised {type(exc).__name__}: {exc}"])
    finally:
        if layers.tracer is not None:
            layers.tracer.end()


def _run_pass(workload: Workload, items: list[Item], deadline: float | None) -> PassLog:
    """One untraced pass over the corpus, stopped early only past ``deadline``."""
    start = time.perf_counter()
    ops = []
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        ops.append(_run_op(workload, item, PLAIN))
    if workload.paired and len(ops) == len(items):
        _aggregate(ops, PLAIN)
    return PassLog(ops, time.perf_counter() - start)


def _run_paired_pass(workload: Workload, items: list[Item], tracer: Tracer):
    """Each operation untraced and traced back to back, in alternating order.

    Host speed drifts on the scale of seconds, so comparing whole untraced
    and traced passes would measure the drift; pairing each operation
    cancels it out of ``trace.overhead_frac``.  Returns the untraced and
    the traced pass, each with the summed time of its own operations.
    """
    plain, traced = PassLog([], 0.0), PassLog([], 0.0)
    for index, item in enumerate(items):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if with_trace:
                with traced_layers(tracer) as layers:
                    traced.ops.append(_run_op(workload, item, layers))
                traced.wall += time.perf_counter() - start
            else:
                plain.ops.append(_run_op(workload, item, PLAIN))
                plain.wall += time.perf_counter() - start
    if workload.paired:
        start = time.perf_counter()
        _aggregate(plain.ops, PLAIN)
        plain.wall += time.perf_counter() - start
        start = time.perf_counter()
        with traced_layers(tracer) as layers:
            _aggregate(traced.ops, layers)
        traced.wall += time.perf_counter() - start
    return plain, traced


def _aggregate(ops: list[Op], layers: Layers) -> None:
    """The bench layer: per-family tables over the pass's paired runs.

    Its output is not printed; the call is there so that its cost is part
    of every pass and shows in ``bench.aggregate_s``.
    """
    runs = [run for op in ops for run in op.runs]
    detections = {op.item.name: op.report for op in ops if op.report is not None}
    layers.aggregate(runs, detections)


@dataclass
class RunLog:
    workload: Workload
    setup: Setup
    passes: list[PassLog]  # untraced passes; the first is complete
    traced: list[PassLog] = field(default_factory=list)  # complete traced passes
    tracer: Tracer | None = None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> RunLog:
    """Set up, then measure for ``seconds``.

    Untraced: the first pass always completes; operations then continue
    in corpus order until the time is up.  Traced: paired passes (each
    operation untraced, then traced) while another one fits in the time
    left, and at least one.
    """
    setup = set_up(workload, seed)
    items = setup.items
    log = RunLog(workload, setup, [])
    deadline = time.perf_counter() + seconds
    if not trace:
        log.passes.append(_run_pass(workload, items, None))
        while time.perf_counter() < deadline:
            log.passes.append(_run_pass(workload, items, deadline))
        return log
    log.tracer = Tracer()
    last = 0.0
    while not log.traced or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        plain, traced = _run_paired_pass(workload, items, log.tracer)
        log.passes.append(plain)
        log.traced.append(traced)
        last = time.perf_counter() - started
    return log


# ---------------------------------------------------------------------------
# metrics


def check_repeats(log: RunLog) -> None:
    """A repeated operation must reproduce the first pass's counts."""
    first = {op.item.name: op.counts for op in log.passes[0].ops}
    for passlog in log.passes[1:] + log.traced:
        for op in passlog.ops:
            if not op.failures and op.counts != first[op.item.name]:
                op.failures.append("counts differ from the first pass: not deterministic")


def _per_item(log: RunLog, attr: str) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for passlog in log.passes:
        for op in passlog.ops:
            samples.setdefault(op.item.name, []).append(getattr(op, attr))
    return {name: statistics.median(values) for name, values in samples.items()}


def _sgm_ratio(base: list[float], plug: list[float], shift: float) -> float:
    if not base:
        return 0.0
    return ratio(shifted_geometric_mean(base, shift), shifted_geometric_mean(plug, shift))


def end_to_end(log: RunLog, peak_rss_mb: float) -> dict[str, float]:
    first = log.passes[0].ops
    counts = [op.counts for op in first]
    wall = _per_item(log, "wall")
    node_wall = _per_item(log, "node_wall")
    all_ops = [op for p in log.passes + log.traced for op in p.ops]
    attempted, failed = outcome(log)
    walls = list(wall.values())
    tail_value, tail_pct = tail(walls)
    out = {
        "setup_s": statistics.median(log.setup.total_s),
        "instance_s.p50": statistics.median(walls),
        "instance_s.tail": tail_value,
        "instance_s.tail_pct": tail_pct,
        "instance_s.samples": len(walls),
        "rows_per_s": ratio(sum(op.item.rows for op in first), sum(walls)),
        "nodes_per_s": ratio(sum(c.get("plug_nodes", 0) for c in counts), sum(node_wall.values())),
        "detect_recall": ratio(
            sum(c.get("recovered", 0) for c in counts), sum(len(op.item.planted) for op in first)
        ),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": ratio(failed, attempted),
        "cpu_wall_ratio": ratio(sum(op.cpu for op in all_ops), sum(op.wall for op in all_ops)),
    }
    if log.workload.searched:
        solved = sum(1 for c in counts if c.get("plug_status") == "optimal")
        out["solved_frac"] = ratio(solved, len(counts))
    if log.workload.paired:
        base_wall = _per_item(log, "base_wall")
        common = [
            op for op in first
            if op.counts.get("plug_status") == op.counts.get("base_status") == "optimal"
        ]
        out["speedup_nodes"] = _sgm_ratio(
            [op.counts["base_nodes"] for op in common],
            [op.counts["plug_nodes"] for op in common],
            NODE_SHIFT,
        )
        out["speedup_time"] = _sgm_ratio(
            [base_wall[op.item.name] for op in common],
            [node_wall[op.item.name] for op in common],
            TIME_SHIFT,
        )
        out["speedup.common"] = len(common)
    if log.workload.oracle:
        out["oracle_s.p50"] = statistics.median(_per_item(log, "oracle_wall").values())
    return out


def outcome(log: RunLog) -> tuple[int, int]:
    """(operations attempted, operations failed); set-up counts as one."""
    ops = [op for p in log.passes + log.traced for op in p.ops]
    attempted = len(ops) + 1
    failed = sum(1 for op in ops if op.failures) + (0 if log.setup.identical else 1)
    return attempted, failed


def failures(log: RunLog) -> list[str]:
    lines = [] if log.setup.identical else ["set-up: corpus MPS text differs between set-ups"]
    for p in log.passes + log.traced:
        for op in p.ops:
            lines.extend(f"{op.item.name}: {msg}" for msg in op.failures)
    return lines


def per_layer(log: RunLog) -> dict[str, float]:
    tracer = log.tracer
    passes = len(log.traced)
    first = log.traced[0].ops
    counts = [op.counts for op in first]

    def per_pass(value: float) -> float:
        return value / passes

    def count(key: str) -> float:
        return sum(c.get(key, 0) for c in counts)

    rows_total = sum(op.item.rows for op in first)
    solve_plug = per_pass(tracer.total(SOLVE_PLUG))
    solve_base = per_pass(tracer.total(SOLVE_BASE))
    solve_all = solve_plug + solve_base
    rows_prop = per_pass(
        sum(tracer.total(n, p) for n in ("propagate.rows", "propagate.rows.root")
            for p in (SOLVE_PLUG, SOLVE_BASE))
    )
    records_prop = per_pass(
        sum(tracer.total(n, SOLVE_PLUG) for n in ("propagate.records", "propagate.records.root"))
    )
    search_self = per_pass(tracer.self_time(SOLVE_PLUG) + tracer.self_time(SOLVE_BASE))
    parse_s = per_pass(tracer.total("mps.parse"))
    enumerate_s = per_pass(tracer.total("verify.enumerate"))
    calls = count("plug_calls")
    untraced = sum(p.wall for p in log.passes)
    traced = sum(p.wall for p in log.traced)

    out = {
        "synth.generate_s": statistics.median(log.setup.generate_s),
        "mps.write_s": statistics.median(log.setup.write_s),
        "mps.parse_s": parse_s,
        "mps.rows_per_s": ratio(rows_total, parse_s),
        "detect.detect_all_s": per_pass(tracer.total("detect.detect_all")),
        "detect.scaling_exponent": loglog_slope(tracer.points),
        "detect.records": count("records"),
        "detect.dropped": count("dropped"),
        "propagate.root_rows_s": per_pass(tracer.total("propagate.rows.root")),
        "propagate.root_records_s": per_pass(tracer.total("propagate.records.root")),
        "propagate.root_reductions": per_pass(tracer.counters.get("propagate.root_reductions", 0)),
        "search.nodes.base": count("base_nodes"),
        "search.nodes.plug": count("plug_nodes") if log.workload.searched else 0,
        "search.nodes_per_s.base": ratio(count("base_nodes"), solve_base),
        "search.nodes_per_s.plug": ratio(count("plug_nodes"), solve_plug),
        "search.self_share": ratio(search_self, solve_all),
        "search.rows_prop_share": ratio(rows_prop, solve_all),
        "search.record_prop_share": ratio(records_prop, solve_all),
        "search.handler_calls": calls,
        "search.domain_reductions": count("plug_reductions"),
        "search.cutoffs": count("plug_cutoffs"),
        "search.reductions_per_call": ratio(
            count("plug_reductions") + count("plug_cutoffs"), calls
        ),
        "verify.enum_nodes": count("enum_nodes"),
        "verify.enum_nodes_per_s": ratio(count("enum_nodes"), enumerate_s),
        "verify.enum_truncated": count("enum_truncated"),
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    for family in FAMILIES:
        f = family.value
        out[f"detect.family.{f}_s"] = per_pass(tracer.total(f"detect.family.{f}"))
        out[f"detect.family.{f}.found"] = per_pass(
            tracer.counters.get(f"detect.family.{f}.found", 0)
        )
        out[f"propagate.family.{f}_s"] = per_pass(tracer.total(f"propagate.family.{f}"))
        out[f"search.reductions.{f}"] = per_pass(tracer.counters.get(f"search.reductions.{f}", 0))
        out[f"search.cutoffs.{f}"] = per_pass(tracer.counters.get(f"search.cutoffs.{f}", 0))
    if log.workload.searched:
        out["search.solve_s.plug"] = solve_plug
        out["search.self_s"] = search_self
        out["search.rows_prop_s"] = rows_prop
        out["search.records_prop_s"] = records_prop
    if log.workload.paired:
        out["search.solve_s.base"] = solve_base
        out["bench.aggregate_s"] = per_pass(tracer.total("bench.aggregate"))
        for family in FAMILIES:
            mine = [
                c for op, c in zip(first, counts)
                if op.item.family == family.value and "base_nodes" in c
            ]
            out[f"search.node_ratio.{family.value}"] = _sgm_ratio(
                [c["base_nodes"] for c in mine], [c["plug_nodes"] for c in mine], NODE_SHIFT
            )
    if log.workload.oracle:
        out["verify.enumerate_s"] = enumerate_s
    return out
