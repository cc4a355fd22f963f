"""Metric definitions and the statistics the benchmark reports.

``METRICS`` is the single list of every metric the benchmark can print:
its unit, which direction is better, the workloads it applies to, whether
it comes from the untraced (``e2e``) or traced (``layer``) run, and which
end-to-end metric a per-layer metric should move.  ``gated`` marks the
metrics that apply to every workload; those are the ones listed in
``BENCHMARK.json`` and printed on the result line.  The rest are printed
as text lines and written to the results file.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass

from corpus import FAMILIES

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

ALL = ("solve-planted", "detect-merged", "feasibility")
SEARCHED = ("solve-planted", "feasibility")
PLANTED = ("solve-planted",)
FEASIBILITY = ("feasibility",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher", "lower" or "none"
    kind: str  # "e2e" (untraced run) or "layer" (traced run)
    workloads: tuple[str, ...]
    gated: bool
    doc: str
    bound: float | None = None  # share of the parent's median; e2e gated only
    moves: str = ""  # per-layer: the end-to-end metric it should move


def _e2e(name, unit, better, workloads, doc, bound=None):
    return Metric(name, unit, better, "e2e", workloads, bound is not None, doc, bound)


def _layer(name, unit, workloads, doc, moves="", gated=True, better=None):
    if better is None:  # times are better lower, rates higher
        better = "higher" if unit.endswith("/s") else "lower"
    return Metric(name, unit, better, "layer", workloads, gated, doc, None, moves)


_E2E = [
    _e2e("setup_s", "s", "lower", ALL,
         "median over the run's set-ups of corpus generation, merging and write_mps", 0.25),
    # The wall-time metrics below are printed but not gated.  On a 2-vCPU
    # Xeon virtual machine the host ran in fast and slow phases about 35%
    # apart, lasting from seconds to minutes, and in some ten-seed sets
    # their spread reached 0.26 (p50), 0.29 (tail) and 0.34 (rows_per_s,
    # nodes_per_s) of the median, wider than a 0.25 bound.
    _e2e("instance_s.p50", "s", "lower", ALL,
         "median over instances of the per-instance median pipeline wall time"),
    _e2e("instance_s.tail", "s", "lower", ALL,
         "pipeline wall time at the highest percentile with 10 instances beyond it"),
    _e2e("rows_per_s", "rows/s", "higher", ALL,
         "model rows through the pipeline per second of pipeline wall time"),
    _e2e("nodes_per_s", "nodes/s", "higher", ALL,
         "plugin dfs_solve nodes per second of dfs_solve wall time; on detect-merged "
         "each root fixpoint is one node (the work dfs_solve does at its root)"),
    _e2e("detect_recall", "ratio", "higher", ALL,
         "planted records recovered exactly by detect_all over records planted", 0.05),
    _e2e("peak_rss_mb", "MB", "lower", ALL, "peak resident set size of the process", 0.1),
    _e2e("solved_frac", "ratio", "higher", SEARCHED,
         "plugin searches ending optimal over searches attempted"),
    _e2e("speedup_nodes", "ratio", "higher", PLANTED,
         "baseline over plugin shifted geometric mean nodes (shift 100), commonly solved"),
    _e2e("speedup_time", "ratio", "higher", PLANTED,
         "baseline over plugin shifted geometric mean dfs_solve time (shift 1 s), commonly solved"),
    _e2e("oracle_s.p50", "s", "lower", FEASIBILITY,
         "median per-instance enumerate_feasible wall time over the planted scope"),
    _e2e("failed_frac", "ratio", "lower", ALL,
         "operations that raised or failed a correctness check over operations attempted"),
    _e2e("cpu_wall_ratio", "ratio", "none", ALL,
         "process CPU time over wall time of the timed pipelines (host health signal)"),
    _e2e("instance_s.tail_pct", "pct", "none", ALL, "percentile instance_s.tail is taken at"),
    _e2e("instance_s.samples", "count", "none", ALL, "instances behind instance_s.p50 and .tail"),
    _e2e("speedup.common", "count", "none", PLANTED,
         "instances both baseline and plugin solved, the base of the speedups"),
]

_DETECT_MOVES = (
    "rows_per_s, instance_s.*, detect_recall on detect-merged; not nodes_per_s on solve-planted"
)
_SEARCH_MOVES = "nodes_per_s, instance_s.*, speedup_time on solve-planted"
_RECORD_MOVES = "speedup_nodes, speedup_time on solve-planted"

_LAYER = [
    _layer("synth.generate_s", "s", ALL, "corpus generation inside one set-up", "setup_s"),
    _layer("mps.parse_s", "s", ALL, "parse_mps time per pass",
           "rows_per_s, instance_s.* on detect-merged; nothing on solve-planted"),
    _layer("mps.rows_per_s", "rows/s", ALL, "rows parsed per second of parse_mps",
           "rows_per_s, instance_s.* on detect-merged"),
    _layer("mps.write_s", "s", ALL, "write_mps time inside one set-up", "setup_s", gated=False),
    _layer("detect.detect_all_s", "s", ALL, "detect_all time per pass", _DETECT_MOVES),
    _layer("detect.scaling_exponent", "ratio", ALL,
           "least-squares slope of log detect_all time over log model rows", _DETECT_MOVES),
    _layer("detect.records", "count", ALL, "records kept by detect_all per pass", _DETECT_MOVES,
           better="higher"),
    _layer("detect.dropped", "count", ALL, "records dropped by row-claim arbitration per pass",
           _DETECT_MOVES),
]
for _family in FAMILIES:
    _LAYER.append(_layer(f"detect.family.{_family.value}_s", "s", ALL,
                         f"time in the {_family.value} detector inside detect_all per pass",
                         _DETECT_MOVES))
    _LAYER.append(_layer(f"detect.family.{_family.value}.found", "count", ALL,
                         f"{_family.value} records its detector returned per pass",
                         _DETECT_MOVES, better="higher"))
_LAYER += [
    _layer("propagate.root_rows_s", "s", ALL,
           "row fixpoints of root nodes per pass (the explicit root fixpoint on detect-merged)",
           "instance_s.* on detect-merged"),
    _layer("propagate.root_records_s", "s", ALL, "record fixpoints of root nodes per pass",
           "instance_s.* on detect-merged"),
    _layer("propagate.root_reductions", "count", ALL,
           "domain reductions made by root record fixpoints per pass",
           "instance_s.* on detect-merged", better="higher"),
]
for _family in FAMILIES:
    _LAYER.append(_layer(f"propagate.family.{_family.value}_s", "s", ALL,
                         f"propagate_record time on {_family.value} records per pass",
                         "instance_s.* on detect-merged", gated=False))
_LAYER += [
    _layer("search.solve_s.base", "s", PLANTED, "baseline dfs_solve time per pass",
           _SEARCH_MOVES, gated=False),
    _layer("search.solve_s.plug", "s", SEARCHED, "plugin dfs_solve time per pass",
           _SEARCH_MOVES, gated=False),
    _layer("search.nodes.base", "count", ALL, "baseline dfs_solve nodes per pass", _SEARCH_MOVES),
    _layer("search.nodes.plug", "count", ALL, "plugin dfs_solve nodes per pass", _SEARCH_MOVES),
    _layer("search.nodes_per_s.base", "nodes/s", ALL, "baseline nodes per second of dfs_solve",
           _SEARCH_MOVES),
    _layer("search.nodes_per_s.plug", "nodes/s", ALL, "plugin nodes per second of dfs_solve",
           _SEARCH_MOVES),
    _layer("search.self_s", "s", SEARCHED,
           "dfs_solve time outside its propagate spans: branching, box copies, unfixed scans",
           _SEARCH_MOVES, gated=False),
    _layer("search.self_share", "ratio", ALL, "search.self_s over dfs_solve time", _SEARCH_MOVES),
    _layer("search.rows_prop_s", "s", SEARCHED,
           "propagate_block_fixpoint time called from dfs_solve",
           "nodes_per_s on solve-planted and feasibility", gated=False),
    _layer("search.rows_prop_share", "ratio", ALL, "search.rows_prop_s over dfs_solve time",
           "nodes_per_s on solve-planted and feasibility"),
    _layer("search.records_prop_s", "s", SEARCHED, "run_fixpoint time called from dfs_solve",
           _RECORD_MOVES, gated=False),
    _layer("search.record_prop_share", "ratio", ALL, "search.records_prop_s over dfs_solve time",
           _RECORD_MOVES),
    _layer("search.handler_calls", "count", ALL, "record propagator calls in plugin searches",
           _RECORD_MOVES),
    _layer("search.domain_reductions", "count", ALL, "record propagator domain reductions",
           _RECORD_MOVES, better="higher"),
    _layer("search.cutoffs", "count", ALL, "record propagator cutoffs", _RECORD_MOVES,
           better="higher"),
    _layer("search.reductions_per_call", "ratio", ALL,
           "useful record propagator outcomes (reductions plus cutoffs) over calls",
           _RECORD_MOVES, better="higher"),
]
for _family in FAMILIES:
    _LAYER.append(_layer(f"search.reductions.{_family.value}", "count", ALL,
                         f"{_family.value} propagator reductions inside dfs_solve per pass",
                         _RECORD_MOVES, better="higher"))
    _LAYER.append(_layer(f"search.cutoffs.{_family.value}", "count", ALL,
                         f"{_family.value} propagator cutoffs inside dfs_solve per pass",
                         _RECORD_MOVES, better="higher"))
    _LAYER.append(_layer(f"search.node_ratio.{_family.value}", "ratio", PLANTED,
                         f"baseline over plugin shifted geometric mean nodes on {_family.value}",
                         _RECORD_MOVES, gated=False, better="higher"))
_LAYER += [
    _layer("verify.enumerate_s", "s", FEASIBILITY, "enumerate_feasible time per pass",
           "oracle_s.p50 on feasibility", gated=False),
    _layer("verify.enum_nodes", "count", ALL, "enumerate_feasible nodes per pass",
           "oracle_s.p50 on feasibility"),
    _layer("verify.enum_nodes_per_s", "nodes/s", ALL, "enumeration nodes per second",
           "oracle_s.p50 on feasibility"),
    _layer("verify.enum_truncated", "count", ALL, "enumerations stopped by their node cap",
           "oracle_s.p50 on feasibility"),
    _layer("bench.aggregate_s", "s", PLANTED,
           "bench.aggregate time per pass (it calls shifted_geometric_mean)", "nothing measurable",
           gated=False),
    _layer("trace.overhead_frac", "ratio", ALL,
           "traced over untraced operation time, the two run back to back, minus one", "nothing"),
]

METRICS: tuple[Metric, ...] = tuple(_E2E + _LAYER)
BY_NAME = {m.name: m for m in METRICS}


def gated(kind: str) -> list[Metric]:
    return [m for m in METRICS if m.kind == kind and m.gated]


def applicable(kind: str, workload: str) -> list[Metric]:
    return [m for m in METRICS if m.kind == kind and workload in m.workloads]


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile).  With fewer than 11 samples the maximum is
    returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) over log(x); 0 when x does not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
