"""Batch evaluation: paired baseline/plugin searches over an instance set.

A benchmark run parses every MPS file in a directory, detects structure,
then solves each instance twice with the same search configuration: once
with no records (baseline, row reasoning only) and once with the detected
records driving propagation (plugin).  Aggregation produces three tables
per family: coverage (who solved what, among instances where the family
was detected), performance over the commonly solved set (shifted
geometric means, speedup ratios, strict-win counts), and propagation
diagnostics from the plugin runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .detect import DetectionReport, detect_all
from .records import Family
from .search import SearchConfig, SearchStats, dfs_solve

__all__ = [
    "BenchReport",
    "BenchRun",
    "aggregate",
    "run_benchmark",
    "shifted_geometric_mean",
    "write_report",
]

log = logging.getLogger(__name__)

TIME_SHIFT = 1.0
NODE_SHIFT = 100.0
DIAG_SHIFT = 1.0

COVERAGE_COLUMNS = (
    "Detected",
    "Baseline",
    "Plugin",
    "Common",
    "Baseline only",
    "Plugin only",
)
PERFORMANCE_COLUMNS = (
    "T_base",
    "T_plug",
    "N_base",
    "N_plug",
    "T speedup",
    "N speedup",
    "#T_speedup",
    "#N_speedup",
)
DIAGNOSTIC_COLUMNS = (
    "Calls",
    "Domain red.",
    "Cutoffs",
    "Prop. time (s)",
    "Zero-reduction runs",
)


@dataclass(frozen=True, slots=True)
class BenchRun:
    instance: str
    seed: int
    label: str  # "baseline" or "plugin"
    status: str
    wall_time: float
    nodes: int
    calls: int
    domain_reductions: int
    cutoffs: int
    prop_time: float
    cpu_time: float = 0.0  # process CPU seconds of the search, next to wall_time

    @classmethod
    def from_search(
        cls, instance, seed, label, wall_time, stats: SearchStats, cpu_time: float = 0.0
    ):
        return cls(
            instance=instance,
            seed=seed,
            label=label,
            status=stats.status,
            wall_time=wall_time,
            nodes=stats.nodes,
            calls=stats.handler_calls,
            domain_reductions=stats.domain_reductions,
            cutoffs=stats.cutoffs,
            prop_time=stats.prop_time,
            cpu_time=cpu_time,
        )

    @property
    def solved(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class BenchReport:
    coverage: dict[str, dict[str, int]]
    performance: dict[str, dict[str, float | int | None]]
    diagnostics: dict[str, dict[str, float | int | None]]
    runs: tuple[BenchRun, ...] = ()
    skipped: tuple[str, ...] = ()


def shifted_geometric_mean(values: Sequence[float], shift: float) -> float:
    """``(prod(x_i + s))**(1/n) - s`` computed in log space."""
    if not values:
        raise ValueError("shifted geometric mean needs at least one value")
    if shift <= 0:
        raise ValueError("shift must be positive")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    mean_log = sum(math.log(v + shift) for v in values) / len(values)
    return math.exp(mean_log) - shift


def _pair_runs(runs: Iterable[BenchRun]) -> dict[tuple[str, int], dict[str, BenchRun]]:
    pairs: dict[tuple[str, int], dict[str, BenchRun]] = {}
    for run in runs:
        slot = pairs.setdefault((run.instance, run.seed), {})
        if run.label in slot:
            raise ValueError(
                f"duplicate {run.label} run for {run.instance} seed {run.seed}"
            )
        slot[run.label] = run
    orphans = sorted(
        f"{name} seed {seed} ({next(iter(slot))} only)"
        for (name, seed), slot in pairs.items()
        if set(slot) != {"baseline", "plugin"}
    )
    if orphans:
        raise ValueError("unpaired runs: " + "; ".join(orphans))
    return pairs


def aggregate(
    runs: Sequence[BenchRun],
    detections: Mapping[str, DetectionReport],
) -> BenchReport:
    """Reduce paired runs into per-family coverage/performance/diagnostics.

    An instance counts as detected for a family when the instance's
    detection report kept at least one record of it, however many records
    that was.  Performance statistics cover only the commonly solved
    detected instances; a family with no such instances gets absent cells.
    """
    pairs = _pair_runs(runs)
    found = {name: report.family_counts.keys() for name, report in detections.items()}
    families = sorted({fam for fams in found.values() for fam in fams})
    coverage: dict[str, dict[str, int]] = {}
    performance: dict[str, dict[str, float | int | None]] = {}
    diagnostics: dict[str, dict[str, float | int | None]] = {}
    for fam in families:
        detected = [
            slot
            for (name, _), slot in sorted(pairs.items())
            if name in found and fam in found[name]
        ]
        base_solved = [s for s in detected if s["baseline"].solved]
        plug_solved = [s for s in detected if s["plugin"].solved]
        common = [s for s in detected if s["baseline"].solved and s["plugin"].solved]
        coverage[fam] = {
            "Detected": len(detected),
            "Baseline": len(base_solved),
            "Plugin": len(plug_solved),
            "Common": len(common),
            "Baseline only": len(base_solved) - len(common),
            "Plugin only": len(plug_solved) - len(common),
        }
        if common:
            t_base = shifted_geometric_mean(
                [s["baseline"].wall_time for s in common], TIME_SHIFT
            )
            t_plug = shifted_geometric_mean(
                [s["plugin"].wall_time for s in common], TIME_SHIFT
            )
            n_base = shifted_geometric_mean(
                [s["baseline"].nodes for s in common], NODE_SHIFT
            )
            n_plug = shifted_geometric_mean(
                [s["plugin"].nodes for s in common], NODE_SHIFT
            )
            performance[fam] = {
                "T_base": t_base,
                "T_plug": t_plug,
                "N_base": n_base,
                "N_plug": n_plug,
                "T speedup": t_base / t_plug if t_plug > 0 else None,
                "N speedup": n_base / n_plug if n_plug > 0 else None,
                "#T_speedup": sum(
                    1 for s in common if s["plugin"].wall_time < s["baseline"].wall_time
                ),
                "#N_speedup": sum(
                    1 for s in common if s["plugin"].nodes < s["baseline"].nodes
                ),
            }
        else:
            performance[fam] = {column: None for column in PERFORMANCE_COLUMNS}
        plugin_runs = [s["plugin"] for s in detected]
        reduced = [r.domain_reductions for r in plugin_runs if r.domain_reductions > 0]
        diagnostics[fam] = {
            "Calls": shifted_geometric_mean([r.calls for r in plugin_runs], DIAG_SHIFT)
            if plugin_runs
            else None,
            "Domain red.": shifted_geometric_mean(reduced, DIAG_SHIFT)
            if reduced
            else None,
            "Cutoffs": shifted_geometric_mean(
                [r.cutoffs for r in plugin_runs], DIAG_SHIFT
            )
            if plugin_runs
            else None,
            "Prop. time (s)": shifted_geometric_mean(
                [r.prop_time for r in plugin_runs], DIAG_SHIFT
            )
            if plugin_runs
            else None,
            "Zero-reduction runs": len(plugin_runs) - len(reduced),
        }
    return BenchReport(coverage, performance, diagnostics, runs=tuple(runs))


def _sidecar_seed(mps_path: str) -> int:
    sidecar = os.path.splitext(mps_path)[0] + ".json"
    try:
        with open(sidecar, "r", encoding="ascii") as handle:
            return int(json.load(handle).get("seed", 0))
    except (OSError, ValueError):
        return 0


def _bench_one(path, families, config):
    from .mps import parse_mps

    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="ascii") as handle:
        model = parse_mps(handle.read())
    seed = _sidecar_seed(path)
    report = detect_all(model)
    if families is not None:
        wanted = {f.value for f in families}
        kept = tuple(r for r in report.records if r.family.value in wanted)
        report = dataclasses.replace(report, records=kept)
    runs = []
    for label, records in (("baseline", []), ("plugin", list(report.records))):
        started, cpu_started = time.perf_counter(), time.process_time()
        _, stats = dfs_solve(model, records, config)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        runs.append(BenchRun.from_search(name, seed, label, wall, stats, cpu))
    return name, report, runs


def run_benchmark(
    directory: str,
    families: Iterable[Family] | None = None,
    config: SearchConfig | None = None,
) -> BenchReport:
    """Parse, detect, and solve every ``.mps`` file under ``directory``.

    Files run one after another in name order, so wall times are not
    inflated by contention.  ``config`` drives both the baseline and the
    plugin search and defaults to ``SearchConfig()``.  Unparseable or
    failing instances are skipped with a logged reason and listed in the
    report, never aborting the batch.
    """
    config = config or SearchConfig()
    fam_filter = None if families is None else tuple(families)
    paths = sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(".mps")
    )
    runs: list[BenchRun] = []
    detections: dict[str, DetectionReport] = {}
    skipped: list[str] = []

    for path in paths:
        try:
            name, report, instance_runs = _bench_one(path, fam_filter, config)
        except Exception as exc:
            reason = f"{os.path.basename(path)}: {exc}"
            log.warning("skipping %s", reason)
            skipped.append(reason)
            continue
        detections[name] = report
        runs.extend(instance_runs)
    report = aggregate(runs, detections)
    return dataclasses.replace(report, skipped=tuple(skipped))


def _cell(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _write_table(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: BenchReport, directory: str, label: str = "bench") -> list[str]:
    """Emit one CSV per table plus a single JSON document; returns paths."""
    os.makedirs(directory, exist_ok=True)
    tables = (
        ("coverage", COVERAGE_COLUMNS, report.coverage),
        ("performance", PERFORMANCE_COLUMNS, report.performance),
        ("diagnostics", DIAGNOSTIC_COLUMNS, report.diagnostics),
    )
    paths = []
    for table_name, columns, table in tables:
        path = os.path.join(directory, f"{label}_{table_name}.csv")
        rows = [
            [fam] + [_cell(table[fam][col]) for col in columns]
            for fam in sorted(table)
        ]
        _write_table(path, ("Family",) + columns, rows)
        paths.append(path)
    doc = {
        "schema": 1,
        "coverage": report.coverage,
        "performance": report.performance,
        "diagnostics": report.diagnostics,
        "runs": [dataclasses.asdict(run) for run in report.runs],
        "skipped": list(report.skipped),
    }
    json_path = os.path.join(directory, f"{label}.json")
    with open(json_path, "w", encoding="ascii") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    paths.append(json_path)
    return paths
