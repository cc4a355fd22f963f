"""Cumulative: start-indicator tasks sharing per-period capacity rows.

Detect-only: tightening the placement and capacity rows does all a rule could."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView
from ..model import FEAS_TOL, INF
from ..records import Family, Row, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder, _components


@dataclass(frozen=True, slots=True)
class CumulativeTask:
    starts: Unordered[Var]  # start indicator vars
    duration: int
    demand: float


@dataclass(frozen=True, slots=True)
class CumulativePeriod:
    row: Row  # capacity row of one period
    starts: Unordered[Var]  # start vars whose task runs in it


@dataclass(frozen=True, slots=True)
class CumulativeParams:
    tasks: Unordered[CumulativeTask]
    capacity: float
    periods: Unordered[CumulativePeriod]


def detect_cumulative(view: ModelView, config) -> list[SemanticRecord]:
    """Start-indicator scheduling grids sharing per-period capacity rows."""
    tasks = [(u.row, u.support) for u in view.exact_ones if len(u.support) >= 3]
    caps = [
        f
        for f in view.facets
        if len(f.vars) >= 2 and f.binary and all(c > 0 for c in f.coeffs)
    ]
    pool = tasks + [(f.row, f.vars) for f in caps]
    n_tasks = len(tasks)
    records = []
    for comp in _components(pool):
        task_part = [tasks[i] for i in comp if i < n_tasks]
        cap_part = [caps[i - n_tasks] for i in comp if i >= n_tasks]
        if not task_part or not cap_part:
            continue
        task_of: dict[int, int] = {}
        clean = True
        for rid, sup in task_part:
            for v in sup:
                if v in task_of:
                    clean = False
                task_of[v] = rid
        if not clean:
            continue
        capacity = cap_part[0].bound
        if any(abs(f.bound - capacity) > FEAS_TOL for f in cap_part):
            continue
        if any(v not in task_of for f in cap_part for v in f.vars):
            continue
        # per-variable appearance lists decide each task's duration and demand
        hits: dict[int, list[float]] = defaultdict(list)
        for f in cap_part:
            for v, c in zip(f.vars, f.coeffs):
                hits[v].append(c)
        specs = []
        for rid, sup in sorted(task_part):
            per_var = [hits.get(v, []) for v in sup]
            counts = {len(h) for h in per_var}
            demands = {c for h in per_var for c in h}
            if len(counts) != 1 or len(demands) != 1:
                clean = False
                break
            duration = counts.pop()
            if duration < 2:
                clean = False
                break
            specs.append(CumulativeTask(tuple(sorted(sup)), duration, demands.pop()))
        if not clean:
            continue
        periods = tuple(
            CumulativePeriod(f.row, tuple(sorted(f.vars)))
            for f in sorted(cap_part, key=lambda f: f.row)
        )
        params = CumulativeParams(tuple(specs), capacity, periods)
        scope = tuple(sorted(task_of))
        evidence = tuple(rid for rid, _ in task_part) + tuple(f.row for f in cap_part)
        records.append(SemanticRecord(Family.CUMULATIVE, scope, params, evidence))
    return records


def _plant(rng, sizes):
    n_tasks = int(sizes["tasks"])
    horizon = int(sizes["horizon"])
    if n_tasks < 2:
        raise ValueError("Cumulative needs at least 2 tasks")
    if horizon < 2 * n_tasks or horizon < 4:
        raise ValueError("Cumulative horizon too short for the task count")
    mb = _Builder()
    # durations: >= 2, every period coverable by every task (2d <= horizon),
    # at least 3 start positions (d <= horizon - 2), sequential witness fits
    budget = horizon - 2 * (n_tasks - 1)
    durations = []
    for j in range(n_tasks):
        d_max = min(horizon - 2, horizon // 2, budget)
        d = rng.randint(2, max(2, d_max))
        durations.append(d)
        budget = budget - d + 2
    demands = [rng.randint(1, 4) for _ in range(n_tasks)]
    capacity = rng.randint(max(demands), sum(demands) - 1)

    starts = []
    for j, d in enumerate(durations):
        starts.append([mb.binary(f"start_t{j + 1}_p{s}") for s in range(1, horizon - d + 2)])
    evidence = []
    for j in range(n_tasks):
        evidence.append(mb.row(f"place_t{j + 1}", [(v, 1.0) for v in starts[j]], 1, 1))
    periods = []
    for t in range(1, horizon + 1):
        terms = []
        members = []
        for j, d in enumerate(durations):
            for idx, v in enumerate(starts[j]):
                s = idx + 1
                if s <= t <= s + d - 1:
                    terms.append((v, float(demands[j])))
                    members.append(v)
        rid = mb.row(f"cap_p{t}", terms, -INF, capacity)
        evidence.append(rid)
        periods.append(CumulativePeriod(rid, tuple(members)))

    witness = {}
    offset = 1
    for j, d in enumerate(durations):
        for idx, v in enumerate(starts[j]):
            witness[v] = 1.0 if idx + 1 == offset else 0.0
        offset += d
    params = CumulativeParams(
        tasks=tuple(
            CumulativeTask(tuple(starts[j]), durations[j], float(demands[j]))
            for j in range(n_tasks)
        ),
        capacity=float(capacity),
        periods=tuple(periods),
    )
    scope = tuple(v for group in starts for v in group)
    record = SemanticRecord(Family.CUMULATIVE, scope, params, tuple(evidence))
    return mb, record, witness


SPEC = FamilySpec(
    Family.CUMULATIVE, CumulativeParams, detect_cumulative, None, _plant,
    {"tasks": 2, "horizon": 5},
)
