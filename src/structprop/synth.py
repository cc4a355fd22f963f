"""Reverse-sampled MIP instances with a planted, known constraint block.

Each builder works witness-first: it draws a feasible assignment, then picks
budgets, capacities, and requirements consistent with that witness, so every
generated instance is feasible by construction (unless ``make_infeasible``
deliberately adds a contradictory row pair for search stress tests).  The
planted block's rows are all binding somewhere inside the variable bounds;
``obfuscate`` later adds rows that are deliberately not.

All numeric data are integers (stored as floats), which keeps witness checks
and detector matching exact.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
from dataclasses import dataclass

from .model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    Variable,
    activity_range,
    shared_float,
)
from .records import (
    ActivatorSpec,
    AllDifferentParams,
    BottleneckExactOneParams,
    BranchSpec,
    CardinalityParams,
    ChannelParams,
    CumulativeParams,
    CumulativePeriod,
    CumulativeTask,
    DisjPolyhedralParams,
    Family,
    GeneratorSpec,
    NValueParams,
    OneHotResourceParams,
    RosteringWindowParams,
    SemanticRecord,
    StretchParams,
    StrippedRow,
    UnitCommitmentRampParams,
    _codec,
    records_to_json,
)

#: Integer variables a default-sized instance may put in one record's scope.
#: Keeps the enumeration oracle exhaustive at desk scale; pass
#: ``allow_large=1`` in size_params to lift it.
SCOPE_CAP = 12


@dataclass(frozen=True)
class ObfuscationConfig:
    noise_rows: int = 10
    permute_rows: bool = True
    permute_vars: bool = True
    sign_flip_prob: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sign_flip_prob <= 1.0:
            raise ValueError(f"sign_flip_prob must be in [0, 1], got {self.sign_flip_prob}")
        if self.noise_rows < 0:
            raise ValueError("noise_rows must be non-negative")


@dataclass
class PlantedInstance:
    """A generated model plus the record it was generated from.

    ``ground_truth`` is kept in the model's *current* indexing: obfuscation
    rewrites it through the permutation it applies.  ``permutation`` maps the
    original planted indices to current ones and is provenance only.
    ``witness`` maps every variable id to a feasible value (None when the
    instance was deliberately made infeasible).
    """

    model: MipModel
    ground_truth: SemanticRecord
    permutation: tuple[tuple[int, ...], tuple[int, ...]]  # (row map, var map)
    seed: int
    family: Family
    size_params: dict[str, int]
    witness: dict[int, float] | None
    noise_row_ids: tuple[int, ...] = ()
    feasible: bool = True


DEFAULT_SIZE_PARAMS: dict[Family, dict[str, int]] = {
    Family.ALL_DIFFERENT: {"n": 3},
    Family.CARDINALITY: {"n": 5},
    Family.CHANNEL: {"values": 4},
    Family.CUMULATIVE: {"tasks": 2, "horizon": 5},
    Family.NVALUE: {"items": 2, "values": 3},
    Family.STRETCH: {"periods": 5},
    Family.ONE_HOT_RESOURCE: {"groups": 3, "options": 2},
    Family.BOTTLENECK_EXACT_ONE: {"groups": 2, "options": 3, "activators": -1},
    Family.ROSTERING_WINDOW: {"nurses": 2, "days": 3, "shifts": 2},
    Family.UNIT_COMMITMENT_RAMP: {"generators": 2, "periods": 2},
    Family.DISJ_POLYHEDRAL: {"branches": 2, "xvars": 2},
}


def default_size_params(family: Family) -> dict[str, int]:
    return dict(DEFAULT_SIZE_PARAMS[family])


class _Builder:
    """Accumulates variables and rows with dense ids."""

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.rows: list[LinearRow] = []

    def var(self, name: str, lower: float, upper: float,
            integrality: Integrality = Integrality.INTEGER) -> int:
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, float(lower), float(upper), integrality))
        return vid

    def binary(self, name: str) -> int:
        return self.var(name, 0, 1, Integrality.BINARY)

    def continuous(self, name: str, lower: float, upper: float) -> int:
        return self.var(name, lower, upper, Integrality.CONTINUOUS)

    def row(self, name: str, terms, lhs: float, rhs: float) -> int:
        rid = len(self.rows)
        self.rows.append(LinearRow(rid, name, terms, lhs, rhs))
        return rid

    def finish(self, objective, name: str) -> MipModel:
        return MipModel(tuple(self.variables), tuple(self.rows), tuple(objective), "min", name)


def reverse_sample(
    family: Family,
    size_params: dict[str, int] | None = None,
    seed: int = 0,
    *,
    make_infeasible: bool = False,
) -> PlantedInstance:
    """Generate a feasible instance containing one planted constraint block."""
    sizes = default_size_params(family)
    if size_params:
        unknown = set(size_params) - set(sizes) - {"allow_large"}
        if unknown:
            raise ValueError(
                f"unknown size parameters for {family.value}: {sorted(unknown)}"
            )
        sizes.update(size_params)
    family_index = list(Family).index(family)
    rng = random.Random(seed * 64 + family_index)

    builder = _BUILDERS[family]
    mb, record, witness = builder(rng, sizes)
    witness = {v: shared_float(value) for v, value in witness.items()}

    scope_ints = [
        v for v in record.scope if mb.variables[v].integrality is not Integrality.CONTINUOUS
    ]
    if len(scope_ints) > SCOPE_CAP and not sizes.get("allow_large"):
        raise ValueError(
            f"{family.value} size puts {len(scope_ints)} integer variables in scope "
            f"(cap {SCOPE_CAP}); pass allow_large=1 to override"
        )

    feasible = True
    if make_infeasible:
        if len(scope_ints) < 2:
            raise ValueError("make_infeasible needs at least two integer scope variables")
        a, b = scope_ints[0], scope_ints[1]
        lo = mb.variables[a].lower + mb.variables[b].lower
        hi = mb.variables[a].upper + mb.variables[b].upper
        k = math.floor((lo + hi) / 2)
        k = max(int(lo), min(int(hi) - 1, k))
        mb.row("clash_hi", [(a, 1.0), (b, 1.0)], k + 1, INF)
        mb.row("clash_lo", [(a, 1.0), (b, 1.0)], -INF, k)
        witness = None
        feasible = False

    objective = _draw_objective(rng, scope_ints)
    model = mb.finish(objective, f"{family.value.upper()}_S{seed}")
    identity = (tuple(range(len(model.rows))), tuple(range(len(model.variables))))
    return PlantedInstance(
        model=model,
        ground_truth=record,
        permutation=identity,
        seed=seed,
        family=family,
        size_params=sizes,
        witness=witness,
        feasible=feasible,
    )


def _draw_objective(rng: random.Random, scope_ints: list[int]) -> list[tuple[int, float]]:
    costs = [(v, float(rng.randint(-5, 5))) for v in scope_ints]
    if costs and all(c == 0.0 for _, c in costs):
        costs[0] = (costs[0][0], 1.0)
    return costs


# ---------------------------------------------------------------------------
# family builders (witness first, then consistent parameters)
# ---------------------------------------------------------------------------


def _plant_cardinality(rng, sizes):
    n = int(sizes["n"])
    if n < 3:
        raise ValueError("Cardinality needs n >= 3 counted binaries")
    mb = _Builder()
    vars_ = [mb.binary(f"pick{i + 1}") for i in range(n)]
    bits = [rng.randint(0, 1) for _ in range(n)]
    k = sum(bits)
    lower = max(0, k - rng.randint(0, 2))
    upper = min(n, k + rng.randint(0, 2))
    if lower == 0 and upper == n:  # would bind nowhere; shrink one side
        if k < n:
            upper = max(k, n - 1)
        else:
            lower = 1
    row = mb.row("count", [(v, 1.0) for v in vars_], lower, upper)
    params = CardinalityParams(tuple(vars_), float(lower), float(upper))
    record = SemanticRecord(Family.CARDINALITY, tuple(vars_), params, (row,))
    witness = {v: float(b) for v, b in zip(vars_, bits)}
    return mb, record, witness


def _plant_alldifferent(rng, sizes):
    n = int(sizes["n"])
    if n < 3:
        raise ValueError("AllDifferent needs n >= 3 items")
    mb = _Builder()
    grid = [[mb.binary(f"asg_i{i + 1}_v{v + 1}") for v in range(n)] for i in range(n)]
    evidence = []
    for i in range(n):
        evidence.append(mb.row(f"item{i + 1}", [(grid[i][v], 1.0) for v in range(n)], 1, 1))
    for v in range(n):
        evidence.append(mb.row(f"value{v + 1}", [(grid[i][v], 1.0) for i in range(n)], -INF, 1))
    assignment = rng.sample(range(n), n)
    witness = {}
    for i in range(n):
        for v in range(n):
            witness[grid[i][v]] = 1.0 if assignment[i] == v else 0.0
    params = AllDifferentParams(
        item_groups=tuple(tuple(row) for row in grid),
        value_groups=tuple(tuple(grid[i][v] for i in range(n)) for v in range(n)),
        symmetric=False,
    )
    scope = tuple(v for row in grid for v in row)
    record = SemanticRecord(Family.ALL_DIFFERENT, scope, params, tuple(evidence))
    return mb, record, witness


def _plant_channel(rng, sizes):
    m = int(sizes["values"])
    if not 2 <= m <= 9:
        raise ValueError("Channel needs between 2 and 9 distinct values")
    mb = _Builder()
    values = sorted(rng.sample(range(1, 10), m))
    xvar = mb.var("xview", min(values), max(values))
    inds = [mb.binary(f"ind{v}") for v in values]
    onehot = mb.row("pickone", [(y, 1.0) for y in inds], 1, 1)
    link = mb.row(
        "link",
        [(xvar, 1.0)] + [(y, -float(v)) for v, y in zip(values, inds)],
        0,
        0,
    )
    chosen = rng.choice(values)
    witness = {xvar: float(chosen)}
    for v, y in zip(values, inds):
        witness[y] = 1.0 if v == chosen else 0.0
    params = ChannelParams(xvar, tuple((float(v), y) for v, y in zip(values, inds)))
    scope = (xvar, *inds)
    record = SemanticRecord(Family.CHANNEL, scope, params, (link, onehot))
    return mb, record, witness


def _plant_cumulative(rng, sizes):
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
        starts.append(
            [mb.binary(f"start_t{j + 1}_p{s}") for s in range(1, horizon - d + 2)]
        )
    evidence = []
    for j in range(n_tasks):
        evidence.append(
            mb.row(f"place_t{j + 1}", [(v, 1.0) for v in starts[j]], 1, 1)
        )
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


def _plant_nvalue(rng, sizes):
    n_items = int(sizes["items"])
    m = int(sizes["values"])
    if n_items < 2 or m < 2:
        raise ValueError("NValue needs >= 2 items and >= 2 values")
    mb = _Builder()
    y = [[mb.binary(f"pick_i{i + 1}_v{v + 1}") for v in range(m)] for i in range(n_items)]
    z = [mb.binary(f"used_v{v + 1}") for v in range(m)]
    count = mb.var("distinct", 0, m)
    evidence = []
    for i in range(n_items):
        evidence.append(mb.row(f"assign{i + 1}", [(y[i][v], 1.0) for v in range(m)], 1, 1))
    for i in range(n_items):
        for v in range(m):
            evidence.append(
                mb.row(f"use_i{i + 1}_v{v + 1}", [(z[v], 1.0), (y[i][v], -1.0)], 0, INF)
            )
    evidence.append(
        mb.row("countrow", [(zv, 1.0) for zv in z] + [(count, -1.0)], 0, 0)
    )
    choice = [rng.randrange(m) for _ in range(n_items)]
    used = sorted(set(choice))
    witness = {count: float(len(used))}
    for v in range(m):
        witness[z[v]] = 1.0 if v in used else 0.0
        for i in range(n_items):
            witness[y[i][v]] = 1.0 if choice[i] == v else 0.0
    params = NValueParams(
        count_var=count,
        value_indicators=tuple(z),
        items=tuple(tuple((z[v], y[i][v]) for v in range(m)) for i in range(n_items)),
    )
    scope = tuple(v for row in y for v in row) + tuple(z) + (count,)
    record = SemanticRecord(Family.NVALUE, scope, params, tuple(evidence))
    return mb, record, witness


def _plant_stretch(rng, sizes):
    periods = int(sizes["periods"])
    if periods < 4:
        raise ValueError("Stretch needs >= 4 periods")
    min_run = 2
    max_run = rng.randint(2, min(3, periods - 1))
    mb = _Builder()
    on = [mb.binary(f"on_p{t + 1}") for t in range(periods)]
    start = [mb.binary(f"run_p{t + 1}") for t in range(periods)]
    evidence = []
    evidence.append(mb.row("startlo_p1", [(start[0], 1.0), (on[0], -1.0)], 0, INF))
    for t in range(1, periods):
        evidence.append(
            mb.row(
                f"startlo_p{t + 1}",
                [(start[t], 1.0), (on[t], -1.0), (on[t - 1], 1.0)],
                0,
                INF,
            )
        )
    for t in range(periods):
        evidence.append(
            mb.row(f"startub_p{t + 1}", [(start[t], 1.0), (on[t], -1.0)], -INF, 0)
        )
    for t in range(1, periods):
        evidence.append(
            mb.row(f"startoff_p{t + 1}", [(start[t], 1.0), (on[t - 1], 1.0)], -INF, 1)
        )
    for t in range(periods):
        for i in range(1, min_run):
            if t + i < periods:
                evidence.append(
                    mb.row(
                        f"minrun_p{t + 1}_{i}",
                        [(start[t], 1.0), (on[t + i], -1.0)],
                        -INF,
                        0,
                    )
                )
    for w0 in range(periods - max_run):
        evidence.append(
            mb.row(
                f"maxrun_p{w0 + 1}",
                [(on[w0 + i], 1.0) for i in range(max_run + 1)],
                -INF,
                max_run,
            )
        )

    bits = []
    working = rng.random() < 0.5
    while len(bits) < periods:
        if working:
            bits.extend([1] * min(rng.randint(min_run, max_run), periods - len(bits)))
        else:
            bits.extend([0] * min(rng.randint(1, 2), periods - len(bits)))
        working = not working
    witness = {}
    for t in range(periods):
        witness[on[t]] = float(bits[t])
        started = bits[t] == 1 and (t == 0 or bits[t - 1] == 0)
        witness[start[t]] = 1.0 if started else 0.0
    params = StretchParams(tuple(on), tuple(start), min_run, max_run)
    record = SemanticRecord(
        Family.STRETCH, tuple(on) + tuple(start), params, tuple(evidence)
    )
    return mb, record, witness


def _plant_one_hot_resource(rng, sizes):
    n_groups = int(sizes["groups"])
    n_options = int(sizes["options"])
    if n_groups < 2 or n_options < 2:
        raise ValueError("OneHotResource needs >= 2 groups and >= 2 options")
    mb = _Builder()
    y = [
        [mb.binary(f"opt_g{g + 1}_k{k + 1}") for k in range(n_options)]
        for g in range(n_groups)
    ]
    costs = [[rng.randint(1, 5) for _ in range(n_options)] for _ in range(n_groups)]
    while max(costs[0]) == min(costs[0]):  # keep headroom above the witness pick
        costs[0] = [rng.randint(1, 5) for _ in range(n_options)]
    chosen = [rng.randrange(n_options) for _ in range(n_groups)]
    chosen[0] = costs[0].index(min(costs[0]))

    evidence = []
    for g in range(n_groups):
        evidence.append(
            mb.row(f"choose_g{g + 1}", [(v, 1.0) for v in y[g]], 1, 1)
        )
    cap_terms = [
        (y[g][k], float(costs[g][k]))
        for g in range(n_groups)
        for k in range(n_options)
    ]
    external_min = 0
    external_max = 0
    witness = {}
    for idx in range(rng.randint(0, 2)):
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(1, 3)
        kind = Integrality.INTEGER if rng.random() < 0.5 else Integrality.CONTINUOUS
        evar = mb.var(f"load{idx + 1}", lo, hi, kind)
        coeff = rng.randint(1, 2)
        cap_terms.append((evar, float(coeff)))
        external_min += coeff * lo
        external_max += coeff * hi
        witness[evar] = float(lo)

    spend = sum(costs[g][chosen[g]] for g in range(n_groups))
    top = sum(max(costs[g]) for g in range(n_groups))
    budget = rng.randint(spend + external_min, top + external_max - 1)
    evidence.append(mb.row("budget", cap_terms, -INF, budget))

    for g in range(n_groups):
        for k in range(n_options):
            witness[y[g][k]] = 1.0 if chosen[g] == k else 0.0
    params = OneHotResourceParams(
        groups=tuple(
            tuple((y[g][k], float(costs[g][k])) for k in range(n_options))
            for g in range(n_groups)
        ),
        budget=float(budget),
        external_min=float(external_min),
    )
    scope = tuple(v for group in y for v in group)
    record = SemanticRecord(Family.ONE_HOT_RESOURCE, scope, params, tuple(evidence))
    return mb, record, witness


def _plant_bottleneck_exact_one(rng, sizes):
    n_groups = int(sizes["groups"])
    n_options = int(sizes["options"])
    if n_groups < 2 or n_options < 2:
        raise ValueError("BottleneckExactOne needs >= 2 groups and >= 2 options")
    with_activators = sizes.get("activators", -1)
    if with_activators == -1:
        with_activators = 1 if rng.random() < 0.5 else 0

    mb = _Builder()
    x = [
        [mb.binary(f"pick_i{i + 1}_j{j + 1}") for j in range(n_options)]
        for i in range(n_groups)
    ]
    weights = [[rng.randint(1, 6) for _ in range(n_options)] for _ in range(n_groups)]
    chosen = [rng.randrange(n_options) for _ in range(n_groups)]
    z_witness = max(weights[i][chosen[i]] for i in range(n_groups))
    zmax = max(max(w) for w in weights) + rng.randint(0, 2)
    z = mb.continuous("worst", 0, zmax)

    evidence = []
    for i in range(n_groups):
        evidence.append(mb.row(f"assign_i{i + 1}", [(v, 1.0) for v in x[i]], 1, 1))
    for i in range(n_groups):
        for j in range(n_options):
            evidence.append(
                mb.row(
                    f"lnk_i{i + 1}_j{j + 1}",
                    [(x[i][j], float(weights[i][j])), (z, -1.0)],
                    -INF,
                    0,
                )
            )

    witness = {z: float(z_witness)}
    for i in range(n_groups):
        for j in range(n_options):
            witness[x[i][j]] = 1.0 if chosen[i] == j else 0.0

    activators = None
    scope = tuple(v for group in x for v in group) + (z,)
    if with_activators:
        acts = [mb.binary(f"open_j{j + 1}") for j in range(n_options)]
        for i in range(n_groups):
            for j in range(n_options):
                evidence.append(
                    mb.row(
                        f"act_i{i + 1}_j{j + 1}",
                        [(x[i][j], 1.0), (acts[j], -1.0)],
                        -INF,
                        0,
                    )
                )
        open_set = set(chosen)
        extra_room = [j for j in range(n_options) if j not in open_set]
        n_open = rng.randint(len(open_set), n_options)
        for j in rng.sample(extra_room, n_open - len(open_set)):
            open_set.add(j)
        count_row = mb.row("opencount", [(a, 1.0) for a in acts], n_open, n_open)
        evidence.append(count_row)
        for j in range(n_options):
            witness[acts[j]] = 1.0 if j in open_set else 0.0
        activators = ActivatorSpec(
            selector_to_activator=tuple(
                (x[i][j], acts[j]) for i in range(n_groups) for j in range(n_options)
            ),
            activator_vars=tuple(acts),
            count=n_open,
            count_row=count_row,
        )
        scope = scope + tuple(acts)

    params = BottleneckExactOneParams(
        bottleneck_var=z,
        groups=tuple(
            tuple((x[i][j], float(weights[i][j])) for j in range(n_options))
            for i in range(n_groups)
        ),
        link_coverage=1.0,
        activators=activators,
    )
    record = SemanticRecord(Family.BOTTLENECK_EXACT_ONE, scope, params, tuple(evidence))
    return mb, record, witness


def _plant_rostering_window(rng, sizes):
    n_nurses = int(sizes["nurses"])
    n_days = int(sizes["days"])
    n_shifts = int(sizes["shifts"])
    if n_nurses < 2 or n_days < 3 or n_shifts < 2:
        raise ValueError("RosteringWindow needs >= 2 nurses, >= 3 days, >= 2 shifts")
    window = 2

    mb = _Builder()
    x = [
        [
            [mb.binary(f"x_n{n + 1}_d{d + 1}_s{s + 1}") for s in range(n_shifts)]
            for d in range(n_days)
        ]
        for n in range(n_nurses)
    ]
    # witness roster: each nurse works at most one shift per day
    plan = [[-1] * n_days for _ in range(n_nurses)]
    for n in range(n_nurses):
        for d in range(n_days):
            if rng.random() < 0.65:
                plan[n][d] = rng.randrange(n_shifts)
    witness = {}
    for n in range(n_nurses):
        for d in range(n_days):
            for s in range(n_shifts):
                witness[x[n][d][s]] = 1.0 if plan[n][d] == s else 0.0

    sos_rows = []
    for n in range(n_nurses):
        for d in range(n_days):
            sos_rows.append(
                mb.row(
                    f"day_n{n + 1}_d{d + 1}",
                    [(x[n][d][s], 1.0) for s in range(n_shifts)],
                    -INF,
                    1,
                )
            )
    dem_rows = []
    coverage = []
    day_groups = []
    for d in range(n_days):
        day_rows = []
        for s in range(n_shifts):
            req = sum(1 for n in range(n_nurses) if plan[n][d] == s)
            rid = mb.row(
                f"cov_d{d + 1}_s{s + 1}",
                [(x[n][d][s], 1.0) for n in range(n_nurses)],
                req,
                req,
            )
            dem_rows.append(rid)
            day_rows.append(rid)
            coverage.append((rid, float(req)))
        day_groups.append(tuple(day_rows))

    work_rows = []
    rest_rows = []
    hub_rows = []
    hlb_rows = []
    for n in range(n_nurses):
        loads = []
        for w0 in range(n_days - window + 1):
            loads.append(
                sum(1 for d in range(w0, w0 + window) if plan[n][d] >= 0)
            )
        maxwork = rng.randint(max(2, max(loads)), window * n_shifts - 1)
        for w0 in range(n_days - window + 1):
            terms = [
                (x[n][d][s], 1.0)
                for d in range(w0, w0 + window)
                for s in range(n_shifts)
            ]
            work_rows.append(
                mb.row(f"wload_n{n + 1}_w{w0 + 1}", terms, -INF, maxwork)
            )
        min_load = min(loads)
        if min_load >= 1:
            floor_req = rng.randint(1, min_load)
            for w0 in range(n_days - window + 1):
                terms = [
                    (x[n][d][s], 1.0)
                    for d in range(w0, w0 + window)
                    for s in range(n_shifts)
                ]
                rest_rows.append(
                    mb.row(f"wrest_n{n + 1}_w{w0 + 1}", terms, floor_req, INF)
                )
        total = sum(1 for d in range(n_days) if plan[n][d] >= 0)
        hub = rng.randint(max(1, total), min(n_days, n_days * n_shifts - 1))
        all_terms = [
            (x[n][d][s], 1.0) for d in range(n_days) for s in range(n_shifts)
        ]
        hub_rows.append(mb.row(f"htot_n{n + 1}", all_terms, -INF, hub))
        floor_total = rng.randint(0, total)
        if floor_total >= 1:
            hlb_rows.append(mb.row(f"hmin_n{n + 1}", all_terms, floor_total, INF))

    role_rows = [("sos", tuple(sos_rows)), ("dem", tuple(dem_rows))]
    if work_rows:
        role_rows.append(("workWind", tuple(work_rows)))
    if rest_rows:
        role_rows.append(("restWind", tuple(rest_rows)))
    role_rows.append(("hub", tuple(hub_rows)))
    if hlb_rows:
        role_rows.append(("hlb", tuple(hlb_rows)))

    scope = tuple(
        x[n][d][s]
        for n in range(n_nurses)
        for d in range(n_days)
        for s in range(n_shifts)
    )
    params = RosteringWindowParams(
        assignment_vars=scope,
        sos_rows=tuple(sos_rows),
        coverage=tuple(coverage),
        role_rows=tuple(sorted(role_rows)),
        nurse_groups=tuple(
            tuple(
                x[n][d][s] for d in range(n_days) for s in range(n_shifts)
            )
            for n in range(n_nurses)
        ),
        day_groups=tuple(day_groups),
    )
    evidence = tuple(rid for _, rows in role_rows for rid in rows)
    record = SemanticRecord(Family.ROSTERING_WINDOW, scope, params, evidence)
    return mb, record, witness


def _plant_unit_commitment_ramp(rng, sizes):
    n_gens = int(sizes["generators"])
    n_periods = int(sizes["periods"])
    if n_gens < 2 or n_periods < 2:
        raise ValueError("UnitCommitmentRamp needs >= 2 generators and >= 2 periods")

    mb = _Builder()
    p_min = [rng.randint(1, 3) for _ in range(n_gens)]
    p_max = [p_min[g] + rng.randint(2, 5) for g in range(n_gens)]
    ramp = [rng.randint(p_min[g], p_max[g] - 1) for g in range(n_gens)]

    status = [[mb.binary(f"u_g{g + 1}_t{t + 1}") for t in range(n_periods)] for g in range(n_gens)]
    startup = [
        [None] + [mb.binary(f"v_g{g + 1}_t{t + 1}") for t in range(1, n_periods)]
        for g in range(n_gens)
    ]
    shutdown = [
        [None] + [mb.binary(f"w_g{g + 1}_t{t + 1}") for t in range(1, n_periods)]
        for g in range(n_gens)
    ]
    power = [
        [mb.continuous(f"p_g{g + 1}_t{t + 1}", 0, p_max[g]) for t in range(n_periods)]
        for g in range(n_gens)
    ]
    reserve = [
        [mb.continuous(f"r_g{g + 1}_t{t + 1}", 0, p_max[g]) for t in range(n_periods)]
        for g in range(n_gens)
    ]

    # witness: generator 1 always on covers demand; others switch freely
    on = [[1] * n_periods]
    for g in range(1, n_gens):
        on.append([rng.randint(0, 1) for _ in range(n_periods)])
    witness = {}
    for g in range(n_gens):
        for t in range(n_periods):
            witness[status[g][t]] = float(on[g][t])
            witness[power[g][t]] = float(p_min[g] * on[g][t])
            witness[reserve[g][t]] = float((p_max[g] - p_min[g]) * on[g][t])
            if t >= 1:
                witness[startup[g][t]] = float(max(0, on[g][t] - on[g][t - 1]))
                witness[shutdown[g][t]] = float(max(0, on[g][t - 1] - on[g][t]))

    logic_rows = []
    link_rows = []
    ramp_rows = []
    for g in range(n_gens):
        for t in range(n_periods):
            link_rows.append(
                mb.row(
                    f"linklo_g{g + 1}_t{t + 1}",
                    [(status[g][t], float(p_min[g])), (power[g][t], -1.0)],
                    -INF,
                    0,
                )
            )
            link_rows.append(
                mb.row(
                    f"linkup_g{g + 1}_t{t + 1}",
                    [
                        (power[g][t], 1.0),
                        (reserve[g][t], 1.0),
                        (status[g][t], -float(p_max[g])),
                    ],
                    -INF,
                    0,
                )
            )
            if t >= 1:
                logic_rows.append(
                    mb.row(
                        f"logic_g{g + 1}_t{t + 1}",
                        [
                            (status[g][t], 1.0),
                            (status[g][t - 1], -1.0),
                            (startup[g][t], -1.0),
                            (shutdown[g][t], 1.0),
                        ],
                        0,
                        0,
                    )
                )
                ramp_rows.append(
                    mb.row(
                        f"rampup_g{g + 1}_t{t + 1}",
                        [
                            (power[g][t], 1.0),
                            (power[g][t - 1], -1.0),
                            (status[g][t - 1], -float(ramp[g])),
                            (startup[g][t], -float(ramp[g])),
                        ],
                        -INF,
                        0,
                    )
                )
                ramp_rows.append(
                    mb.row(
                        f"rampdn_g{g + 1}_t{t + 1}",
                        [
                            (power[g][t - 1], 1.0),
                            (power[g][t], -1.0),
                            (status[g][t], -float(ramp[g])),
                            (shutdown[g][t], -float(ramp[g])),
                        ],
                        -INF,
                        0,
                    )
                )

    demand_rows = []
    reserve_rows = []
    demands = []
    reserves = []
    for t in range(n_periods):
        supply = sum(p_min[g] * on[g][t] for g in range(n_gens))
        spare = sum((p_max[g] - p_min[g]) * on[g][t] for g in range(n_gens))
        d_t = rng.randint(1, supply)
        r_t = rng.randint(1, spare)
        demands.append(float(d_t))
        reserves.append(float(r_t))
        demand_rows.append(
            mb.row(f"demand_t{t + 1}", [(power[g][t], 1.0) for g in range(n_gens)], d_t, INF)
        )
        reserve_rows.append(
            mb.row(f"reserve_t{t + 1}", [(reserve[g][t], 1.0) for g in range(n_gens)], r_t, INF)
        )

    role_rows = (
        ("Demand", tuple(demand_rows)),
        ("Link", tuple(link_rows)),
        ("Logic", tuple(logic_rows)),
        ("Ramp", tuple(ramp_rows)),
        ("Reserve", tuple(reserve_rows)),
    )
    generators = tuple(
        GeneratorSpec(
            status=tuple(status[g]),
            startup=tuple(startup[g]),
            shutdown=tuple(shutdown[g]),
            power=tuple(power[g]),
            reserve=tuple(reserve[g]),
            p_min=float(p_min[g]),
            p_max=float(p_max[g]),
            ramp_up=float(ramp[g]),
            startup_ramp=float(ramp[g]),
        )
        for g in range(n_gens)
    )
    params = UnitCommitmentRampParams(
        generators=generators,
        demands=tuple(demands),
        reserves=tuple(reserves),
        role_rows=role_rows,
    )
    scope = tuple(
        v
        for g in range(n_gens)
        for seq in (status[g], startup[g][1:], shutdown[g][1:], power[g], reserve[g])
        for v in seq
    )
    evidence = tuple(rid for _, rows in role_rows for rid in rows)
    record = SemanticRecord(Family.UNIT_COMMITMENT_RAMP, scope, params, evidence)
    return mb, record, witness


def _plant_disj_polyhedral(rng, sizes):
    n_branches = int(sizes["branches"])
    n_x = int(sizes["xvars"])
    if not 2 <= n_branches <= 6:
        raise ValueError("DisjPolyhedral needs between 2 and 6 branches")
    if n_x < 2:
        raise ValueError("DisjPolyhedral needs >= 2 shared variables")

    mb = _Builder()
    xs = [mb.var(f"q{k + 1}", 0, rng.randint(5, 9)) for k in range(n_x)]
    point = {v: float(rng.randint(0, int(mb.variables[v].upper) - 1)) for v in xs}
    variant = "binary_selector" if n_branches == 2 else "exact_one_mode"

    x_box = DomainBox(
        [v.lower for v in mb.variables], [v.upper for v in mb.variables]
    )

    def draw_branch_rows(holds_witness: bool):
        rows = []
        n_rows = rng.randint(1, 2)
        for r_idx in range(n_rows):
            if r_idx == 0:
                support = list(xs)
            else:
                support = rng.sample(xs, rng.randint(1, n_x))
            while True:
                coeffs = [float(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in support]
                if any(c > 0 for c in coeffs):
                    break
            terms = sorted(zip(support, coeffs))
            min_act, max_act = activity_range(terms, x_box)
            if holds_witness:
                at_point = sum(c * point[v] for v, c in terms)
                bound = rng.randint(int(at_point), int(max_act) - 1)
            else:
                bound = rng.randint(int(min_act), int(max_act) - 1)
            rows.append((tuple(terms), float(bound), max_act))
        return rows

    witness = dict(point)
    branches = []
    evidence = []
    selector_row = None

    if variant == "binary_selector":
        guard = mb.binary("switch")
        active_value = rng.randint(0, 1)
        witness[guard] = float(active_value)
        for value in (1, 0):
            drawn = draw_branch_rows(holds_witness=(value == active_value))
            stripped = []
            for b_idx, (terms, bound, max_act) in enumerate(drawn):
                big_m = float(math.ceil(max_act - bound) + rng.randint(0, 3))
                if value == 1:
                    rid = mb.row(
                        f"br1_{b_idx + 1}",
                        list(terms) + [(guard, big_m)],
                        -INF,
                        bound + big_m,
                    )
                else:
                    rid = mb.row(
                        f"br0_{b_idx + 1}",
                        list(terms) + [(guard, -big_m)],
                        -INF,
                        bound,
                    )
                evidence.append(rid)
                stripped.append(StrippedRow(terms, bound))
            branches.append(BranchSpec(guard, value, tuple(stripped)))
        selectors = (guard,)
    else:
        modes = [mb.binary(f"mode{i + 1}") for i in range(n_branches)]
        active = rng.randrange(n_branches)
        for i, mode in enumerate(modes):
            witness[mode] = 1.0 if i == active else 0.0
        for i, mode in enumerate(modes):
            drawn = draw_branch_rows(holds_witness=(i == active))
            stripped = []
            for b_idx, (terms, bound, max_act) in enumerate(drawn):
                big_m = float(math.ceil(max_act - bound) + rng.randint(0, 3))
                rid = mb.row(
                    f"br{i + 1}_{b_idx + 1}",
                    list(terms) + [(mode, big_m)],
                    -INF,
                    bound + big_m,
                )
                evidence.append(rid)
                stripped.append(StrippedRow(terms, bound))
            branches.append(BranchSpec(mode, 1, tuple(stripped)))
        selector_row = mb.row("modepick", [(m, 1.0) for m in modes], 1, 1)
        evidence.append(selector_row)
        selectors = tuple(modes)

    params = DisjPolyhedralParams(
        variant=variant,
        branches=tuple(branches),
        selector_row=selector_row,
        touched=tuple(xs),
    )
    scope = tuple(xs) + selectors
    record = SemanticRecord(Family.DISJ_POLYHEDRAL, scope, params, tuple(evidence))
    return mb, record, witness


_BUILDERS = {
    Family.CARDINALITY: _plant_cardinality,
    Family.ALL_DIFFERENT: _plant_alldifferent,
    Family.CHANNEL: _plant_channel,
    Family.CUMULATIVE: _plant_cumulative,
    Family.NVALUE: _plant_nvalue,
    Family.STRETCH: _plant_stretch,
    Family.ONE_HOT_RESOURCE: _plant_one_hot_resource,
    Family.BOTTLENECK_EXACT_ONE: _plant_bottleneck_exact_one,
    Family.ROSTERING_WINDOW: _plant_rostering_window,
    Family.UNIT_COMMITMENT_RAMP: _plant_unit_commitment_ramp,
    Family.DISJ_POLYHEDRAL: _plant_disj_polyhedral,
}


# ---------------------------------------------------------------------------
# obfuscation
# ---------------------------------------------------------------------------


def obfuscate(instance: PlantedInstance, config: ObfuscationConfig) -> PlantedInstance:
    """Noise rows, permutations, and sign flips; ground truth follows along.

    Noise rows get sides strictly wider than their activity range over the
    current bounds, so they never cut the feasible set and detectors skip
    them as non-binding.
    """
    rng = random.Random(config.seed * 64 + 63)  # stream disjoint from the builders'
    model = instance.model
    n_vars = len(model.variables)

    box = DomainBox.from_model(model)
    # (name, vars, coeffs, lhs, rhs) per row; noise rows become LinearRows
    # only once, when they are renumbered below
    rows = [(r.name, r.vars, r.coeffs, r.lhs, r.rhs) for r in model.rows]
    noise_ids = list(instance.noise_row_ids)
    existing_noise = len(noise_ids)
    for idx in range(config.noise_rows):
        k = rng.randint(2, min(4, n_vars))
        support = sorted(rng.sample(range(n_vars), k))
        coeffs = [float(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in support]
        lo, hi = activity_range(zip(support, coeffs), box)
        lhs = -INF if math.isinf(lo) else float(math.floor(lo) - rng.randint(1, 5))
        rhs = INF if math.isinf(hi) else float(math.ceil(hi) + rng.randint(1, 5))
        shape = rng.randrange(3)
        if shape == 1 and not math.isinf(rhs):
            lhs = -INF
        elif shape == 2 and not math.isinf(lhs):
            rhs = INF
        noise_ids.append(len(rows))
        rows.append((f"noise{existing_noise + idx + 1}", support, coeffs, lhs, rhs))

    n_rows = len(rows)
    var_map = list(range(n_vars))
    row_map = list(range(n_rows))
    if config.permute_vars:
        rng.shuffle(var_map)
    if config.permute_rows:
        rng.shuffle(row_map)

    new_vars: list[Variable | None] = [None] * n_vars
    for old, var in enumerate(model.variables):
        new_id = var_map[old]
        new_vars[new_id] = Variable(new_id, var.name, var.lower, var.upper, var.integrality)

    new_rows: list[LinearRow | None] = [None] * n_rows
    for old, (name, vars_, coeffs, lhs, rhs) in enumerate(rows):
        if rng.random() < config.sign_flip_prob:
            coeffs, lhs, rhs = [-c for c in coeffs], -rhs, -lhs
        terms = zip(map(var_map.__getitem__, vars_), coeffs)
        new_rows[row_map[old]] = LinearRow(row_map[old], name, terms, lhs, rhs)

    objective = tuple((var_map[v], c) for v, c in model.objective)
    new_model = MipModel(
        tuple(new_vars), tuple(new_rows), objective, model.objective_sense, model.name
    )

    ground_truth = remap_record(instance.ground_truth, var_map, row_map)
    witness = (
        {var_map[v]: value for v, value in instance.witness.items()}
        if instance.witness is not None
        else None
    )
    prev_rows, prev_vars = instance.permutation
    permutation = (
        tuple(row_map[r] for r in prev_rows),
        tuple(var_map[v] for v in prev_vars),
    )
    return PlantedInstance(
        model=new_model,
        ground_truth=ground_truth,
        permutation=permutation,
        seed=instance.seed,
        family=instance.family,
        size_params=dict(instance.size_params),
        witness=witness,
        noise_row_ids=tuple(sorted(row_map[r] for r in noise_ids)),
        feasible=instance.feasible,
    )


def remap_record(record: SemanticRecord, var_map, row_map) -> SemanticRecord:
    """Rewrite every variable/row id in a record through index maps."""
    # the encoder maps ids on the way out, so decoding keeps ids as they are
    encode, decode, _ = _codec(type(record.params))
    payload = encode(record.params, var_map.__getitem__, row_map.__getitem__)
    params = decode(payload, operator.index, operator.index)
    return SemanticRecord(
        family=record.family,
        scope=tuple(var_map[v] for v in record.scope),
        params=params,
        evidence=tuple(row_map[r] for r in record.evidence),
        confidence=record.confidence,
    )


def witness_satisfies(model: MipModel, witness: dict[int, float]) -> bool:
    """Exact check that an assignment respects bounds, integrality, rows."""
    for var in model.variables:
        if var.id not in witness:
            return False
        value = witness[var.id]
        if not var.lower <= value <= var.upper:
            return False
        if var.is_integer and value != int(value):
            return False
    for row in model.rows:
        activity = sum(c * witness[v] for v, c in zip(row.vars, row.coeffs))
        if not row.lhs <= activity <= row.rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

SIDECAR_SCHEMA_VERSION = 1


def instance_to_json(instance: PlantedInstance) -> dict:
    model = instance.model
    witness = None
    if instance.witness is not None:
        witness = {
            model.variables[v].name: value for v, value in instance.witness.items()
        }
    return {
        "schema": SIDECAR_SCHEMA_VERSION,
        "family": instance.family.value,
        "seed": instance.seed,
        "feasible": instance.feasible,
        "size_params": dict(instance.size_params),
        "ground_truth": records_to_json([instance.ground_truth], model),
        "permutation": {
            "rows": list(instance.permutation[0]),
            "variables": list(instance.permutation[1]),
        },
        "witness": witness,
        "noise_rows": [model.rows[r].name for r in instance.noise_row_ids],
    }


def write_instance(instance: PlantedInstance, directory: str, basename: str | None = None):
    """Write the model as free MPS plus a JSON ground-truth sidecar."""
    from .mps import write_mps

    if basename is None:
        basename = f"{instance.family.value.lower()}_{instance.seed}"
    os.makedirs(directory, exist_ok=True)
    mps_path = os.path.join(directory, basename + ".mps")
    json_path = os.path.join(directory, basename + ".json")
    with open(mps_path, "w", encoding="ascii") as handle:
        handle.write(write_mps(instance.model))
    with open(json_path, "w", encoding="ascii") as handle:
        json.dump(instance_to_json(instance), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return mps_path, json_path
