"""Per-record bound tightening: one handler table, one fixpoint driver.

``_HANDLERS`` maps each family to what its handler reads off a record (the
parameters, or the evidence rows) and the propagator run on it;
``propagate_record`` dispatches through it and ``HANDLED_FAMILIES`` is its
key set.  Stretch, RosteringWindow and UnitCommitmentRamp run
``propagate_block_fixpoint`` over their evidence rows.  Each looped
propagator is a shape check plus one round, which ``_fixpoint`` repeats
until a round adds no reduction or ``max_fixpoint_rounds`` is spent
(``budget_hit``).  DisjPolyhedral runs once; ``run_fixpoint`` round-robins
records.

Propagators tighten a mutable DomainBox in place and report what they did
through a PropagationOutcome.  Two properties are load-bearing everywhere:

* soundness: a tightening may never exclude a point that satisfies the
  record's encoding rows, and ``cutoff`` is raised only when no feasible
  point survives in the box;
* conservative failure: when the box violates a record's structural
  assumptions (a one-hot group member that is not binary, say), the
  propagator returns an empty outcome instead of guessing.

Every bound change strictly improves the old bound by more than
``FEAS_TOL``; integer variables are rounded inward first.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import (
    FEAS_TOL,
    INF,
    BoundChange,
    DomainBox,
    LinearRow,
    MipModel,
    PropagationOutcome,
    round_lower,
    round_upper,
    tighten_row,
)
from .records import (
    BottleneckExactOneParams,
    DisjPolyhedralParams,
    Family,
    OneHotResourceParams,
    SemanticRecord,
)

__all__ = [
    "BoundChange",
    "HANDLED_FAMILIES",
    "PropagationOutcome",
    "PropagatorConfig",
    "outcome_to_json",
    "propagate_block_fixpoint",
    "propagate_bottleneck_exact_one",
    "propagate_disj_polyhedral",
    "propagate_one_hot_resource",
    "propagate_record",
    "run_fixpoint",
]


@dataclass(frozen=True)
class PropagatorConfig:
    """The round cap shared by all propagators.

    ``max_fixpoint_rounds`` caps every fixpoint loop (a propagator's own and
    the round-robin over records).
    """

    max_fixpoint_rounds: int = 100

    def __post_init__(self) -> None:
        if self.max_fixpoint_rounds < 1:
            raise ValueError("max_fixpoint_rounds must be >= 1")


def outcome_to_json(outcome: PropagationOutcome) -> dict:
    """Benchmark-facing view; infinite bounds serialize as null."""

    def num(value: float):
        return None if math.isinf(value) else value

    return {
        "calls": outcome.calls,
        "domain_reductions": outcome.domain_reductions,
        "cutoffs": outcome.cutoffs,
        "cutoff": outcome.cutoff,
        "prop_time_ms": outcome.prop_time * 1000.0,
        "bound_changes": [
            {"var": c.var, "side": c.which, "old": num(c.old), "new": num(c.new)}
            for c in outcome.bound_changes
        ],
    }


# ---------------------------------------------------------------------------
# the fixpoint driver and small shared pieces

#: One round of a looped propagator: tighten the box once, record every
#: change into the outcome, and return True on a cutoff.
Round = Callable[[PropagationOutcome], bool]


def _finish(
    out: PropagationOutcome, started: float, cutoff: bool = False
) -> PropagationOutcome:
    if cutoff:
        out.cutoff = True
        out.cutoffs = 1
    out.prop_time = time.perf_counter() - started
    return out


def _fixpoint(prepare: Callable[..., Round | None]):
    """Turn a shape check plus one round into a propagator.

    ``prepare(subject, box)`` returns None when the subject does not
    fit the box (the propagator then reports an empty outcome), else the
    round.  The result is called as ``(subject, box, config=None)`` and
    repeats the round until it cuts off, adds no reduction, or has run
    ``config.max_fixpoint_rounds`` times, which sets ``budget_hit``.
    """

    @functools.wraps(prepare)
    def propagate(
        subject, box: DomainBox, config: PropagatorConfig | None = None
    ) -> PropagationOutcome:
        config = config or PropagatorConfig()
        started = time.perf_counter()
        out = PropagationOutcome(calls=1)
        one_round = prepare(subject, box)
        if one_round is None:
            return _finish(out, started)
        for _ in range(config.max_fixpoint_rounds):
            before = out.domain_reductions
            if one_round(out):
                return _finish(out, started, cutoff=True)
            if out.domain_reductions == before:
                break
        else:
            out.budget_hit = True
        return _finish(out, started)

    return propagate


def _set_lower(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    """Raise a lower bound; True means the domain just emptied."""
    value = round_lower(value, box.integer_mask[var])
    old = box.lower[var]
    if value <= old + FEAS_TOL:
        return False
    box.lower[var] = value
    out.record(var, "lb", old, value)
    return value > box.upper[var] + FEAS_TOL


def _set_upper(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    value = round_upper(value, box.integer_mask[var])
    old = box.upper[var]
    if value >= old - FEAS_TOL:
        return False
    box.upper[var] = value
    out.record(var, "ub", old, value)
    return box.lower[var] > value + FEAS_TOL


def _binary_like(box: DomainBox, var: int) -> bool:
    return (
        0 <= var < len(box)
        and box.integer_mask[var]
        and box.lower[var] >= -FEAS_TOL
        and box.upper[var] <= 1.0 + FEAS_TOL
    )


def _all_binary(box: DomainBox, vars_: Sequence[int]) -> bool:
    return all(_binary_like(box, v) for v in vars_)


def _live(box: DomainBox, var: int) -> bool:
    return box.upper[var] > 0.5


def _fixed_in(box: DomainBox, var: int) -> bool:
    return box.lower[var] > 0.5


def _exact_one_closure(
    box: DomainBox, out: PropagationOutcome, members: Sequence[int]
) -> bool:
    """Close one exactly-one group; True means contradiction."""
    fixed = [v for v in members if _fixed_in(box, v)]
    if len(fixed) > 1:
        return True
    if len(fixed) == 1:
        cut = False
        for v in members:
            if v != fixed[0] and _live(box, v):
                cut |= _set_upper(box, out, v, 0.0)
        return cut
    live = [v for v in members if _live(box, v)]
    if not live:
        return True
    if len(live) == 1:
        return _set_lower(box, out, live[0], 1.0)
    return False


# ---------------------------------------------------------------------------
# row blocks and composite-family propagators


@_fixpoint
def propagate_block_fixpoint(rows: Sequence[LinearRow], box: DomainBox) -> Round:
    """Residual-activity tightening over a row block until stable."""

    def one_round(out: PropagationOutcome) -> bool:
        for row in rows:
            step = tighten_row(row, box)
            out.bound_changes.extend(step.bound_changes)
            out.domain_reductions += step.domain_reductions
            if step.cutoff:
                return True
        return False

    return one_round


@_fixpoint
def propagate_one_hot_resource(
    params: OneHotResourceParams, box: DomainBox
) -> Round | None:
    """Cheapest-basket reasoning over one-hot groups under a budget.

    The basket cost is the external floor plus each group's cheapest live
    option.  The basket exceeding the budget is a cutoff; an option whose
    swap-in cost exceeds the remaining slack is fixed out; groups then close
    under the exactly-one rule.  Repeats until stable.
    """
    members = [v for group in params.groups for v, _ in group]
    if (
        not params.groups
        or any(not group for group in params.groups)
        or len(set(members)) != len(members)
        or not _all_binary(box, members)
    ):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        mins = []
        for group in params.groups:
            live_costs = [c for v, c in group if _live(box, v)]
            if not live_costs:
                return True
            mins.append(min(live_costs))
        basket = params.external_min + sum(mins)
        if basket > params.budget + FEAS_TOL:
            return True

        cut = False
        for cheapest, group in zip(mins, params.groups):
            slack = params.budget - (basket - cheapest)
            for v, cost in group:
                if _live(box, v) and cost > slack + FEAS_TOL:
                    cut |= _set_upper(box, out, v, 0.0)
        for group in params.groups:
            cut |= _exact_one_closure(box, out, [v for v, _ in group])
        return cut

    return one_round


@_fixpoint
def propagate_bottleneck_exact_one(
    params: BottleneckExactOneParams, box: DomainBox
) -> Round | None:
    """Max-min lower bound on the bottleneck plus weight elimination.

    Groups whose live selectors all carry known weights push lb(z) up to
    their cheapest option; any selector priced above ub(z) is fixed out;
    selector groups close under exactly-one.  With activators present the
    link implications run both ways and the open count propagates as a
    residual cardinality.  Selectors without a known weight are never
    eliminated and their groups never raise the bound.
    """
    z = params.bottleneck_var
    selectors = [v for group in params.groups for v, _ in group]
    activators = params.activators
    activator_vars = activators.activator_vars if activators else ()
    if (
        not 0 <= z < len(box)
        or not params.groups
        or any(not group for group in params.groups)
        or len(set(selectors)) != len(selectors)
        or not _all_binary(box, selectors)
        or not _all_binary(box, activator_vars)
    ):
        return None
    to_activator = dict(activators.selector_to_activator) if activators else {}

    def one_round(out: PropagationOutcome) -> bool:
        cut = False

        floor = -INF
        for group in params.groups:
            live = [(v, w) for v, w in group if _live(box, v)]
            if not live:
                return True
            if all(w is not None for _, w in live):
                floor = max(floor, min(w for _, w in live))
        for group in params.groups:
            for v, w in group:
                if w is not None and _fixed_in(box, v):
                    floor = max(floor, w)
        if floor > -INF:
            cut |= _set_lower(box, out, z, floor)

        ceiling = box.upper[z]
        for group in params.groups:
            for v, w in group:
                if w is not None and _live(box, v) and w > ceiling + FEAS_TOL:
                    cut |= _set_upper(box, out, v, 0.0)

        if activators is not None:
            for v in selectors:
                y = to_activator.get(v)
                if y is None:
                    continue
                if _fixed_in(box, v):
                    cut |= _set_lower(box, out, y, 1.0)
                if not _live(box, y) and _live(box, v):
                    cut |= _set_upper(box, out, v, 0.0)
            forced = sum(1 for y in activator_vars if _fixed_in(box, y))
            open_slots = sum(1 for y in activator_vars if _live(box, y))
            if forced > activators.count or open_slots < activators.count:
                cut = True
            elif forced == activators.count:
                for y in activator_vars:
                    if _live(box, y) and not _fixed_in(box, y):
                        cut |= _set_upper(box, out, y, 0.0)
            elif open_slots == activators.count:
                for y in activator_vars:
                    if _live(box, y) and not _fixed_in(box, y):
                        cut |= _set_lower(box, out, y, 1.0)

        for group in params.groups:
            cut |= _exact_one_closure(box, out, [v for v, _ in group])

        return cut or box.lower[z] > box.upper[z] + FEAS_TOL

    return one_round


def propagate_disj_polyhedral(
    params: DisjPolyhedralParams,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Constructive disjunction over guarded branches.

    Each admissible branch gets a private copy of the box and a block
    fixpoint over its stripped rows.  A branch whose copy empties is
    impossible and loses its selector value; no surviving branch is a
    cutoff; a single survivor fixes its selector.  Touched variables then
    tighten to the envelope of the surviving branch-local bounds (variables
    a branch never constrains keep their global bounds there, so the
    envelope cannot overtighten them).
    """
    config = config or PropagatorConfig()
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)

    branches = params.branches
    selectors = [b.selector_var for b in branches]
    shape_ok = (
        2 <= len(branches) <= 6
        and _all_binary(box, set(selectors))
        and all(0 <= v < len(box) for v in params.touched)
    )
    if shape_ok and params.variant == "binary_selector":
        shape_ok = (
            len(branches) == 2
            and selectors[0] == selectors[1]
            and {b.selector_value for b in branches} == {0, 1}
        )
    elif shape_ok and params.variant == "exact_one_mode":
        shape_ok = len(set(selectors)) == len(selectors) and all(
            b.selector_value == 1 for b in branches
        )
    else:
        shape_ok = False
    if not shape_ok:
        return _finish(out, started)

    def allows(branch) -> bool:
        if branch.selector_value == 1:
            return _live(box, branch.selector_var)
        return box.lower[branch.selector_var] < 0.5

    def forbid(branch) -> bool:
        if branch.selector_value == 1:
            return _set_upper(box, out, branch.selector_var, 0.0)
        return _set_lower(box, out, branch.selector_var, 1.0)

    cut = False
    viable: list[int] = []
    local_boxes: dict[int, DomainBox] = {}
    for index, branch in enumerate(branches):
        if not allows(branch):
            continue
        rows = [
            LinearRow(i, "branch", r.terms, -INF, r.bound)
            for i, r in enumerate(branch.rows)
        ]
        local = box.copy()
        step = propagate_block_fixpoint(rows, local, config)
        if step.cutoff:
            cut |= forbid(branch)
        else:
            viable.append(index)
            local_boxes[index] = local
    if not viable or cut:
        return _finish(out, started, cutoff=True)

    if len(viable) == 1:
        survivor = branches[viable[0]]
        if survivor.selector_value == 1:
            cut |= _set_lower(box, out, survivor.selector_var, 1.0)
        else:
            cut |= _set_upper(box, out, survivor.selector_var, 0.0)

    for var in params.touched:
        cut |= _set_lower(box, out, var, min(local_boxes[i].lower[var] for i in viable))
        cut |= _set_upper(box, out, var, max(local_boxes[i].upper[var] for i in viable))
    return _finish(out, started, cutoff=cut)


# ---------------------------------------------------------------------------
# table-family propagators


@_fixpoint
def _all_different(params, box: DomainBox) -> Round | None:
    grid = [v for g in params.item_groups for v in g]
    if (
        not params.item_groups
        or not params.value_groups
        or len(set(grid)) != len(grid)
        or not _all_binary(box, grid)
        or not _all_binary(box, [v for g in params.value_groups for v in g])
    ):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        cut = False
        for group in params.item_groups:
            cut |= _exact_one_closure(box, out, group)
        for group in params.value_groups:
            if params.symmetric:
                cut |= _exact_one_closure(box, out, group)
                continue
            fixed = [v for v in group if _fixed_in(box, v)]
            if len(fixed) > 1:
                cut = True
            elif len(fixed) == 1:
                for v in group:
                    if v != fixed[0] and _live(box, v):
                        cut |= _set_upper(box, out, v, 0.0)
        return cut

    return one_round


@_fixpoint
def _cardinality(params, box: DomainBox) -> Round | None:
    vars_ = params.vars
    if len(set(vars_)) != len(vars_) or not _all_binary(box, vars_):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        cut = False
        forced = sum(1 for v in vars_ if _fixed_in(box, v))
        live = sum(1 for v in vars_ if _live(box, v))
        if forced > params.upper + FEAS_TOL or live < params.lower - FEAS_TOL:
            return True
        if forced >= params.upper - FEAS_TOL:
            for v in vars_:
                if _live(box, v) and not _fixed_in(box, v):
                    cut |= _set_upper(box, out, v, 0.0)
        if live <= params.lower + FEAS_TOL:
            for v in vars_:
                if _live(box, v) and not _fixed_in(box, v):
                    cut |= _set_lower(box, out, v, 1.0)
        return cut

    return one_round


@_fixpoint
def _channel(params, box: DomainBox) -> Round | None:
    x = params.link_var
    indicators = [v for _, v in params.indicators]
    values = [value for value, _ in params.indicators]
    if (
        not 0 <= x < len(box)
        or len(params.indicators) < 2
        or len(set(indicators)) != len(indicators)
        or len(set(values)) != len(values)
        or not _all_binary(box, indicators)
    ):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        cut = False
        for value, v in params.indicators:
            if _live(box, v) and (
                value < box.lower[x] - FEAS_TOL or value > box.upper[x] + FEAS_TOL
            ):
                cut |= _set_upper(box, out, v, 0.0)
        cut |= _exact_one_closure(box, out, indicators)
        live_values = [value for value, v in params.indicators if _live(box, v)]
        if not live_values:
            return True
        cut |= _set_lower(box, out, x, min(live_values))
        cut |= _set_upper(box, out, x, max(live_values))
        return cut

    return one_round


@_fixpoint
def _cumulative(params, box: DomainBox) -> Round | None:
    demand_of: dict[int, float] = {}
    for task in params.tasks:
        for v in task.starts:
            if v in demand_of:
                return None
            demand_of[v] = task.demand
    if (
        not params.tasks
        or not _all_binary(box, list(demand_of))
        or any(v not in demand_of for _, members in params.periods for v in members)
    ):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        cut = False
        for task in params.tasks:
            cut |= _exact_one_closure(box, out, task.starts)
        if cut:
            return True
        for _, members in params.periods:
            committed = sum(demand_of[v] for v in members if _fixed_in(box, v))
            if committed > params.capacity + FEAS_TOL:
                return True
            for v in members:
                if (
                    _live(box, v)
                    and not _fixed_in(box, v)
                    and committed + demand_of[v] > params.capacity + FEAS_TOL
                ):
                    cut |= _set_upper(box, out, v, 0.0)
        return cut

    return one_round


@_fixpoint
def _nvalue(params, box: DomainBox) -> Round | None:
    count = params.count_var
    indicators = params.value_indicators
    known = set(indicators)
    pickers = [y for item in params.items for _, y in item]
    if (
        not 0 <= count < len(box)
        or len(set(pickers)) != len(pickers)
        or not _all_binary(box, indicators)
        or not _all_binary(box, pickers)
        or any(z not in known for item in params.items for z, _ in item)
    ):
        return None

    def one_round(out: PropagationOutcome) -> bool:
        cut = False
        for item in params.items:
            for z, y in item:
                if _fixed_in(box, y):
                    cut |= _set_lower(box, out, z, 1.0)
                if not _live(box, z) and _live(box, y):
                    cut |= _set_upper(box, out, y, 0.0)
            cut |= _exact_one_closure(box, out, [y for _, y in item])
        forced = sum(1 for z in indicators if _fixed_in(box, z))
        live = sum(1 for z in indicators if _live(box, z))
        cut |= _set_lower(box, out, count, float(forced))
        cut |= _set_upper(box, out, count, float(live))
        if box.lower[count] > box.upper[count] + FEAS_TOL:
            return True
        if not cut:
            # residual counting on the equality linking indicators to count
            if box.upper[count] <= forced + FEAS_TOL:
                for z in indicators:
                    if _live(box, z) and not _fixed_in(box, z):
                        cut |= _set_upper(box, out, z, 0.0)
            if box.lower[count] >= live - FEAS_TOL:
                for z in indicators:
                    if _live(box, z) and not _fixed_in(box, z):
                        cut |= _set_lower(box, out, z, 1.0)
        return cut

    return one_round


# ---------------------------------------------------------------------------
# the handler table, record dispatch and the global fixpoint


def _params(model: MipModel, record: SemanticRecord):
    return record.params


def _evidence_rows(model: MipModel, record: SemanticRecord) -> list[LinearRow]:
    return [model.rows[r] for r in record.evidence]


# family -> (what the handler reads off the record, the propagator it runs)
_HANDLERS = {
    Family.ALL_DIFFERENT: (_params, _all_different),
    Family.CARDINALITY: (_params, _cardinality),
    Family.CHANNEL: (_params, _channel),
    Family.CUMULATIVE: (_params, _cumulative),
    Family.NVALUE: (_params, _nvalue),
    Family.STRETCH: (_evidence_rows, propagate_block_fixpoint),
    Family.ONE_HOT_RESOURCE: (_params, propagate_one_hot_resource),
    Family.BOTTLENECK_EXACT_ONE: (_params, propagate_bottleneck_exact_one),
    Family.ROSTERING_WINDOW: (_evidence_rows, propagate_block_fixpoint),
    Family.UNIT_COMMITMENT_RAMP: (_evidence_rows, propagate_block_fixpoint),
    Family.DISJ_POLYHEDRAL: (_params, propagate_disj_polyhedral),
}

# families propagate_record can dispatch; the verification ladder checks
# registration against this set
HANDLED_FAMILIES: frozenset[Family] = frozenset(_HANDLERS)


def propagate_record(
    model: MipModel,
    record: SemanticRecord,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Run the family's handler for one record against the box."""
    handler = _HANDLERS.get(record.family)
    if handler is None:
        raise ValueError(f"no propagator for {record.family.value}")
    subject, propagate = handler
    return propagate(subject(model, record), box, config)


def run_fixpoint(
    model: MipModel,
    records: Sequence[SemanticRecord],
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Round-robin all records until stable.

    Only record propagators run here; the model's rows are tightened by
    ``propagate_block_fixpoint``, which the search alternates with this
    loop, so the benchmark can tell handler work from row reasoning.
    """
    config = config or PropagatorConfig()
    out = PropagationOutcome()
    for _ in range(config.max_fixpoint_rounds):
        before = out.domain_reductions
        for record in records:
            step = propagate_record(model, record, box, config)
            out.absorb(step)
            if out.cutoff:
                return out
        if out.domain_reductions == before:
            break
    else:
        out.budget_hit = True
    return out
