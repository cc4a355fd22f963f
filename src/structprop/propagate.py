"""Per-record bound tightening: one handler table, one fixpoint driver.

``_HANDLERS`` maps a family to its propagator, which reads the record's
parameters; ``propagate_record`` dispatches through it and
``HANDLED_FAMILIES`` is its key set.  Only Channel, OneHotResource,
BottleneckExactOne and DisjPolyhedral have one, because only their rules
prune values that the rows the record came from cannot.  The other seven
families are ``DETECT_ONLY``: their records are mined and serialized, and
propagating them is a no-op, since residual-activity tightening of their
evidence rows (``propagate_block_fixpoint``) already does all their rules
could.  Each looped propagator is a shape check plus one round, which
``_fixpoint`` repeats until a round adds no reduction or
``max_fixpoint_rounds`` is spent (``budget_hit``).  DisjPolyhedral runs
once; ``run_fixpoint`` round-robins records.

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
    "DETECT_ONLY",
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


# ---------------------------------------------------------------------------
# the handler table, record dispatch and the global fixpoint


# family -> its propagator, called as (record.params, box, config); only
# families whose rule prunes beyond the rows the record came from
_HANDLERS = {
    Family.CHANNEL: _channel,
    Family.ONE_HOT_RESOURCE: propagate_one_hot_resource,
    Family.BOTTLENECK_EXACT_ONE: propagate_bottleneck_exact_one,
    Family.DISJ_POLYHEDRAL: propagate_disj_polyhedral,
}

# families propagate_record can dispatch; the verification ladder checks
# registration against this set and DETECT_ONLY
HANDLED_FAMILIES: frozenset[Family] = frozenset(_HANDLERS)

# families that are detected and serialized but have no propagator: their
# rules (exact-one, counting, capacity, run-length and window rows) are
# residual-activity tightening of their own evidence rows, which the
# all-rows fixpoint already runs
DETECT_ONLY: frozenset[Family] = frozenset(
    {
        Family.ALL_DIFFERENT,
        Family.CARDINALITY,
        Family.CUMULATIVE,
        Family.NVALUE,
        Family.STRETCH,
        Family.ROSTERING_WINDOW,
        Family.UNIT_COMMITMENT_RAMP,
    }
)


def propagate_record(
    model: MipModel,
    record: SemanticRecord,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Run the family's propagator for one record against the box.

    A detect-only record leaves the box alone and reports no call.  No
    propagator reads ``model``; it stays so every record call has one shape.
    """
    propagate = _HANDLERS.get(record.family)
    if propagate is not None:
        return propagate(record.params, box, config)
    if record.family in DETECT_ONLY:
        return PropagationOutcome()
    raise ValueError(f"no propagator for {record.family.value}")


def run_fixpoint(
    model: MipModel,
    records: Sequence[SemanticRecord],
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Round-robin all records until stable.

    Only record propagators run here; the model's rows are tightened by
    ``propagate_block_fixpoint``, which ``search.propagate_node`` alternates
    with this loop, so the benchmark can tell handler work from row
    reasoning.
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
