"""Per-record bound tightening: one handler table, one loop over records.

``_HANDLERS`` maps a family to its propagator, which reads the record's
parameters; ``propagate_record`` dispatches through it and
``HANDLED_FAMILIES`` is its key set.  Only Channel, OneHotResource,
BottleneckExactOne and DisjPolyhedral have one, because only their rules
prune values that the rows the record came from cannot.  The other seven
families are ``DETECT_ONLY``: their records are mined and serialized, and
propagating them is a no-op, since residual-activity tightening of their
evidence rows (``propagate_block_fixpoint``) already does all their rules
could.

Each record propagator makes one pass over its record and returns; none
repeats itself.  Two drivers repeat work until nothing changes:
``run_fixpoint`` round-robins the records and ``propagate_block_fixpoint``
sweeps a row block.  Each stops after ``max_fixpoint_rounds`` rounds and
then sets ``budget_hit``.

Propagators tighten a mutable DomainBox in place and report what they did
through a PropagationOutcome.  Two properties are load-bearing everywhere:

* soundness: a tightening may never exclude a point that satisfies the
  record's encoding rows, and ``cutoff`` is raised only when no feasible
  point survives in the box;
* conservative failure: when the box violates a record's structural
  assumptions (a one-hot group member that is not binary, say), the
  propagator returns an empty outcome instead of guessing.

Every bound is written through ``model.set_lower``/``set_upper``, the one
write rule rows use too: integer bounds round inward, and a change counts
only when it beats the old bound by more than ``FEAS_TOL``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .model import (
    FEAS_TOL,
    INF,
    BoundChange,
    DomainBox,
    LinearRow,
    MipModel,
    PropagationOutcome,
    set_lower,
    set_upper,
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
    """The round cap shared by the propagation loops.

    ``max_fixpoint_rounds`` caps each loop that repeats work until stable:
    ``run_fixpoint``'s round-robin over records, ``propagate_block_fixpoint``'s
    sweeps over rows and ``search.propagate_node``'s alternation of the two.
    A record propagator makes one pass; DisjPolyhedral hands the cap on to
    the block fixpoint of each branch.
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
        "budget_hit": outcome.budget_hit,
        "prop_time_ms": outcome.prop_time * 1000.0,
        "bound_changes": [
            {"var": c.var, "side": c.which, "old": num(c.old), "new": num(c.new)}
            for c in outcome.bound_changes
        ],
    }


# ---------------------------------------------------------------------------
# small shared pieces


def _finish(
    out: PropagationOutcome, started: float, cutoff: bool = False
) -> PropagationOutcome:
    if cutoff:
        out.cutoff = True
        out.cutoffs = 1
    out.prop_time = time.perf_counter() - started
    return out


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
                cut |= set_upper(box, out, v, 0.0)
        return cut
    live = [v for v in members if _live(box, v)]
    if not live:
        return True
    if len(live) == 1:
        return set_lower(box, out, live[0], 1.0)
    return False


# ---------------------------------------------------------------------------
# row blocks and composite-family propagators


def propagate_block_fixpoint(
    rows: Sequence[LinearRow],
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Residual-activity tightening over a row block until stable.

    Sweeps ``tighten_row`` over the rows until a row cuts off, a sweep adds
    no reduction, or ``config.max_fixpoint_rounds`` sweeps have run, which
    sets ``budget_hit``.  Counts as one call.
    """
    config = config or PropagatorConfig()
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
    for _ in range(config.max_fixpoint_rounds):
        before = out.domain_reductions
        for row in rows:
            step = tighten_row(row, box)
            out.bound_changes.extend(step.bound_changes)
            out.domain_reductions += step.domain_reductions
            if step.cutoff:
                return _finish(out, started, cutoff=True)
        if out.domain_reductions == before:
            break
    else:
        out.budget_hit = True
    return _finish(out, started)


def propagate_one_hot_resource(
    params: OneHotResourceParams,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Cheapest-basket reasoning over one-hot groups under a budget.

    The basket cost is the external floor plus each group's cheapest live
    option.  The basket exceeding the budget is a cutoff; an option whose
    swap-in cost exceeds the remaining slack is fixed out; groups then close
    under the exactly-one rule.  One pass; ``run_fixpoint`` repeats it.
    """
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
    members = [v for group in params.groups for v, _ in group]
    if (
        not params.groups
        or any(not group for group in params.groups)
        or len(set(members)) != len(members)
        or not _all_binary(box, members)
    ):
        return _finish(out, started)
    mins = []
    for group in params.groups:
        live_costs = [c for v, c in group if _live(box, v)]
        if not live_costs:
            return _finish(out, started, cutoff=True)
        mins.append(min(live_costs))
    basket = params.external_min + sum(mins)
    if basket > params.budget + FEAS_TOL:
        return _finish(out, started, cutoff=True)

    cut = False
    for cheapest, group in zip(mins, params.groups):
        slack = params.budget - (basket - cheapest)
        for v, cost in group:
            if _live(box, v) and cost > slack + FEAS_TOL:
                cut |= set_upper(box, out, v, 0.0)
    for group in params.groups:
        cut |= _exact_one_closure(box, out, [v for v, _ in group])
    return _finish(out, started, cutoff=cut)


def propagate_bottleneck_exact_one(
    params: BottleneckExactOneParams,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Max-min lower bound on the bottleneck plus weight elimination.

    Groups whose live selectors all carry known weights push lb(z) up to
    their cheapest option; any selector priced above ub(z) is fixed out;
    selector groups close under exactly-one.  With activators present the
    link implications run both ways and the open count propagates as a
    residual cardinality.  Selectors without a known weight are never
    eliminated and their groups never raise the bound.  One pass.
    """
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
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
        return _finish(out, started)
    to_activator = dict(activators.selector_to_activator) if activators else {}
    cut = False

    floor = -INF
    for group in params.groups:
        live = [(v, w) for v, w in group if _live(box, v)]
        if not live:
            return _finish(out, started, cutoff=True)
        if all(w is not None for _, w in live):
            floor = max(floor, min(w for _, w in live))
    for group in params.groups:
        for v, w in group:
            if w is not None and _fixed_in(box, v):
                floor = max(floor, w)
    if floor > -INF:
        cut |= set_lower(box, out, z, floor)

    ceiling = box.upper[z]
    for group in params.groups:
        for v, w in group:
            if w is not None and _live(box, v) and w > ceiling + FEAS_TOL:
                cut |= set_upper(box, out, v, 0.0)

    if activators is not None:
        for v in selectors:
            y = to_activator.get(v)
            if y is None:
                continue
            if _fixed_in(box, v):
                cut |= set_lower(box, out, y, 1.0)
            if not _live(box, y) and _live(box, v):
                cut |= set_upper(box, out, v, 0.0)
        forced = sum(1 for y in activator_vars if _fixed_in(box, y))
        open_slots = sum(1 for y in activator_vars if _live(box, y))
        if forced > activators.count or open_slots < activators.count:
            cut = True
        elif forced == activators.count:
            for y in activator_vars:
                if _live(box, y) and not _fixed_in(box, y):
                    cut |= set_upper(box, out, y, 0.0)
        elif open_slots == activators.count:
            for y in activator_vars:
                if _live(box, y) and not _fixed_in(box, y):
                    cut |= set_lower(box, out, y, 1.0)

    for group in params.groups:
        cut |= _exact_one_closure(box, out, [v for v, _ in group])

    return _finish(out, started, cutoff=cut or box.lower[z] > box.upper[z] + FEAS_TOL)


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
            return set_upper(box, out, branch.selector_var, 0.0)
        return set_lower(box, out, branch.selector_var, 1.0)

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
            cut |= set_lower(box, out, survivor.selector_var, 1.0)
        else:
            cut |= set_upper(box, out, survivor.selector_var, 0.0)

    for var in params.touched:
        cut |= set_lower(box, out, var, min(local_boxes[i].lower[var] for i in viable))
        cut |= set_upper(box, out, var, max(local_boxes[i].upper[var] for i in viable))
    return _finish(out, started, cutoff=cut)


# ---------------------------------------------------------------------------
# table-family propagators


def _channel(
    params, box: DomainBox, config: PropagatorConfig | None = None
) -> PropagationOutcome:
    """Indicators one-hot over the values of the link variable ``x``.

    An indicator whose value lies outside x's bounds is fixed out; the
    indicators close under exactly-one; x then tightens to the range of the
    values still live.  One pass.
    """
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
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
        return _finish(out, started)
    cut = False
    for value, v in params.indicators:
        if _live(box, v) and (
            value < box.lower[x] - FEAS_TOL or value > box.upper[x] + FEAS_TOL
        ):
            cut |= set_upper(box, out, v, 0.0)
    cut |= _exact_one_closure(box, out, indicators)
    live_values = [value for value, v in params.indicators if _live(box, v)]
    if not live_values:
        return _finish(out, started, cutoff=True)
    cut |= set_lower(box, out, x, min(live_values))
    cut |= set_upper(box, out, x, max(live_values))
    return _finish(out, started, cutoff=cut)


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
    """Call the records round-robin until stable.

    This is the only loop that repeats record propagators, each of which
    makes one pass per call.  A round calls every record once; rounds repeat
    until one adds no reduction or a record cuts off.  After
    ``config.max_fixpoint_rounds`` rounds the loop stops with ``budget_hit``
    set, and the box may not be stable.

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
