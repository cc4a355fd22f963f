"""Per-record bound tightening: one handler table, one loop over records.

``_HANDLERS`` maps a family to its rule, which reads the record's
parameters; ``propagate_record`` dispatches through it and
``HANDLED_FAMILIES`` is its key set.  Only the three families Channel,
OneHotResource and DisjPolyhedral have one, because only their rules prune
integer values that the rows the record came from cannot, and a rule holds
only that reasoning.  Each of the three records comes with an exact-one row
(pick-one, group or selector row), and that row closes the group: once all
members but one are fixed out, its residual-activity step fixes the last
one in, and ``search.propagate_node`` runs the rows again after every
record round that changed the box.  The other eight families are
``DETECT_ONLY``: their records are mined and serialized, and propagating
them is a no-op.  For seven of them residual-activity tightening of their
evidence rows (``propagate_block_fixpoint``) already does all their rules
could; BottleneckExactOne's rule did more only on the continuous bottleneck
variable, which nothing in the search reads.

A rule has the shape of the row kernel ``model.tighten_row``:
``rule(params, box, out) -> bool``.  It makes one pass, writes bounds into
the caller's ``out`` and returns True on a cutoff; it neither counts nor
times itself.  ``propagate_record`` alone turns one rule call into an
outcome (one call, its time, and the cutoff), as ``propagate_block_fixpoint``
does for a row sweep.  Only drivers repeat work until nothing changes: here
``run_fixpoint`` round-robins the records and ``propagate_block_fixpoint``
sweeps a row block, each for at most ``max_fixpoint_rounds`` rounds before
it sets ``budget_hit``; the one other repeat loop,
``search.propagate_node``, alternates the two.

Two properties of a rule are load-bearing everywhere:

* soundness: a tightening may never exclude a point that satisfies the
  record's encoding rows, and a cutoff is raised only when no feasible
  point survives in the box;
* conservative failure: when the box violates a record's structural
  assumptions (a one-hot group member that is not binary, say), the rule
  changes nothing instead of guessing.

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
    ChannelParams,
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
    "propagate_record",
    "run_fixpoint",
]


@dataclass(frozen=True)
class PropagatorConfig:
    """The round cap shared by the propagation loops.

    ``max_fixpoint_rounds`` caps each loop that repeats work until stable:
    ``run_fixpoint``'s round-robin over records, ``propagate_block_fixpoint``'s
    sweeps over rows and ``search.propagate_node``'s alternation of the two.
    A record's rule makes one pass and takes no cap.
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


def _binary_like(box: DomainBox, var: int) -> bool:
    return (
        0 <= var < len(box)
        and box.integer_mask[var]
        and box.lower[var] >= -FEAS_TOL
        and box.upper[var] <= 1.0 + FEAS_TOL
    )


def _all_binary(box: DomainBox, vars_: Sequence[int]) -> bool:
    return all(_binary_like(box, v) for v in vars_)


def _binary_groups(box: DomainBox, groups) -> bool:
    """Groups of ``(var, weight)`` pairs fit the one-hot rule: there is at
    least one, none is empty, no member repeats and every member is binary."""
    members = [v for group in groups for v, _ in group]
    return (
        bool(groups)
        and all(groups)
        and len(set(members)) == len(members)
        and _all_binary(box, members)
    )


def _live(box: DomainBox, var: int) -> bool:
    return box.upper[var] > 0.5


# ---------------------------------------------------------------------------
# the row block driver


def propagate_block_fixpoint(
    rows: Sequence[LinearRow],
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Residual-activity tightening over a row block until stable.

    Sweeps ``tighten_row`` over the rows until a row cuts off, a sweep adds
    no reduction, or ``config.max_fixpoint_rounds`` sweeps have run, which
    sets ``budget_hit``.  Counts and times itself as one call.
    """
    config = config or PropagatorConfig()
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
    for _ in range(config.max_fixpoint_rounds):
        before = out.domain_reductions
        for row in rows:
            if tighten_row(row, box, out):
                out.cutoff = True
                out.cutoffs = 1
                break
        if out.cutoff or out.domain_reductions == before:
            break
    else:
        out.budget_hit = True
    out.prop_time = time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# the family rules: (params, box, out) -> cutoff


def _one_hot_resource(
    params: OneHotResourceParams, box: DomainBox, out: PropagationOutcome
) -> bool:
    """Cheapest-basket reasoning over one-hot groups under a budget.

    The basket cost is the external floor plus each group's cheapest live
    option.  The basket exceeding the budget is a cutoff; an option whose
    swap-in cost exceeds the remaining slack is fixed out.  The group rows
    fix a group's last live option in.
    """
    if not _binary_groups(box, params.groups):
        return False
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
                cut |= set_upper(box, out, v, 0.0)
    return cut


def _disj_polyhedral(
    params: DisjPolyhedralParams, box: DomainBox, out: PropagationOutcome
) -> bool:
    """Constructive disjunction over guarded branches.

    Each admissible branch gets a private copy of the box and a block
    fixpoint over its stripped rows.  A branch whose copy empties is
    impossible and loses its selector value; no surviving branch is a
    cutoff.  Touched variables then tighten to the envelope of the
    surviving branch-local bounds (variables a branch never constrains keep
    their global bounds there, so the envelope cannot overtighten them).
    A single survivor needs no step of its own: for ``binary_selector`` the
    dead branch's lost value fixes the guard, and for ``exact_one_mode`` the
    selector row fixes the last live selector in.
    """
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
    elif shape_ok:  # "exact_one_mode", the other variant
        shape_ok = len(set(selectors)) == len(selectors) and all(
            b.selector_value == 1 for b in branches
        )
    if not shape_ok:
        return False

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
        if propagate_block_fixpoint(rows, local).cutoff:
            cut |= forbid(branch)
        else:
            viable.append(index)
            local_boxes[index] = local
    if not viable or cut:
        return True

    for var in params.touched:
        cut |= set_lower(box, out, var, min(local_boxes[i].lower[var] for i in viable))
        cut |= set_upper(box, out, var, max(local_boxes[i].upper[var] for i in viable))
    return cut


def _channel(params: ChannelParams, box: DomainBox, out: PropagationOutcome) -> bool:
    """Indicators one-hot over the values of the link variable ``x``.

    An indicator whose value lies outside x's bounds is fixed out; x then
    tightens to the range of the values still live.  The pick-one row fixes
    the last live indicator in.
    """
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
        return False
    cut = False
    for value, v in params.indicators:
        if _live(box, v) and (
            value < box.lower[x] - FEAS_TOL or value > box.upper[x] + FEAS_TOL
        ):
            cut |= set_upper(box, out, v, 0.0)
    live_values = [value for value, v in params.indicators if _live(box, v)]
    if not live_values:
        return True
    cut |= set_lower(box, out, x, min(live_values))
    cut |= set_upper(box, out, x, max(live_values))
    return cut


# ---------------------------------------------------------------------------
# the handler table, record dispatch and the global fixpoint


# family -> its rule, called only by propagate_record; only families whose
# rule prunes beyond the rows the record came from
_HANDLERS = {
    Family.CHANNEL: _channel,
    Family.ONE_HOT_RESOURCE: _one_hot_resource,
    Family.DISJ_POLYHEDRAL: _disj_polyhedral,
}

# families propagate_record can dispatch; the verification ladder checks
# registration against this set and DETECT_ONLY
HANDLED_FAMILIES: frozenset[Family] = frozenset(_HANDLERS)

# families that are detected and serialized but have no propagator.  Seven
# rules (exact-one, counting, capacity, run-length and window rows) are
# residual-activity tightening of their own evidence rows, which the
# all-rows fixpoint already runs.  BottleneckExactOne's rule pruned beyond
# its rows only by a max-min floor on the continuous bottleneck z, and
# nothing reads that floor: no row turns it into an integer bound, the
# generators never price z, and dfs_solve rejects an objective on a
# continuous variable
DETECT_ONLY: frozenset[Family] = frozenset(
    {
        Family.ALL_DIFFERENT,
        Family.CARDINALITY,
        Family.CUMULATIVE,
        Family.NVALUE,
        Family.STRETCH,
        Family.ROSTERING_WINDOW,
        Family.UNIT_COMMITMENT_RAMP,
        Family.BOTTLENECK_EXACT_ONE,
    }
)


def propagate_record(
    model: MipModel,
    record: SemanticRecord,
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Run the family's rule once for one record against the box.

    This is the one place a rule is called: the outcome counts one call,
    its time, and the rule's cutoff as one ``cutoffs``.  A detect-only
    record leaves the box alone and reports no call.  Neither ``model`` nor
    ``config`` is read; they stay so every record call has one shape.
    """
    rule = _HANDLERS.get(record.family)
    if rule is None:
        if record.family in DETECT_ONLY:
            return PropagationOutcome()
        raise ValueError(f"no propagator for {record.family.value}")
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
    if rule(record.params, box, out):
        out.cutoff = True
        out.cutoffs = 1
    out.prop_time = time.perf_counter() - started
    return out


def run_fixpoint(
    model: MipModel,
    records: Sequence[SemanticRecord],
    box: DomainBox,
    config: PropagatorConfig | None = None,
) -> PropagationOutcome:
    """Call the records round-robin until stable.

    This is the only loop that repeats record rules, each of which makes
    one pass per call.  A round calls every record once; rounds repeat
    until one adds no reduction or a record cuts off.  After
    ``config.max_fixpoint_rounds`` rounds the loop stops with ``budget_hit``
    set, and the box may not be stable.

    Only record rules run here; the model's rows are tightened by
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
