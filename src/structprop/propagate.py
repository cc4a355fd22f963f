"""Per-record bound tightening: one dispatch, one loop over records.

Each family's record rule lives in its ``structprop.families`` module, and
``propagate_record`` calls the rule ``families.FAMILIES`` holds for the
record's family when it runs.  Only Channel, OneHotResource and
DisjPolyhedral have one, because only their rules prune integer values that
the rows the record came from cannot, and a rule holds only that reasoning.
Each of the three records comes with an exact-one row (pick-one, group or
selector row), and that row closes the group: once all members but one are
fixed out, its residual-activity step fixes the last one in, and
``search.propagate_node`` runs the rows again after every record round that
changed the box.  The other eight families are detect-only (rule None, each
module says why): their records are mined and serialized, and propagating
them is a no-op.

A rule has the shape of the row kernel ``model.tighten_row``:
``rule(params, box, out) -> bool``.  It makes one pass, writes bounds into
the caller's ``out`` and returns True on a cutoff; it neither counts nor
times itself.  ``propagate_record`` alone turns one rule call into an
outcome (one call, its time, and the cutoff), as ``propagate_block_fixpoint``
does for a row sweep.  Only drivers repeat work until nothing changes: here
``run_fixpoint`` round-robins the records and ``propagate_block_fixpoint``
sweeps a row block, each for at most ``max_fixpoint_rounds`` rounds before
it sets ``budget_hit``; the one other repeat loop,
``search.propagate_node``, alternates the two under the same cap.

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
    BoundChange,
    DomainBox,
    LinearRow,
    MipModel,
    PropagationOutcome,
    tighten_row,
)
from .records import SemanticRecord, _families

__all__ = [
    "BoundChange",
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
# shape checks the family rules share


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
                out.cutoffs = 1
                break
        if out.cutoff or out.domain_reductions == before:
            break
    else:
        out.budget_hit = True
    out.prop_time = time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# record dispatch and the global fixpoint


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
    rule = _families()[record.family].rule
    if rule is None:
        return PropagationOutcome()
    started = time.perf_counter()
    out = PropagationOutcome(calls=1)
    if rule(record.params, box, out):
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
