"""Depth-first search over integer domains driven by propagation.

Every node, the root included, takes one step: the rows and the records
tighten its box to a fixpoint (``propagate_node``), and then the node is
pruned, taken or split.  The tree prunes three ways: row-interval
contradiction, a record propagator's cutoff, and an objective bound that
cannot beat the incumbent.  The bound is the least objective value over the
box (``activity_range``); at a leaf, where every integer is fixed, it is
the leaf's own value, so one comparison both prunes an inner node and
decides whether a leaf becomes the incumbent.  It reads the minimization
form the model stores, so maximization models need no special case.  With
no objective every leaf is optimal, so once the first leaf is found the
bound prunes every open node.  There is no LP relaxation.  Statistics
count record-propagator work only (calls, reductions, cutoffs, time), so a
baseline run with no records reports zeros there while still doing
row-level tightening at every node; that separation is what the benchmark
tables compare.

An incumbent assigns every integer variable.  Continuous variables stay as
interval-consistent boxes around the integer leaf, the same feasibility
notion the enumeration oracle uses, so search optima and oracle optima are
directly comparable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .model import FEAS_TOL, DomainBox, MipModel, PropagationOutcome, activity_range
from .propagate import (
    PropagatorConfig,
    propagate_block_fixpoint,
    run_fixpoint,
)
from .records import SemanticRecord

__all__ = [
    "SearchConfig",
    "SearchStats",
    "dfs_solve",
    "propagate_node",
    "stats_to_json",
]

@dataclass(frozen=True)
class SearchConfig:
    node_limit: int = 1_000_000
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")
        if not self.time_limit > 0:  # NaN too
            raise ValueError("time_limit must be positive")


@dataclass
class SearchStats:
    nodes: int = 0
    handler_calls: int = 0
    domain_reductions: int = 0
    cutoffs: int = 0
    prop_time: float = 0.0
    status: str = "limit"


def stats_to_json(stats: SearchStats) -> dict:
    return {
        "calls": stats.handler_calls,
        "domain_reductions": stats.domain_reductions,
        "cutoffs": stats.cutoffs,
        "prop_time_ms": stats.prop_time * 1000.0,
        "nodes": stats.nodes,
        "status": stats.status,
    }


def propagate_node(
    model: MipModel,
    records: Sequence[SemanticRecord],
    box: DomainBox,
) -> tuple[PropagationOutcome, PropagationOutcome]:
    """Tighten one box with the model's rows and the records until stable.

    Each round runs ``propagate_block_fixpoint`` over all rows, then, when
    there are records, ``run_fixpoint`` over them; rounds repeat while the
    records change the box, at most ``max_fixpoint_rounds`` times (then the
    rows outcome reads ``budget_hit``).  Returns the rows' and the records'
    outcomes summed over the rounds; a ``cutoff`` in either empties the box.
    """
    config = PropagatorConfig()
    rows, by_records = PropagationOutcome(), PropagationOutcome()
    for _ in range(config.max_fixpoint_rounds):
        rows.absorb(propagate_block_fixpoint(model.rows, box, config))
        if rows.cutoff or not records:
            break
        step = run_fixpoint(model, records, box, config)
        by_records.absorb(step)
        if step.cutoff or not step.domain_reductions:
            break
    else:
        rows.budget_hit = True
    return rows, by_records


def dfs_solve(
    model: MipModel,
    records: list[SemanticRecord],
    config: SearchConfig | None = None,
) -> tuple[dict[int, float] | None, SearchStats]:
    """Solve by propagation-guided DFS; returns (incumbent, stats).

    Every node, the root included, takes the same step: count it, run
    ``propagate_node`` with the rows and the records, then read its
    objective bound once.  ``records=[]`` is therefore the baseline
    configuration: the same rows tighten every node, and no record is
    called.  A node whose bound cannot beat the incumbent is pruned; a
    surviving leaf becomes the incumbent with its bound as the value; any
    other node branches.  The budget is checked only between nodes, so the
    root always runs.
    Branching splits the lowest-id unfixed integer variable's domain at the
    floored midpoint, lower half first.  An integer whose domain is still
    infinite where it must be split raises ``ValueError``, so a declared
    infinite bound that the rows tighten away is fine.  The incumbent maps
    integer variable ids to values and minimizes the model's stored
    (minimization form) objective; an objective touching a continuous
    variable is rejected.
    """
    config = config or SearchConfig()
    for v, _ in model.objective:
        if not model.variables[v].is_integer:
            raise ValueError(f"objective variable {v} is continuous")
    int_ids = [v.id for v in model.variables if v.is_integer]
    deadline = time.monotonic() + config.time_limit
    stats = SearchStats()
    incumbent: dict[int, float] | None = None
    best = 0.0
    # set_lower/set_upper report every crossing they make, so only the
    # declared box can be empty unnoticed: it is checked once, here
    stack = [DomainBox.from_model(model)]
    if stack[0].is_empty():
        stats.nodes = 1
        stack.clear()
    while stack:
        if stats.nodes and (stats.nodes >= config.node_limit or time.monotonic() > deadline):
            break
        box = stack.pop()
        stats.nodes += 1
        rows, by_records = propagate_node(model, records, box)
        stats.handler_calls += by_records.calls
        stats.domain_reductions += by_records.domain_reductions
        stats.cutoffs += by_records.cutoffs
        stats.prop_time += by_records.prop_time
        if rows.cutoff or by_records.cutoff:
            continue
        # least objective value (minimization form) any point of the box
        # attains; at a leaf it is the leaf's own value
        bound, _ = activity_range(model.objective, box)
        if incumbent is not None and bound >= best - FEAS_TOL:
            continue
        lower, upper = box.lower, box.upper
        var = next((v for v in int_ids if upper[v] - lower[v] > 0.5), None)
        if var is None:
            incumbent = {v: float(round(lower[v])) for v in int_ids}
            best = bound
            continue
        if not (math.isfinite(lower[var]) and math.isfinite(upper[var])):
            raise ValueError(f"integer variable {var} has an infinite domain")
        mid = (int(round(lower[var])) + int(round(upper[var]))) // 2
        high = box.copy()
        high.lower[var] = float(mid + 1)
        upper[var] = float(mid)  # the node's own box is the lower half
        stack.append(high)
        stack.append(box)  # lower half explored first
    if stack:  # stopped with open nodes: the budget ran out
        stats.status = "limit"
    elif incumbent is not None:
        stats.status = "optimal"
    else:
        stats.status = "infeasible"
    return incumbent, stats
