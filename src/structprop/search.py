"""Depth-first search over integer domains driven by propagation.

Every node, the root included, takes one step: the rows and the records
tighten its box to a fixpoint (``propagate_node``), and then the node is
pruned or split.  The tree prunes three ways: row-interval contradiction,
a record propagator's cutoff, and an objective interval bound that cannot
beat the incumbent.  The bound works on the minimization form the model
stores, so maximization models need no special case.  With no objective
every leaf is optimal, so once the first leaf is found the bound prunes
every open node.  There is no LP relaxation.  Statistics count
record-propagator work only (calls, reductions, cutoffs, time), so a
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


def _objective_value(objective, values: dict[int, float]) -> float:
    return sum(c * values[v] for v, c in objective)


class _Search:
    def __init__(self, model, records, config):
        self.model = model
        self.records = list(records)
        self.config = config
        self.stats = SearchStats()
        self.incumbent: dict[int, float] | None = None
        self.incumbent_value = 0.0
        self.int_ids = [v.id for v in model.variables if v.is_integer]
        self.deadline = time.monotonic() + config.time_limit

    def propagate(self, box: DomainBox) -> bool:
        """Tighten the node's box; True means the node is pruned."""
        rows, by_records = propagate_node(self.model, self.records, box)
        self.stats.handler_calls += by_records.calls
        self.stats.domain_reductions += by_records.domain_reductions
        self.stats.cutoffs += by_records.cutoffs
        self.stats.prop_time += by_records.prop_time
        return rows.cutoff or by_records.cutoff

    def bound_prunes(self, box: DomainBox) -> bool:
        if self.incumbent is None:
            return False
        # least objective value (minimization form) any point of the box attains
        bound, _ = activity_range(self.model.objective, box)
        return bound >= self.incumbent_value - FEAS_TOL

    def take_leaf(self, box: DomainBox) -> None:
        values = {v: float(round(box.lower[v])) for v in self.int_ids}
        value = _objective_value(self.model.objective, values)
        if self.incumbent is None or value < self.incumbent_value - FEAS_TOL:
            self.incumbent = values
            self.incumbent_value = value

    def out_of_budget(self) -> bool:
        return (
            self.stats.nodes >= self.config.node_limit
            or time.monotonic() > self.deadline
        )

    def run(self) -> None:
        # the budget is checked only between nodes, so the root always runs.
        # set_lower/set_upper report every crossing they make, so only the
        # declared box can be empty unnoticed: it is checked once, here
        stack = [DomainBox.from_model(self.model)]
        if stack[0].is_empty():
            self.stats.nodes = 1
            stack.clear()
        while stack:
            box = stack.pop()
            self.stats.nodes += 1
            if not self.propagate(box):
                self.expand(box, stack)
            if stack and self.out_of_budget():
                break
        if stack:  # stopped with open nodes: the budget ran out
            self.stats.status = "limit"
        elif self.incumbent is not None:
            self.stats.status = "optimal"
        else:
            self.stats.status = "infeasible"

    def expand(self, box: DomainBox, stack: list[DomainBox]) -> None:
        lower, upper = box.lower, box.upper
        var = next((v for v in self.int_ids if upper[v] - lower[v] > 0.5), None)
        if var is None:
            self.take_leaf(box)
            return
        if self.bound_prunes(box):
            return
        if not (math.isfinite(lower[var]) and math.isfinite(upper[var])):
            raise ValueError(f"integer variable {var} has an infinite domain")
        mid = (int(round(lower[var])) + int(round(upper[var]))) // 2
        high = box.copy()
        high.lower[var] = float(mid + 1)
        upper[var] = float(mid)  # the node's own box is the lower half
        stack.append(high)
        stack.append(box)  # lower half explored first


def dfs_solve(
    model: MipModel,
    records: list[SemanticRecord],
    config: SearchConfig | None = None,
) -> tuple[dict[int, float] | None, SearchStats]:
    """Solve by propagation-guided DFS; returns (incumbent, stats).

    Every node, the root included, takes the same step: count it, run
    ``propagate_node`` with the rows and the records, then prune it or
    branch.  ``records=[]`` is therefore the baseline configuration: the
    same rows tighten every node, and no record is called.
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
    search = _Search(model, records, config)
    search.run()
    return search.incumbent, search.stats
