"""OneHotResource: disjoint one-hot groups coupled through a shared
capacity row."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView
from ..model import (
    FEAS_TOL, INF, DomainBox, Integrality, PropagationOutcome, activity_range, set_upper,
)
from ..propagate import _binary_groups, _live
from ..records import Family, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class OneHotResourceParams:
    groups: Unordered[Unordered[tuple[Var, float]]]  # per group: (var, cost)
    budget: float
    external_min: float


def detect_one_hot_resource(view: ModelView, config) -> list[SemanticRecord]:
    """Disjoint one-hot groups coupled through a shared capacity row."""
    group_of = view.exact_one_of
    records = []
    used_groups: set[int] = set()
    for facet in view.facets:
        if any(v in group_of and group_of[v] is None for v in facet.vars):
            continue  # a variable in two exact-one rows
        inside: dict[int, set[int]] = defaultdict(set)
        cost: dict[int, float] = {}
        external = []
        for v, c in zip(facet.vars, facet.coeffs):
            rid = group_of.get(v)
            if rid is None:
                external.append((v, c))
            else:
                inside[rid].add(v)
                cost[v] = c
        if len(inside) < 2:
            continue
        members = {rid: view.units[rid].support for rid in inside}
        if any(set(members[rid]) != vars_ for rid, vars_ in inside.items()):
            continue  # a partially covered group is not a capacity row
        if used_groups & set(inside):
            continue
        external_min, _ = activity_range(external, view.box)
        if external_min == -INF:
            continue
        groups = tuple(tuple((v, cost[v]) for v in sorted(members[rid])) for rid in sorted(inside))
        params = OneHotResourceParams(groups, facet.bound, external_min)
        scope = tuple(sorted(v for rid in inside for v in members[rid]))
        evidence = tuple(sorted(inside)) + (facet.row,)
        records.append(SemanticRecord(Family.ONE_HOT_RESOURCE, scope, params, evidence))
        used_groups.update(inside)
    return records


def _rule(params: OneHotResourceParams, box: DomainBox, out: PropagationOutcome) -> bool:
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


def _plant(rng, sizes):
    n_groups = int(sizes["groups"])
    n_options = int(sizes["options"])
    if n_groups < 2 or n_options < 2:
        raise ValueError("OneHotResource needs >= 2 groups and >= 2 options")
    mb = _Builder()
    y = [[mb.binary(f"opt_g{g + 1}_k{k + 1}") for k in range(n_options)] for g in range(n_groups)]
    costs = [[rng.randint(1, 5) for _ in range(n_options)] for _ in range(n_groups)]
    while max(costs[0]) == min(costs[0]):  # keep headroom above the witness pick
        costs[0] = [rng.randint(1, 5) for _ in range(n_options)]
    chosen = [rng.randrange(n_options) for _ in range(n_groups)]
    chosen[0] = costs[0].index(min(costs[0]))

    evidence = []
    for g in range(n_groups):
        evidence.append(mb.row(f"choose_g{g + 1}", [(v, 1.0) for v in y[g]], 1, 1))
    cap_terms = [(y[g][k], float(costs[g][k])) for g in range(n_groups) for k in range(n_options)]
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


SPEC = FamilySpec(
    Family.ONE_HOT_RESOURCE, OneHotResourceParams, detect_one_hot_resource, _rule, _plant,
    {"groups": 3, "options": 2},
)
