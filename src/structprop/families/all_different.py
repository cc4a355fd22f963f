"""AllDifferent: a square assignment grid of exact-one item rows crossed by
value rows.

Detect-only: tightening the item and value rows does all a rule could."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..rowview import ModelView
from ..model import INF
from ..records import Family, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder, _components


@dataclass(frozen=True, slots=True)
class AllDifferentParams:
    """Assignment grid: item groups are exact-one rows, value groups consume."""

    item_groups: Unordered[Unordered[Var]]
    value_groups: Unordered[Unordered[Var]]
    symmetric: bool  # both partitions came from equality rows

    def canonical_key(self, key):
        # when both partitions are equality rows, either one may be the items
        if not self.symmetric:
            return key(self)
        swapped = replace(self, item_groups=self.value_groups, value_groups=self.item_groups)
        return frozenset({key(self), key(swapped)})


def detect_alldifferent(view: ModelView, config) -> list[SemanticRecord]:
    """Square assignment grids: n exact-one rows crossed by n value rows."""
    eq = [(u.row, u.support) for u in view.exact_ones if len(u.support) >= 3]
    am = [(u.row, u.support) for u in view.at_most_ones if len(u.support) >= 3]
    pool = eq + am
    n_eq = len(eq)
    records = []
    for comp in _components(pool):
        eq_part = [pool[i] for i in comp if i < n_eq]
        am_part = [pool[i] for i in comp if i >= n_eq]
        if am_part:
            items, values, symmetric = eq_part, am_part, False
        elif eq_part:
            # all rows are equalities: split into the two disjointness classes
            first_sup = set(eq_part[0][1])
            items = [r for r in eq_part if not first_sup & set(r[1])] + [eq_part[0]]
            values = [r for r in eq_part if first_sup & set(r[1]) and r != eq_part[0]]
            symmetric = True
        else:
            continue
        record = _check_grid(items, values, symmetric)
        if record is not None:
            records.append(record)
    return records


def _check_grid(items, values, symmetric) -> SemanticRecord | None:
    n = len(items)
    if n < 3 or len(values) != n:
        return None
    item_sets = [set(sup) for _, sup in items]
    value_sets = [set(sup) for _, sup in values]
    if any(len(s) != n for s in item_sets + value_sets):
        return None
    item_union: set[int] = set()
    for s in item_sets:
        if item_union & s:
            return None
        item_union |= s
    value_union: set[int] = set()
    for s in value_sets:
        if value_union & s:
            return None
        value_union |= s
    if item_union != value_union or len(item_union) != n * n:
        return None
    for iset in item_sets:
        for vset in value_sets:
            if len(iset & vset) != 1:
                return None
    params = AllDifferentParams(
        item_groups=tuple(tuple(sorted(s)) for s in item_sets),
        value_groups=tuple(tuple(sorted(s)) for s in value_sets),
        symmetric=symmetric,
    )
    evidence = tuple(rid for rid, _ in items) + tuple(rid for rid, _ in values)
    return SemanticRecord(Family.ALL_DIFFERENT, tuple(sorted(item_union)), params, evidence)


def _plant(rng, sizes):
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


SPEC = FamilySpec(
    Family.ALL_DIFFERENT, AllDifferentParams, detect_alldifferent, None, _plant, {"n": 3}
)
