"""BottleneckExactOne: exact-one selector groups whose weights push a
shared max variable, with optional activators closed by a counting row.

A bottleneck whose link rows miss one selector of a touched group gives no
record.  Detect-only: a rule could add beyond the rows only a max-min floor
on the continuous bottleneck variable, and nothing reads it: no row turns
it into an integer bound, the generators never price the variable, and
``dfs_solve`` rejects an objective on a continuous variable."""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from ..rowview import ModelView, UnitView
from ..model import FEAS_TOL, INF
from ..records import Family, Row, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class ActivatorSpec:
    selector_to_activator: Unordered[tuple[Var, Var]]  # names every activator
    count: int
    count_row: Row


@dataclass(frozen=True, slots=True)
class BottleneckExactOneParams:
    bottleneck_var: Var
    groups: Unordered[Unordered[tuple[Var, float]]]  # per group: (selector, weight)
    activators: ActivatorSpec | None


def detect_bottleneck_exact_one(view: ModelView, config) -> list[SemanticRecord]:
    """Exact-one selector groups whose weights push a shared max variable."""
    floors_of: dict[int, list[tuple[int, int, float]]] = defaultdict(list)  # by z
    for rid, x, z, w in view.floors:
        floors_of[z].append((rid, x, w))
    group_of = view.exact_one_of
    count_rows = functools.cache(lambda: _count_rows(view))  # first lookup builds it
    records = []
    for z in sorted(floors_of):
        weight: dict[int, float] = {}
        link_rows: dict[int, int] = {}
        touched_groups: set[int] = set()
        clean = True
        for rid, x, w in floors_of[z]:
            if x in weight or group_of.get(x) is None:
                clean = False
                break
            weight[x] = w
            link_rows[x] = rid
            touched_groups.add(group_of[x])
        if not clean or len(touched_groups) < 2:
            continue
        selectors = [v for rid in touched_groups for v in view.units[rid].support]
        if not all(v in weight for v in selectors):
            continue  # a selector without its link row
        groups = tuple(
            tuple((v, weight[v]) for v in sorted(view.units[rid].support))
            for rid in sorted(touched_groups)
        )
        evidence = sorted(touched_groups) + sorted(link_rows.values())
        scope = sorted(selectors) + [z]
        activators = _find_activators(view, set(selectors), count_rows)
        if activators is not None:
            spec, act_rows = activators
            evidence.extend(act_rows)
            scope.extend(sorted({a for _, a in spec.selector_to_activator}))
            activators = spec
        params = BottleneckExactOneParams(bottleneck_var=z, groups=groups, activators=activators)
        records.append(
            SemanticRecord(
                Family.BOTTLENECK_EXACT_ONE, tuple(scope), params, tuple(evidence)
            )
        )
    return records


def _count_rows(view: ModelView) -> dict[frozenset[int], UnitView]:
    """The first row ``sum(support) == k``, 1 <= k <= |support|, per support."""
    by_support: dict[frozenset[int], UnitView] = {}
    for u in view.units.values():
        if not (u.is_equality and u.lower == u.upper):
            continue
        count = round(u.lower)
        if abs(u.lower - count) <= FEAS_TOL and 1 <= count <= len(set(u.support)):
            by_support.setdefault(frozenset(u.support), u)
    return by_support


def _find_activators(view: ModelView, selectors: set[int],
                     count_rows: Callable[[], dict[frozenset[int], UnitView]]):
    """Selector-to-activator implications closed by a counting equality row.

    ``count_rows()`` returns the :func:`_count_rows` index.
    """
    mapping = []
    act_rows = []
    activators: set[int] = set()
    for x in sorted(selectors):
        edges = [(y, rid) for y, rid in view.implications.get(x, ()) if y not in selectors]
        if len(edges) != 1:
            return None
        act, rid = edges[0]
        mapping.append((x, act))
        act_rows.append(rid)
        activators.add(act)
    u = count_rows().get(frozenset(activators))
    if u is None:
        return None
    spec = ActivatorSpec(
        selector_to_activator=tuple(mapping),
        count=int(round(u.lower)),
        count_row=u.row,
    )
    return spec, act_rows + [u.row]


def _plant(rng, sizes):
    n_groups = int(sizes["groups"])
    n_options = int(sizes["options"])
    if n_groups < 2 or n_options < 2:
        raise ValueError("BottleneckExactOne needs >= 2 groups and >= 2 options")
    with_activators = sizes.get("activators", -1)
    if with_activators == -1:
        with_activators = 1 if rng.random() < 0.5 else 0

    mb = _Builder()
    x = [[mb.binary(f"pick_i{i + 1}_j{j + 1}") for j in range(n_options)] for i in range(n_groups)]
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
        activators=activators,
    )
    record = SemanticRecord(Family.BOTTLENECK_EXACT_ONE, scope, params, tuple(evidence))
    return mb, record, witness


SPEC = FamilySpec(
    Family.BOTTLENECK_EXACT_ONE, BottleneckExactOneParams, detect_bottleneck_exact_one,
    None, _plant, {"groups": 2, "options": 3, "activators": -1},
)
