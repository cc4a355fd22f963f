"""Detectors for the five composite families.

These patterns span many rows with several distinct shapes, so each detector
assembles the whole structure before emitting anything: partial matches are
discarded rather than reported; a bottleneck whose link rows miss one
selector of a touched group gives no record.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Callable

from ..model import FEAS_TOL, INF, activity_range
from ..records import (
    ActivatorSpec,
    BottleneckExactOneParams,
    BranchSpec,
    DisjPolyhedralParams,
    Family,
    GeneratorSpec,
    OneHotResourceParams,
    RosteringWindowParams,
    SemanticRecord,
    StrippedRow,
    UnitCommitmentRampParams,
)
from .rowview import ModelView, UnitView


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
        groups = tuple(
            tuple((v, cost[v]) for v in sorted(members[rid]))
            for rid in sorted(inside)
        )
        params = OneHotResourceParams(groups, facet.bound, external_min)
        scope = tuple(sorted(v for rid in inside for v in members[rid]))
        evidence = tuple(sorted(inside)) + (facet.row,)
        records.append(
            SemanticRecord(Family.ONE_HOT_RESOURCE, scope, params, evidence)
        )
        used_groups.update(inside)
    return records


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
            scope.extend(spec.activator_vars)
            activators = spec
        params = BottleneckExactOneParams(
            bottleneck_var=z,
            groups=groups,
            activators=activators,
        )
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
        activator_vars=tuple(sorted(activators)),
        count=int(round(u.lower)),
        count_row=u.row,
    )
    return spec, act_rows + [u.row]


def detect_rostering_window(view: ModelView, config) -> list[SemanticRecord]:
    """Shift-assignment grids with per-day one-shift rows, coverage
    equalities, and sliding workload windows tied together per nurse."""
    dems = [
        u for u in view.units.values()
        if u.is_equality and len(u.support) >= 2 and u.binary
        and u.lower >= -FEAS_TOL and abs(u.lower - round(u.lower)) <= FEAS_TOL
    ]
    if len(dems) < 2:
        return []
    dem_of: dict[int, int] = {}
    for u in dems:
        for v in u.support:
            if v in dem_of:
                return []
            dem_of[v] = u.row
    grid_vars = set(dem_of)

    uppers = []
    lowers = []
    for row in view.active_rows:
        if row.is_equality:
            continue
        support = set(row.vars)
        if not support & grid_vars:
            continue
        u = view.units.get(row.id)
        if u is None or not support <= grid_vars:
            return []
        if row.lhs > -INF and row.rhs < INF:
            return []
        if u.upper < INF:
            uppers.append(u)
        else:
            lowers.append(u)

    # one-shift rows are the minimal upper rows; windows stack above them.
    # A strict subset of a row's support holds its own smallest variable, so
    # indexing the rows by that variable finds every candidate.
    supports = {u.row: frozenset(u.support) for u in uppers}
    by_smallest: dict[int, list[frozenset[int]]] = defaultdict(list)
    for u in uppers:
        by_smallest[min(u.support)].append(supports[u.row])
    sos = []
    composite = []
    for u in uppers:
        support = supports[u.row]
        if any(o < support for v in support for o in by_smallest.get(v, ())):
            composite.append(u)
        elif u.upper == 1.0:
            sos.append(u)
        else:
            return []
    sos_of: dict[int, int] = {}
    for u in sos:
        for v in u.support:
            if v in sos_of:
                return []
            sos_of[v] = u.row
    if set(sos_of) != grid_vars:
        return []
    if len({len(u.support) for u in sos}) != 1:
        return []

    def day_windows(u):
        rows = {sos_of[v] for v in u.support}
        if sum(len(supports_by_sos[r]) for r in rows) != len(u.support):
            return None
        return frozenset(rows)

    supports_by_sos = {u.row: u.support for u in sos}
    parent: dict[int, int] = {u.row: u.row for u in sos}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    windows = []
    for u in composite + lowers:
        rows = day_windows(u)
        if rows is None:
            return []
        windows.append((u, rows))
        anchor = next(iter(rows))
        for r in rows:
            parent[find(r)] = find(anchor)

    nurse_of = {r: find(r) for r in parent}
    nurses: dict[int, list[int]] = defaultdict(list)
    for r, n in nurse_of.items():
        nurses[n].append(r)
    if len(nurses) < 2:
        return []
    nurse_size = {n: len(rows) for n, rows in nurses.items()}

    roles: dict[str, list[int]] = defaultdict(list)
    roles["sos"] = sorted(u.row for u in sos)
    roles["dem"] = sorted(u.row for u in dems)
    hub_seen: set[int] = set()
    for u, rows in windows:
        nurse = nurse_of[next(iter(rows))]  # the union above joined all rows
        full = len(rows) == nurse_size[nurse]
        if u.upper < INF:
            role = "hub" if full else ("workWind" if len(rows) >= 2 else "other")
            if full:
                hub_seen.add(nurse)
        else:
            role = "hlb" if full else ("restWind" if len(rows) >= 2 else "other")
        roles[role].append(u.row)
    if hub_seen != set(nurses):
        return []

    days: dict[frozenset[int], list[int]] = defaultdict(list)
    for u in dems:
        touched = frozenset(sos_of[v] for v in u.support)
        if len(touched) != len(nurses):
            return []
        if {nurse_of[r] for r in touched} != set(nurses):
            return []
        days[touched].append(u.row)
    day_keys = sorted(days, key=lambda k: min(days[k]))
    per_nurse_days = defaultdict(set)
    for key in day_keys:
        for r in key:
            if r in per_nurse_days[nurse_of[r]]:
                return []
            per_nurse_days[nurse_of[r]].add(r)
    if any(len(d) != nurse_size[n] for n, d in per_nurse_days.items()):
        return []

    coverage = tuple(
        (u.row, float(round(u.lower))) for u in sorted(dems, key=lambda u: u.row)
    )
    nurse_groups = tuple(
        tuple(sorted(v for r in rows for v in supports_by_sos[r]))
        for _, rows in sorted(nurses.items())
    )
    day_groups = tuple(tuple(sorted(days[key])) for key in day_keys)
    role_rows = tuple(
        sorted((role, tuple(sorted(rids))) for role, rids in roles.items() if rids)
    )
    scope = tuple(sorted(grid_vars))
    params = RosteringWindowParams(
        assignment_vars=scope,
        sos_rows=tuple(roles["sos"]),
        coverage=coverage,
        role_rows=role_rows,
        nurse_groups=nurse_groups,
        day_groups=day_groups,
    )
    evidence = tuple(rid for _, rids in role_rows for rid in rids)
    return [SemanticRecord(Family.ROSTERING_WINDOW, scope, params, evidence)]


def detect_unit_commitment_ramp(view: ModelView, config) -> list[SemanticRecord]:
    """Commitment chains: status-linked power and reserve with ramp rows."""
    # lower links (floors) pair each status binary with its power variable
    power_of: dict[int, int] = {}
    status_of: dict[int, int] = {}
    p_min: dict[int, float] = {}
    linklo_rows: dict[int, int] = {}
    linkup_rows: dict[int, int] = {}
    for rid, u, p, w in view.floors:
        if u in power_of or p in status_of:
            return []
        power_of[u] = p
        status_of[p] = u
        p_min[u] = w
        linklo_rows[u] = rid
    if not power_of:
        return []

    reserve_of: dict[int, int] = {}
    p_max: dict[int, float] = {}
    for facet in view.facets:
        if len(facet.vars) != 3 or abs(facet.bound) > FEAS_TOL:
            continue
        bins = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.is_binary[v]]
        conts = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.continuous[v]]
        if len(bins) != 1 or len(conts) != 2:
            continue
        u, cu = bins[0]
        p = power_of.get(u)
        if p is None or cu >= 0:
            continue
        paired = {v: c for v, c in conts}
        if p not in paired:
            continue
        cp = paired.pop(p)
        (r, cr), = paired.items()
        if cp <= 0 or cr != cp or r in status_of or u in reserve_of:
            continue
        reserve_of[u] = r
        p_max[u] = -cu / cp
        linkup_rows[u] = facet.row
    if set(reserve_of) != set(power_of):
        return []

    power_set = set(status_of)
    reserve_set = set(reserve_of.values())

    # ramp rows: a power difference held down by two binary terms
    ramp_facets = []
    for facet in view.facets:
        if len(facet.vars) != 4:
            continue
        bins = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.is_binary[v]]
        conts = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.continuous[v]]
        if len(bins) != 2 or len(conts) != 2:
            continue
        if not all(v in power_set for v, _ in conts):
            continue
        pos = [(v, c) for v, c in conts if c > 0]
        neg = [(v, c) for v, c in conts if c < 0]
        if len(pos) != 1 or len(neg) != 1:
            continue
        (pa, cpa), (pb, cpb) = pos[0], neg[0]
        if cpb != -cpa:
            continue
        scaled = [(v, c / cpa) for v, c in bins]
        if any(c >= 0 for _, c in scaled):
            continue
        anchor = status_of[pb]
        names = [v for v, _ in scaled]
        if anchor not in names:
            continue
        others = [v for v in names if v != anchor]
        if len(others) != 1 or others[0] in power_of:
            continue
        extra = others[0]
        limits = {v: -c for v, c in scaled}
        ramp_facets.append((facet.row, pa, pb, anchor, extra, limits))

    # logic rows bind two status vars to two transition vars
    transitions: dict[frozenset[int], tuple[int, dict[int, float]]] = {}
    for row in view.equalities:
        if abs(row.rhs) > FEAS_TOL or len(row.vars) != 4:
            continue
        if not view.all_binary(row.vars):
            continue
        if len({abs(c) for c in row.coeffs}) != 1:
            continue
        stats = [v for v in row.vars if v in power_of]
        others = [v for v in row.vars if v not in power_of]
        if len(stats) != 2 or len(others) != 2:
            continue
        signs = dict(zip(row.vars, row.coeffs))
        if signs[stats[0]] == signs[stats[1]] or signs[others[0]] == signs[others[1]]:
            continue
        transitions[frozenset(stats)] = (row.id, signs)

    edges: dict[frozenset[int], dict] = {}
    for pair, (logic_rid, signs) in transitions.items():
        pair_facets = [
            f
            for f in ramp_facets
            if {status_of[f[1]], status_of[f[2]]} == set(pair)
        ]
        if len(pair_facets) != 2:
            return []
        by_anchor = {f[3]: f for f in pair_facets}
        if set(by_anchor) != set(pair):
            return []
        consistent = all(
            f[4] in signs and signs[f[4]] == signs[f[3]] for f in pair_facets
        )
        if not consistent:
            return []
        edges[pair] = {"logic": logic_rid, "facets": by_anchor}
    if not edges:
        return []
    if 2 * len(edges) != len(ramp_facets):
        return []

    # chains: each generator is a simple path over its status variables
    adj: dict[int, list[int]] = defaultdict(list)
    for pair in edges:
        a, b = tuple(pair)
        adj[a].append(b)
        adj[b].append(a)
    for u in power_of:
        adj.setdefault(u, [])
    if any(len(n) > 2 for n in adj.values()):
        return []

    demand_rows = _period_rows(view, power_set)
    reserve_rows = _period_rows(view, reserve_set)
    if demand_rows is None or reserve_rows is None:
        return []
    period_of_power = {}
    for rid, u_row in demand_rows:
        for v in u_row.support:
            period_of_power[v] = rid

    chains = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen or len(adj[start]) > 1:
            continue
        path = [start]
        seen.add(start)
        while True:
            nxt = [v for v in adj[path[-1]] if v not in seen]
            if not nxt:
                break
            path.append(nxt[0])
            seen.add(nxt[0])
        if len(path) < 2:
            return []
        chains.append(path)
    if len(seen) != len(power_of) or len(chains) < 2:
        return []

    # orient every chain the same way using the per-period demand rows
    order = [period_of_power[power_of[u]] for u in chains[0]]
    if len(set(order)) != len(order):
        return []
    period_index = {rid: t for t, rid in enumerate(order)}
    horizon = len(order)
    generators = []
    role_ramp: list[int] = []
    role_logic: list[int] = []
    for path in chains:
        if len(path) != horizon:
            return []
        forward = [period_index.get(period_of_power[power_of[u]]) for u in path]
        if None in forward:
            return []
        if forward == list(range(horizon)):
            ordered = path
        elif forward == list(range(horizon - 1, -1, -1)):
            ordered = path[::-1]
        else:
            return []
        spec = _build_generator(ordered, power_of, reserve_of, p_min, p_max, edges)
        if spec is None:
            return []
        gen, rids = spec
        generators.append(gen)
        role_ramp.extend(rids["ramp"])
        role_logic.extend(rids["logic"])

    # each reserve row must collect exactly one reserve variable per generator
    reserve_rows_sorted = []
    for t in range(horizon):
        expected = set()
        for gen in generators:
            expected.add(gen.reserve[t])
        match = [rid for rid, u_row in reserve_rows if set(u_row.support) == expected]
        if len(match) != 1:
            return []
        reserve_rows_sorted.append(match[0])
    reserves_by_period = {rid: u for rid, u in reserve_rows}
    reserves_vals = tuple(
        float(reserves_by_period[rid].lower) for rid in reserve_rows_sorted
    )
    demand_sorted = []
    for t in range(horizon):
        expected = {gen.power[t] for gen in generators}
        match = [rid for rid, u_row in demand_rows if set(u_row.support) == expected]
        if len(match) != 1:
            return []
        demand_sorted.append(match[0])
    demands_by_period = {rid: u for rid, u in demand_rows}
    demands = tuple(float(demands_by_period[rid].lower) for rid in demand_sorted)

    role_rows = tuple(
        sorted(
            (
                ("Demand", tuple(sorted(demand_sorted))),
                ("Link", tuple(sorted(list(linklo_rows.values()) + list(linkup_rows.values())))),
                ("Logic", tuple(sorted(role_logic))),
                ("Ramp", tuple(sorted(role_ramp))),
                ("Reserve", tuple(sorted(reserve_rows_sorted))),
            )
        )
    )
    scope = []
    for gen in generators:
        scope.extend(gen.status)
        scope.extend(v for v in gen.startup if v is not None)
        scope.extend(v for v in gen.shutdown if v is not None)
        scope.extend(gen.power)
        scope.extend(gen.reserve)
    params = UnitCommitmentRampParams(
        generators=tuple(generators),
        demands=demands,
        reserves=reserves_vals,
        role_rows=role_rows,
    )
    evidence = tuple(rid for _, rids in role_rows for rid in rids)
    return [
        SemanticRecord(
            Family.UNIT_COMMITMENT_RAMP, tuple(sorted(scope)), params, evidence
        )
    ]


def _period_rows(view: ModelView, var_set: set[int]):
    """One-sided lower rows over var_set that partition it between them."""
    rows = []
    covered: set[int] = set()
    for row in view.active_rows:
        support = set(row.vars)
        if not support or not support <= var_set:
            continue
        if row.is_equality:
            return None
        u = view.units.get(row.id)
        if u is None or u.lower == -INF or u.upper < INF:
            return None
        if support & covered:
            return None
        covered |= support
        rows.append((row.id, u))
    if covered != var_set or not rows:
        return None
    return rows


def _build_generator(ordered, power_of, reserve_of, p_min, p_max, edges):
    horizon = len(ordered)
    pmins = {p_min[u] for u in ordered}
    pmaxs = {p_max[u] for u in ordered}
    if len(pmins) != 1 or len(pmaxs) != 1:
        return None
    startup: list[int | None] = [None]
    shutdown: list[int | None] = [None]
    ramp_rids = []
    logic_rids = []
    ramp_limits = set()
    start_limits = set()
    for t in range(1, horizon):
        pair = frozenset({ordered[t - 1], ordered[t]})
        edge = edges.get(pair)
        if edge is None:
            return None
        facets = edge["facets"]
        up = facets[ordered[t - 1]]  # anchored on the earlier status
        down = facets[ordered[t]]
        _, pa_up, pb_up, _, v_t, lim_up = up
        _, pa_dn, pb_dn, _, w_t, lim_dn = down
        if pa_up != power_of[ordered[t]] or pb_up != power_of[ordered[t - 1]]:
            return None
        if pa_dn != power_of[ordered[t - 1]] or pb_dn != power_of[ordered[t]]:
            return None
        ramp_limits.add(lim_up[ordered[t - 1]])
        ramp_limits.add(lim_dn[ordered[t]])
        start_limits.add(lim_up[v_t])
        start_limits.add(lim_dn[w_t])
        startup.append(v_t)
        shutdown.append(w_t)
        ramp_rids.extend((up[0], down[0]))
        logic_rids.append(edge["logic"])
    if len(ramp_limits) != 1 or len(start_limits) != 1:
        return None
    gen = GeneratorSpec(
        status=tuple(ordered),
        startup=tuple(startup),
        shutdown=tuple(shutdown),
        power=tuple(power_of[u] for u in ordered),
        reserve=tuple(reserve_of[u] for u in ordered),
        p_min=pmins.pop(),
        p_max=pmaxs.pop(),
        ramp_up=ramp_limits.pop(),
        startup_ramp=start_limits.pop(),
    )
    return gen, {"ramp": ramp_rids, "logic": logic_rids}


def detect_disj_polyhedral(view: ModelView, config) -> list[SemanticRecord]:
    """Big-M guarded row bundles forming an either-or over shared variables."""
    candidates: dict[int, dict[int, list]] = defaultdict(lambda: {1: [], 0: []})
    for facet in view.facets:
        bins = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.is_binary[v]]
        rest = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if not view.is_binary[v]]
        if len(bins) != 1 or not rest:
            continue
        guard, big_m = bins[0]
        slack_bound = facet.bound - min(big_m, 0.0)
        if activity_range(rest, view.box)[1] > slack_bound + FEAS_TOL:
            continue  # the guard does not fully relax this row
        if big_m > 0:
            candidates[guard][1].append((facet.row, tuple(rest), facet.bound - big_m))
        else:
            candidates[guard][0].append((facet.row, tuple(rest), facet.bound))

    records = []
    used: set[int] = set()
    for u in view.exact_ones:
        selectors = u.support
        if not 2 <= len(selectors) <= 6 or used & set(selectors):
            continue
        if not all(candidates[y][1] for y in selectors):
            continue
        arms = [(y, 1, candidates[y][1]) for y in sorted(selectors)]
        record = _disj_record(arms, u.row)
        if record is not None:
            records.append(record)
            used.update(selectors)

    for guard in sorted(candidates):
        if guard in used or guard in view.exact_one_of:
            continue
        on_rows = candidates[guard][1]
        off_rows = candidates[guard][0]
        if not on_rows or not off_rows:
            continue
        record = _disj_record([(guard, 1, on_rows), (guard, 0, off_rows)], None)
        if record is not None:
            records.append(record)
            used.add(guard)
    return records


def _disj_record(arms, selector_row: int | None) -> SemanticRecord | None:
    """The record of guarded ``(selector, value, candidate rows)`` arms.

    A selector row makes it ``exact_one_mode``, else ``binary_selector``.
    None when no arm holds a row over two or more variables.
    """
    branches = []
    evidence = []
    touched: set[int] = set()
    for selector, value, rows in arms:
        stripped = []
        for rid, terms, bound in sorted(rows):
            stripped.append(StrippedRow(terms, bound))
            evidence.append(rid)
            touched.update(v for v, _ in terms)
        branches.append(BranchSpec(selector, value, tuple(stripped)))
    if not any(len(row.terms) >= 2 for b in branches for row in b.rows):
        return None
    if selector_row is not None:
        evidence.append(selector_row)
    params = DisjPolyhedralParams(
        variant="binary_selector" if selector_row is None else "exact_one_mode",
        branches=tuple(branches),
        selector_row=selector_row,
        touched=tuple(sorted(touched)),
    )
    selectors = sorted({selector for selector, _, _ in arms})
    scope = tuple(sorted(touched)) + tuple(selectors)
    return SemanticRecord(Family.DISJ_POLYHEDRAL, scope, params, tuple(evidence))
