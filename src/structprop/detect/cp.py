"""Detectors for the six classic constraint families.

Each detector takes a :class:`ModelView` and returns fully assembled
:class:`SemanticRecord` objects.  Matching is structural and strict: a record
is emitted only when every defining row of the pattern is present, so a
partial or contaminated encoding yields no record rather than a wrong one.
"""

from __future__ import annotations

import math
from collections import defaultdict

from ..model import FEAS_TOL, INF
from ..records import (
    AllDifferentParams,
    CardinalityParams,
    ChannelParams,
    CumulativeParams,
    CumulativePeriod,
    CumulativeTask,
    Family,
    NValueParams,
    SemanticRecord,
    StretchParams,
)
from .rowview import ModelView, uniform_coefficient


def detect_cardinality(view: ModelView, config) -> list[SemanticRecord]:
    """Two-sided counting rows: L <= sum of >= 3 binaries <= U."""
    records = []
    for u in view.units.values():
        if len(u.support) < 3 or not u.binary:
            continue
        n = len(u.support)
        lower = 0.0 if u.lower == -INF else max(0.0, float(math.ceil(u.lower - FEAS_TOL)))
        upper = float(n) if u.upper == INF else min(float(n), float(math.floor(u.upper + FEAS_TOL)))
        if lower > upper:
            continue
        support = tuple(sorted(u.support))
        records.append(
            SemanticRecord(
                Family.CARDINALITY,
                support,
                CardinalityParams(support, lower, upper),
                (u.row,),
            )
        )
    return records


def _components(rows: list[tuple[int, tuple[int, ...]]]) -> list[list[int]]:
    """Group row indices by shared variables (union-find)."""
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for idx, (_, support) in enumerate(rows):
        for var in support:
            if var in owner:
                parent[find(idx)] = find(owner[var])
            else:
                owner[var] = idx
    groups: dict[int, list[int]] = defaultdict(list)
    for idx in range(len(rows)):
        groups[find(idx)].append(idx)
    return sorted(groups.values())


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
    return SemanticRecord(
        Family.ALL_DIFFERENT, tuple(sorted(item_union)), params, evidence
    )


def detect_channel(view: ModelView, config) -> list[SemanticRecord]:
    """An integer variable equated with a value-weighted one-hot group."""
    one_by_support: dict[frozenset[int], int] = {}
    for u in view.exact_ones:
        one_by_support.setdefault(frozenset(u.support), u.row)
    records = []
    for row in view.equalities:
        if abs(row.rhs) > FEAS_TOL:
            continue
        linked = [(v, c) for v, c in zip(row.vars, row.coeffs) if not view.is_binary[v]]
        if len(linked) != 1:
            continue
        link_var, link_coeff = linked[0]
        if not view.model.variables[link_var].is_integer:
            continue
        bins = [(v, c) for v, c in zip(row.vars, row.coeffs) if view.is_binary[v]]
        if len(bins) < 2:
            continue
        values = [(-c / link_coeff, v) for v, c in bins]
        seen = {value for value, _ in values}
        if len(seen) != len(values) or 0.0 in seen:
            continue
        onehot = one_by_support.get(frozenset(v for v, _ in bins))
        if onehot is None:
            continue
        params = ChannelParams(link_var, tuple(sorted(values, key=lambda t: t[0])))
        scope = (link_var,) + tuple(sorted(v for v, _ in bins))
        records.append(
            SemanticRecord(Family.CHANNEL, scope, params, (row.id, onehot))
        )
    return records


def detect_cumulative(view: ModelView, config) -> list[SemanticRecord]:
    """Start-indicator scheduling grids sharing per-period capacity rows."""
    tasks = [(u.row, u.support) for u in view.exact_ones if len(u.support) >= 3]
    caps = [
        f
        for f in view.facets
        if len(f.vars) >= 2 and f.binary and all(c > 0 for c in f.coeffs)
    ]
    pool = tasks + [(f.row, f.vars) for f in caps]
    n_tasks = len(tasks)
    records = []
    for comp in _components(pool):
        task_part = [tasks[i] for i in comp if i < n_tasks]
        cap_part = [caps[i - n_tasks] for i in comp if i >= n_tasks]
        if not task_part or not cap_part:
            continue
        task_of: dict[int, int] = {}
        clean = True
        for rid, sup in task_part:
            for v in sup:
                if v in task_of:
                    clean = False
                task_of[v] = rid
        if not clean:
            continue
        capacity = cap_part[0].bound
        if any(abs(f.bound - capacity) > FEAS_TOL for f in cap_part):
            continue
        if any(v not in task_of for f in cap_part for v in f.vars):
            continue
        # per-variable appearance lists decide each task's duration and demand
        hits: dict[int, list[float]] = defaultdict(list)
        for f in cap_part:
            for v, c in zip(f.vars, f.coeffs):
                hits[v].append(c)
        specs = []
        for rid, sup in sorted(task_part):
            per_var = [hits.get(v, []) for v in sup]
            counts = {len(h) for h in per_var}
            demands = {c for h in per_var for c in h}
            if len(counts) != 1 or len(demands) != 1:
                clean = False
                break
            duration = counts.pop()
            if duration < 2:
                clean = False
                break
            specs.append(CumulativeTask(tuple(sorted(sup)), duration, demands.pop()))
        if not clean:
            continue
        periods = tuple(
            CumulativePeriod(f.row, tuple(sorted(f.vars)))
            for f in sorted(cap_part, key=lambda f: f.row)
        )
        params = CumulativeParams(tuple(specs), capacity, periods)
        scope = tuple(sorted(task_of))
        evidence = tuple(rid for rid, _ in task_part) + tuple(f.row for f in cap_part)
        records.append(SemanticRecord(Family.CUMULATIVE, scope, params, evidence))
    return records


def detect_nvalue(view: ModelView, config) -> list[SemanticRecord]:
    """A distinct-value counter: count var tied to used-value indicators."""
    # z -> positions in view.exact_ones of the rows with a variable implying z
    feeds: dict[int, set[int]] = defaultdict(set)
    for pos, u in enumerate(view.exact_ones):
        for y in u.support:
            for z, _ in view.implications.get(y, ()):
                feeds[z].add(pos)
    records = []
    for row in view.equalities:
        if abs(row.rhs) > FEAS_TOL:
            continue
        counters = [(v, c) for v, c in zip(row.vars, row.coeffs) if not view.is_binary[v]]
        if len(counters) != 1:
            continue
        count_var, count_coeff = counters[0]
        if not view.model.variables[count_var].is_integer:
            continue
        bins = [(v, c) for v, c in zip(row.vars, row.coeffs) if view.is_binary[v]]
        if len(bins) < 2:
            continue
        if uniform_coefficient([c for _, c in bins]) != -count_coeff:
            continue
        zset = {v for v, _ in bins}
        items = []
        evidence = [row.id]
        # a matching row has every variable implying into zset, so it feeds it
        for pos in sorted({pos for z in zset for pos in feeds.get(z, ())}):
            u = view.exact_ones[pos]
            targets = []
            for y in u.support:
                hits = [(z, rid) for z, rid in view.implications.get(y, ()) if z in zset]
                if len(hits) != 1:
                    targets = None
                    break
                targets.append((y, hits[0]))
            if targets is None or len(targets) != len(zset):
                continue
            zs = [z for _, (z, _) in targets]
            if len(set(zs)) != len(zs):
                continue
            items.append(tuple((z, y) for y, (z, _) in targets))
            evidence.append(u.row)
            evidence.extend(rid for _, (_, rid) in targets)
        if len(items) < 2:
            continue
        scope = tuple(sorted({y for pairs in items for _, y in pairs})) + tuple(
            sorted(zset)
        ) + (count_var,)
        params = NValueParams(count_var, tuple(sorted(zset)), tuple(items))
        records.append(
            SemanticRecord(Family.NVALUE, scope, params, tuple(evidence))
        )
    return records


def detect_stretch(view: ModelView, config) -> list[SemanticRecord]:
    """Run-length chains over a binary level sequence with run-start markers."""
    # every table is indexed by variable, so a chain reads only the rows
    # that touch it instead of rescanning the model's rows
    opp: dict[int, dict[int, list[int]]] = {}  # u -> {w: rows reading u <= w}
    for u, pairs in view.implications.items():
        for w, rid in pairs:
            opp.setdefault(u, {}).setdefault(w, []).append(rid)
    same2: dict[frozenset[int], list[int]] = defaultdict(list)  # u + w <= 1
    trips = []  # (rid, positive var, (negative, negative))
    windows = []  # (rid, support, scaled bound)
    windows_at: dict[int, list[int]] = defaultdict(list)  # var -> window indices
    for facet in view.facets:
        if not facet.binary:
            continue
        sup = facet.vars
        coeffs = facet.coeffs
        if len(sup) == 2:
            ca, cb = coeffs
            if ca == cb and ca > 0 and abs(facet.bound - ca) <= FEAS_TOL:
                same2[frozenset(sup)].append(facet.row)
                continue
        if len(sup) == 3 and abs(facet.bound) <= FEAS_TOL:
            pos = [v for v, c in zip(sup, coeffs) if c > 0]
            neg = [v for v, c in zip(sup, coeffs) if c < 0]
            if len(pos) == 1 and len({abs(c) for c in coeffs}) == 1:
                trips.append((facet.row, pos[0], tuple(neg)))
                continue
        shared = uniform_coefficient(coeffs)
        if shared is not None and shared > 0 and len(sup) >= 3:
            bound = facet.bound / shared
            if bound >= 2 - FEAS_TOL:
                for v in sup:
                    windows_at[v].append(len(windows))
                windows.append((facet.row, sup, bound))
    pairs_at: dict[int, list[frozenset[int]]] = defaultdict(list)  # var -> same2 keys
    for key in same2:
        for v in key:
            pairs_at[v].append(key)

    # successor edges between level vars, derived from the 3-var rows
    succ: dict[int, tuple[int, int, int]] = {}
    poisoned: set[int] = set()
    for rid, level, negs in trips:
        starts = [v for v in negs if level in opp.get(v, ())]
        prevs = [v for v in negs if v not in starts]
        if len(starts) != 1 or len(prevs) != 1:
            poisoned.update((level,) + negs)
            continue
        start, prev = starts[0], prevs[0]
        if prev in succ:
            poisoned.update({level, start, prev})
            continue
        succ[prev] = (level, start, rid)

    successors = {lvl for lvl, _, _ in succ.values()}
    heads = [v for v in succ if v not in successors]
    records = []
    for head in sorted(heads):
        levels = [head]
        starts_seq: list[int] = []
        used_rows: set[int] = set()
        node = head
        while node in succ:
            nxt, start, rid = succ[node]
            if nxt in levels:
                levels = []
                break
            levels.append(nxt)
            starts_seq.append(start)
            used_rows.add(rid)
            node = nxt
        if len(levels) < 2:
            continue
        # anchor the first run-start: mutual ordering rows with the head level
        mutual = [w for w in opp.get(head, ()) if head in opp.get(w, ())]
        if len(mutual) != 1:
            continue
        starts_seq = [mutual[0]] + starts_seq
        used_rows.update(opp[head][starts_seq[0]])
        chain_vars = set(levels) | set(starts_seq)
        if poisoned & chain_vars or len(chain_vars) != 2 * len(levels):
            continue
        inner_opp = {(u, w): rids for u in chain_vars
                     for w, rids in opp.get(u, {}).items() if w in chain_vars}
        inner_off = {key: same2[key] for v in chain_vars
                     for key in pairs_at.get(v, ()) if key <= chain_vars}
        near = {i for v in chain_vars for i in windows_at.get(v, ())}
        touching = [windows[i] for i in sorted(near)]
        runs = _stretch_runs(
            levels, starts_seq, inner_opp, inner_off, touching, used_rows
        )
        if runs is None:
            continue
        params = StretchParams(tuple(levels), tuple(starts_seq), *runs)
        scope = tuple(levels) + tuple(starts_seq)
        records.append(
            SemanticRecord(
                Family.STRETCH, scope, params, tuple(sorted(used_rows))
            )
        )
    return records


def _stretch_runs(levels, starts_seq, inner_opp, inner_off, touching,
                  used_rows: set[int]) -> tuple[int, int] | None:
    """Verify the full chain is present and collect its row ids.

    ``inner_opp``/``inner_off`` map the chain's ordering and exclusion pairs
    to their rows; ``touching`` lists the windows sharing a chain variable.
    Returns ``(min_run, max_run)``, or None if a row is missing or extra.
    """
    horizon = len(levels)

    # ordering rows from each run-start: its own level plus the next
    # min_run - 1 levels (truncated at the horizon)
    min_run = sum(1 for u, _ in inner_opp if u == starts_seq[0])
    if min_run < 1:
        return None
    expected_opp: set[tuple[int, int]] = {(levels[0], starts_seq[0])}
    for t in range(horizon):
        stop = min(t + min_run, horizon)
        for k in range(t, stop):
            expected_opp.add((starts_seq[t], levels[k]))
    if inner_opp.keys() != expected_opp:
        return None
    for rids in inner_opp.values():
        if len(rids) != 1:
            return None
        used_rows.update(rids)

    expected_off = {
        frozenset({starts_seq[t], levels[t - 1]}) for t in range(1, horizon)
    }
    if inner_off.keys() != expected_off:
        return None
    for rids in inner_off.values():
        if len(rids) != 1:
            return None
        used_rows.update(rids)

    if not touching:
        return None
    sizes = {len(sup) for _, sup, _ in touching}
    if len(sizes) != 1:
        return None
    width = sizes.pop()
    max_run = width - 1
    if max_run < min_run or max_run > horizon - 1:
        return None
    expected_windows = {
        frozenset(levels[i:i + width]) for i in range(horizon - max_run)
    }
    seen: set[frozenset[int]] = set()
    for rid, sup, bound in touching:
        key = frozenset(sup)
        if key not in expected_windows or key in seen:
            return None
        if abs(bound - max_run) > FEAS_TOL:
            return None
        seen.add(key)
        used_rows.add(rid)
    return (min_run, max_run) if seen == expected_windows else None
