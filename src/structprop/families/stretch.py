"""Stretch: run-length chains over a binary level sequence with run-start
markers.

Detect-only: tightening the ordering, exclusion and window rows does all a rule could."""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView, uniform_coefficient
from ..model import FEAS_TOL, INF
from ..records import Family, SemanticRecord, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class StretchParams:
    """Run-length chain: level vars in sequence order plus run-start vars."""

    levels: tuple[Var, ...]
    run_starts: tuple[Var, ...]
    min_run: int
    max_run: int


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
                windows.append((facet.row, sup, bound))
    # var -> window indices and var -> same2 keys, built for the first chain
    windows_at = functools.cache(lambda: _by_var((i, sup) for i, (_, sup, _) in enumerate(windows)))
    pairs_at = functools.cache(lambda: _by_var((key, key) for key in same2))

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
                     for key in pairs_at().get(v, ()) if key <= chain_vars}
        near = {i for v in chain_vars for i in windows_at().get(v, ())}
        touching = [windows[i] for i in sorted(near)]
        runs = _stretch_runs(levels, starts_seq, inner_opp, inner_off, touching, used_rows)
        if runs is None:
            continue
        params = StretchParams(tuple(levels), tuple(starts_seq), *runs)
        scope = tuple(levels) + tuple(starts_seq)
        records.append(SemanticRecord(Family.STRETCH, scope, params, tuple(sorted(used_rows))))
    return records


def _by_var(entries) -> dict[int, list]:
    """var -> the entries, in order, whose support holds it, from
    ``(entry, support)`` pairs."""
    at: dict[int, list] = defaultdict(list)
    for entry, support in entries:
        for v in support:
            at[v].append(entry)
    return at


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

    expected_off = {frozenset({starts_seq[t], levels[t - 1]}) for t in range(1, horizon)}
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
    expected_windows = {frozenset(levels[i:i + width]) for i in range(horizon - max_run)}
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


def _plant(rng, sizes):
    periods = int(sizes["periods"])
    if periods < 4:
        raise ValueError("Stretch needs >= 4 periods")
    min_run = 2
    max_run = rng.randint(2, min(3, periods - 1))
    mb = _Builder()
    on = [mb.binary(f"on_p{t + 1}") for t in range(periods)]
    start = [mb.binary(f"run_p{t + 1}") for t in range(periods)]
    evidence = []
    evidence.append(mb.row("startlo_p1", [(start[0], 1.0), (on[0], -1.0)], 0, INF))
    for t in range(1, periods):
        evidence.append(
            mb.row(
                f"startlo_p{t + 1}",
                [(start[t], 1.0), (on[t], -1.0), (on[t - 1], 1.0)],
                0,
                INF,
            )
        )
    for t in range(periods):
        evidence.append(mb.row(f"startub_p{t + 1}", [(start[t], 1.0), (on[t], -1.0)], -INF, 0))
    for t in range(1, periods):
        evidence.append(mb.row(f"startoff_p{t + 1}", [(start[t], 1.0), (on[t - 1], 1.0)], -INF, 1))
    for t in range(periods):
        for i in range(1, min_run):
            if t + i < periods:
                evidence.append(
                    mb.row(
                        f"minrun_p{t + 1}_{i}",
                        [(start[t], 1.0), (on[t + i], -1.0)],
                        -INF,
                        0,
                    )
                )
    for w0 in range(periods - max_run):
        evidence.append(
            mb.row(
                f"maxrun_p{w0 + 1}",
                [(on[w0 + i], 1.0) for i in range(max_run + 1)],
                -INF,
                max_run,
            )
        )

    bits = []
    working = rng.random() < 0.5
    while len(bits) < periods:
        if working:
            bits.extend([1] * min(rng.randint(min_run, max_run), periods - len(bits)))
        else:
            bits.extend([0] * min(rng.randint(1, 2), periods - len(bits)))
        working = not working
    witness = {}
    for t in range(periods):
        witness[on[t]] = float(bits[t])
        started = bits[t] == 1 and (t == 0 or bits[t - 1] == 0)
        witness[start[t]] = 1.0 if started else 0.0
    params = StretchParams(tuple(on), tuple(start), min_run, max_run)
    record = SemanticRecord(Family.STRETCH, tuple(on) + tuple(start), params, tuple(evidence))
    return mb, record, witness


SPEC = FamilySpec(Family.STRETCH, StretchParams, detect_stretch, None, _plant, {"periods": 5})
