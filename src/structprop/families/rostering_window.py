"""RosteringWindow: shift-assignment grids with per-day one-shift rows,
coverage equalities and sliding workload windows tied together per nurse.

Detect-only: tightening the shift, coverage and window rows does all a rule could."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView
from ..model import FEAS_TOL, INF
from ..records import Family, RoleRows, Row, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class RosteringWindowParams:
    """The assignment vars are the record's scope; the one-shift rows are
    the ``"sos"`` role."""

    coverage: Unordered[tuple[Row, float]]  # (coverage row id, requirement)
    role_rows: RoleRows
    nurse_groups: Unordered[Unordered[Var]]  # assignment vars per nurse
    day_groups: Unordered[Unordered[Row]]  # coverage row ids per day


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

    coverage = tuple((u.row, float(round(u.lower))) for u in sorted(dems, key=lambda u: u.row))
    nurse_groups = tuple(
        tuple(sorted(v for r in rows for v in supports_by_sos[r]))
        for _, rows in sorted(nurses.items())
    )
    day_groups = tuple(tuple(sorted(days[key])) for key in day_keys)
    role_rows = tuple(sorted((role, tuple(sorted(rids))) for role, rids in roles.items() if rids))
    scope = tuple(sorted(grid_vars))
    params = RosteringWindowParams(
        coverage=coverage,
        role_rows=role_rows,
        nurse_groups=nurse_groups,
        day_groups=day_groups,
    )
    evidence = tuple(rid for _, rids in role_rows for rid in rids)
    return [SemanticRecord(Family.ROSTERING_WINDOW, scope, params, evidence)]


def _plant(rng, sizes):
    n_nurses = int(sizes["nurses"])
    n_days = int(sizes["days"])
    n_shifts = int(sizes["shifts"])
    if n_nurses < 2 or n_days < 3 or n_shifts < 2:
        raise ValueError("RosteringWindow needs >= 2 nurses, >= 3 days, >= 2 shifts")
    window = 2

    mb = _Builder()
    x = [
        [
            [mb.binary(f"x_n{n + 1}_d{d + 1}_s{s + 1}") for s in range(n_shifts)]
            for d in range(n_days)
        ]
        for n in range(n_nurses)
    ]
    # witness roster: each nurse works at most one shift per day
    plan = [[-1] * n_days for _ in range(n_nurses)]
    for n in range(n_nurses):
        for d in range(n_days):
            if rng.random() < 0.65:
                plan[n][d] = rng.randrange(n_shifts)
    witness = {}
    for n in range(n_nurses):
        for d in range(n_days):
            for s in range(n_shifts):
                witness[x[n][d][s]] = 1.0 if plan[n][d] == s else 0.0

    shift_rows = []
    for n in range(n_nurses):
        for d in range(n_days):
            shift_rows.append(
                mb.row(
                    f"day_n{n + 1}_d{d + 1}",
                    [(x[n][d][s], 1.0) for s in range(n_shifts)],
                    -INF,
                    1,
                )
            )
    dem_rows = []
    coverage = []
    day_groups = []
    for d in range(n_days):
        day_rows = []
        for s in range(n_shifts):
            req = sum(1 for n in range(n_nurses) if plan[n][d] == s)
            rid = mb.row(
                f"cov_d{d + 1}_s{s + 1}",
                [(x[n][d][s], 1.0) for n in range(n_nurses)],
                req,
                req,
            )
            dem_rows.append(rid)
            day_rows.append(rid)
            coverage.append((rid, float(req)))
        day_groups.append(tuple(day_rows))

    work_rows = []
    rest_rows = []
    hub_rows = []
    hlb_rows = []
    for n in range(n_nurses):
        loads = []
        for w0 in range(n_days - window + 1):
            loads.append(sum(1 for d in range(w0, w0 + window) if plan[n][d] >= 0))
        windows = [
            [(x[n][d][s], 1.0) for d in range(w0, w0 + window) for s in range(n_shifts)]
            for w0 in range(n_days - window + 1)
        ]
        maxwork = rng.randint(max(2, max(loads)), window * n_shifts - 1)
        for w, terms in enumerate(windows, start=1):
            work_rows.append(mb.row(f"wload_n{n + 1}_w{w}", terms, -INF, maxwork))
        min_load = min(loads)
        if min_load >= 1:
            floor_req = rng.randint(1, min_load)
            for w, terms in enumerate(windows, start=1):
                rest_rows.append(mb.row(f"wrest_n{n + 1}_w{w}", terms, floor_req, INF))
        total = sum(1 for d in range(n_days) if plan[n][d] >= 0)
        hub = rng.randint(max(1, total), min(n_days, n_days * n_shifts - 1))
        all_terms = [(x[n][d][s], 1.0) for d in range(n_days) for s in range(n_shifts)]
        hub_rows.append(mb.row(f"htot_n{n + 1}", all_terms, -INF, hub))
        floor_total = rng.randint(0, total)
        if floor_total >= 1:
            hlb_rows.append(mb.row(f"hmin_n{n + 1}", all_terms, floor_total, INF))

    role_rows = [("sos", tuple(shift_rows)), ("dem", tuple(dem_rows))]
    if work_rows:
        role_rows.append(("workWind", tuple(work_rows)))
    if rest_rows:
        role_rows.append(("restWind", tuple(rest_rows)))
    role_rows.append(("hub", tuple(hub_rows)))
    if hlb_rows:
        role_rows.append(("hlb", tuple(hlb_rows)))

    scope = tuple(
        x[n][d][s]
        for n in range(n_nurses)
        for d in range(n_days)
        for s in range(n_shifts)
    )
    params = RosteringWindowParams(
        coverage=tuple(coverage),
        role_rows=tuple(sorted(role_rows)),
        nurse_groups=tuple(
            tuple(
                x[n][d][s] for d in range(n_days) for s in range(n_shifts)
            )
            for n in range(n_nurses)
        ),
        day_groups=tuple(day_groups),
    )
    evidence = tuple(rid for _, rows in role_rows for rid in rows)
    record = SemanticRecord(Family.ROSTERING_WINDOW, scope, params, evidence)
    return mb, record, witness


SPEC = FamilySpec(
    Family.ROSTERING_WINDOW, RosteringWindowParams, detect_rostering_window, None, _plant,
    {"nurses": 2, "days": 3, "shifts": 2},
)
