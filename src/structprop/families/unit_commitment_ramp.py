"""UnitCommitmentRamp: on/off generator chains whose status links power and
reserve, with ramp, logic, demand and reserve rows.

Detect-only: tightening the link, logic and ramp rows does all a rule could."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from ..rowview import ModelView
from ..model import FEAS_TOL, INF
from ..records import Family, RoleRows, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """One generator's period-ordered variables and limits.

    ``startup``/``shutdown`` hold None in the first period (no interior
    transition row exists there).
    """

    status: tuple[Var, ...]
    startup: tuple[Var | None, ...]
    shutdown: tuple[Var | None, ...]
    power: tuple[Var, ...]
    reserve: tuple[Var, ...]
    p_min: float
    p_max: float
    ramp_up: float
    startup_ramp: float


@dataclass(frozen=True, slots=True)
class UnitCommitmentRampParams:
    generators: Unordered[GeneratorSpec]
    demands: tuple[float, ...]  # per period, chain order
    reserves: tuple[float, ...]
    role_rows: RoleRows

    def canonical_key(self, key):
        # With shared up/down limits, reading every chain backwards (startup
        # and shutdown swap roles, periods reverse) satisfies the same rows,
        # so both readings are one record.
        backwards = replace(
            self,
            generators=tuple(
                replace(
                    g,
                    status=g.status[::-1],
                    startup=(None,) + g.shutdown[:0:-1],
                    shutdown=(None,) + g.startup[:0:-1],
                    power=g.power[::-1],
                    reserve=g.reserve[::-1],
                )
                for g in self.generators
            ),
            demands=self.demands[::-1],
            reserves=self.reserves[::-1],
        )
        return frozenset({key(self), key(backwards)})


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

    # ramp rows: a power difference held down by two binary terms, indexed
    # by the status pair they join
    ramp_facets: dict[frozenset[int], list[tuple]] = defaultdict(list)
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
        pair = frozenset({status_of[pa], anchor})
        ramp_facets[pair].append((facet.row, pa, pb, anchor, extra, limits))

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
        pair_facets = ramp_facets.get(pair, ())
        if len(pair_facets) != 2:
            return []
        by_anchor = {f[3]: f for f in pair_facets}
        if set(by_anchor) != set(pair):
            return []
        consistent = all(f[4] in signs and signs[f[4]] == signs[f[3]] for f in pair_facets)
        if not consistent:
            return []
        edges[pair] = {"logic": logic_rid, "facets": by_anchor}
    if not edges:
        return []
    if 2 * len(edges) != sum(map(len, ramp_facets.values())):
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

    # each period's reserve and demand row must collect exactly one variable
    # per generator; _period_rows keeps supports disjoint, so one row at most
    reserve_by_support = {frozenset(u.support): (rid, u) for rid, u in reserve_rows}
    demand_by_support = {frozenset(u.support): (rid, u) for rid, u in demand_rows}
    reserve_match = [
        reserve_by_support.get(frozenset(gen.reserve[t] for gen in generators))
        for t in range(horizon)
    ]
    demand_match = [
        demand_by_support.get(frozenset(gen.power[t] for gen in generators))
        for t in range(horizon)
    ]
    if None in reserve_match or None in demand_match:
        return []
    reserve_rows_sorted = [rid for rid, _ in reserve_match]
    reserves_vals = tuple(float(u.lower) for _, u in reserve_match)
    demand_sorted = [rid for rid, _ in demand_match]
    demands = tuple(float(u.lower) for _, u in demand_match)

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
    return [SemanticRecord(Family.UNIT_COMMITMENT_RAMP, tuple(sorted(scope)), params, evidence)]


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


def _plant(rng, sizes):
    n_gens = int(sizes["generators"])
    n_periods = int(sizes["periods"])
    if n_gens < 2 or n_periods < 2:
        raise ValueError("UnitCommitmentRamp needs >= 2 generators and >= 2 periods")

    mb = _Builder()
    p_min = [rng.randint(1, 3) for _ in range(n_gens)]
    p_max = [p_min[g] + rng.randint(2, 5) for g in range(n_gens)]
    ramp = [rng.randint(p_min[g], p_max[g] - 1) for g in range(n_gens)]

    status = [[mb.binary(f"u_g{g + 1}_t{t + 1}") for t in range(n_periods)] for g in range(n_gens)]
    startup = [
        [None] + [mb.binary(f"v_g{g + 1}_t{t + 1}") for t in range(1, n_periods)]
        for g in range(n_gens)
    ]
    shutdown = [
        [None] + [mb.binary(f"w_g{g + 1}_t{t + 1}") for t in range(1, n_periods)]
        for g in range(n_gens)
    ]
    power = [
        [mb.continuous(f"p_g{g + 1}_t{t + 1}", 0, p_max[g]) for t in range(n_periods)]
        for g in range(n_gens)
    ]
    reserve = [
        [mb.continuous(f"r_g{g + 1}_t{t + 1}", 0, p_max[g]) for t in range(n_periods)]
        for g in range(n_gens)
    ]

    # witness: generator 1 always on covers demand; others switch freely
    on = [[1] * n_periods]
    for g in range(1, n_gens):
        on.append([rng.randint(0, 1) for _ in range(n_periods)])
    witness = {}
    for g in range(n_gens):
        for t in range(n_periods):
            witness[status[g][t]] = float(on[g][t])
            witness[power[g][t]] = float(p_min[g] * on[g][t])
            witness[reserve[g][t]] = float((p_max[g] - p_min[g]) * on[g][t])
            if t >= 1:
                witness[startup[g][t]] = float(max(0, on[g][t] - on[g][t - 1]))
                witness[shutdown[g][t]] = float(max(0, on[g][t - 1] - on[g][t]))

    logic_rows = []
    link_rows = []
    ramp_rows = []
    for g in range(n_gens):
        for t in range(n_periods):
            link_rows.append(
                mb.row(
                    f"linklo_g{g + 1}_t{t + 1}",
                    [(status[g][t], float(p_min[g])), (power[g][t], -1.0)],
                    -INF,
                    0,
                )
            )
            link_rows.append(
                mb.row(
                    f"linkup_g{g + 1}_t{t + 1}",
                    [
                        (power[g][t], 1.0),
                        (reserve[g][t], 1.0),
                        (status[g][t], -float(p_max[g])),
                    ],
                    -INF,
                    0,
                )
            )
            if t >= 1:
                logic_rows.append(
                    mb.row(
                        f"logic_g{g + 1}_t{t + 1}",
                        [
                            (status[g][t], 1.0),
                            (status[g][t - 1], -1.0),
                            (startup[g][t], -1.0),
                            (shutdown[g][t], 1.0),
                        ],
                        0,
                        0,
                    )
                )
                ramp_rows.append(
                    mb.row(
                        f"rampup_g{g + 1}_t{t + 1}",
                        [
                            (power[g][t], 1.0),
                            (power[g][t - 1], -1.0),
                            (status[g][t - 1], -float(ramp[g])),
                            (startup[g][t], -float(ramp[g])),
                        ],
                        -INF,
                        0,
                    )
                )
                ramp_rows.append(
                    mb.row(
                        f"rampdn_g{g + 1}_t{t + 1}",
                        [
                            (power[g][t - 1], 1.0),
                            (power[g][t], -1.0),
                            (status[g][t], -float(ramp[g])),
                            (shutdown[g][t], -float(ramp[g])),
                        ],
                        -INF,
                        0,
                    )
                )

    demand_rows = []
    reserve_rows = []
    demands = []
    reserves = []
    for t in range(n_periods):
        supply = sum(p_min[g] * on[g][t] for g in range(n_gens))
        spare = sum((p_max[g] - p_min[g]) * on[g][t] for g in range(n_gens))
        d_t = rng.randint(1, supply)
        r_t = rng.randint(1, spare)
        demands.append(float(d_t))
        reserves.append(float(r_t))
        demand_rows.append(
            mb.row(f"demand_t{t + 1}", [(power[g][t], 1.0) for g in range(n_gens)], d_t, INF)
        )
        reserve_rows.append(
            mb.row(f"reserve_t{t + 1}", [(reserve[g][t], 1.0) for g in range(n_gens)], r_t, INF)
        )

    role_rows = (
        ("Demand", tuple(demand_rows)),
        ("Link", tuple(link_rows)),
        ("Logic", tuple(logic_rows)),
        ("Ramp", tuple(ramp_rows)),
        ("Reserve", tuple(reserve_rows)),
    )
    generators = tuple(
        GeneratorSpec(
            status=tuple(status[g]),
            startup=tuple(startup[g]),
            shutdown=tuple(shutdown[g]),
            power=tuple(power[g]),
            reserve=tuple(reserve[g]),
            p_min=float(p_min[g]),
            p_max=float(p_max[g]),
            ramp_up=float(ramp[g]),
            startup_ramp=float(ramp[g]),
        )
        for g in range(n_gens)
    )
    params = UnitCommitmentRampParams(
        generators=generators,
        demands=tuple(demands),
        reserves=tuple(reserves),
        role_rows=role_rows,
    )
    scope = tuple(
        v
        for g in range(n_gens)
        for seq in (status[g], startup[g][1:], shutdown[g][1:], power[g], reserve[g])
        for v in seq
    )
    evidence = tuple(rid for _, rows in role_rows for rid in rows)
    record = SemanticRecord(Family.UNIT_COMMITMENT_RAMP, scope, params, evidence)
    return mb, record, witness


SPEC = FamilySpec(
    Family.UNIT_COMMITMENT_RAMP, UnitCommitmentRampParams, detect_unit_commitment_ramp,
    None, _plant, {"generators": 2, "periods": 2},
)
