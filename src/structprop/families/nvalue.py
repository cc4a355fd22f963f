"""NValue: a count variable tied to the values a group of items uses.

Detect-only: tightening the assignment, use and count rows does all a rule could."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView, uniform_coefficient
from ..model import INF
from ..records import Family, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class NValueParams:
    count_var: Var
    # per item: (indicator, y) pairs; every item pairs with every value indicator
    items: Unordered[Unordered[tuple[Var, Var]]]


def detect_nvalue(view: ModelView, config) -> list[SemanticRecord]:
    """A distinct-value counter: count var tied to used-value indicators."""
    # z -> positions in view.exact_ones of the rows with a variable implying z
    feeds: dict[int, set[int]] = defaultdict(set)
    for pos, u in enumerate(view.exact_ones):
        for y in u.support:
            for z, _ in view.implications.get(y, ()):
                feeds[z].add(pos)
    records = []
    for rid, count_var, count_coeff, bins in view.links:
        if uniform_coefficient([c for _, c in bins]) != -count_coeff:
            continue
        zset = {v for v, _ in bins}
        items = []
        evidence = [rid]
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
        params = NValueParams(count_var, tuple(items))
        records.append(SemanticRecord(Family.NVALUE, scope, params, tuple(evidence)))
    return records


def _plant(rng, sizes):
    n_items = int(sizes["items"])
    m = int(sizes["values"])
    if n_items < 2 or m < 2:
        raise ValueError("NValue needs >= 2 items and >= 2 values")
    mb = _Builder()
    y = [[mb.binary(f"pick_i{i + 1}_v{v + 1}") for v in range(m)] for i in range(n_items)]
    z = [mb.binary(f"used_v{v + 1}") for v in range(m)]
    count = mb.var("distinct", 0, m)
    evidence = []
    for i in range(n_items):
        evidence.append(mb.row(f"assign{i + 1}", [(y[i][v], 1.0) for v in range(m)], 1, 1))
    for i in range(n_items):
        for v in range(m):
            evidence.append(
                mb.row(f"use_i{i + 1}_v{v + 1}", [(z[v], 1.0), (y[i][v], -1.0)], 0, INF)
            )
    evidence.append(mb.row("countrow", [(zv, 1.0) for zv in z] + [(count, -1.0)], 0, 0))
    choice = [rng.randrange(m) for _ in range(n_items)]
    used = sorted(set(choice))
    witness = {count: float(len(used))}
    for v in range(m):
        witness[z[v]] = 1.0 if v in used else 0.0
        for i in range(n_items):
            witness[y[i][v]] = 1.0 if choice[i] == v else 0.0
    params = NValueParams(
        count_var=count,
        items=tuple(tuple((z[v], y[i][v]) for v in range(m)) for i in range(n_items)),
    )
    scope = tuple(v for row in y for v in row) + tuple(z) + (count,)
    record = SemanticRecord(Family.NVALUE, scope, params, tuple(evidence))
    return mb, record, witness


SPEC = FamilySpec(
    Family.NVALUE, NValueParams, detect_nvalue, None, _plant, {"items": 2, "values": 3}
)
