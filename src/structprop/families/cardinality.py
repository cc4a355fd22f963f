"""Cardinality: ``L <= sum of three or more binaries <= U``, one row a record.

Detect-only: tightening the counting row does all a rule could."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..rowview import ModelView
from ..model import FEAS_TOL, INF, shared_float
from ..records import Family, SemanticRecord
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class CardinalityParams:
    """The counted binaries are the record's scope."""

    lower: float
    upper: float


def detect_cardinality(view: ModelView, config) -> list[SemanticRecord]:
    """Two-sided counting rows: L <= sum of >= 3 binaries <= U.

    A row in ``view.claimed`` already belongs to a kept record, which
    arbitration would keep over this one, so no record is built for it.
    """
    records = []
    for u in view.units.values():
        if len(u.support) < 3 or not u.binary or u.row in view.claimed:
            continue
        n = len(u.support)
        lower = 0.0 if u.lower == -INF else max(0.0, float(math.ceil(u.lower - FEAS_TOL)))
        upper = float(n) if u.upper == INF else min(float(n), float(math.floor(u.upper + FEAS_TOL)))
        if lower > upper:
            continue
        # the scope is the row's own sorted vars tuple, shared, not copied
        records.append(
            SemanticRecord(
                Family.CARDINALITY,
                u.support,
                CardinalityParams(shared_float(lower), shared_float(upper)),
                (u.row,),
            )
        )
    return records


def _plant(rng, sizes):
    n = int(sizes["n"])
    if n < 3:
        raise ValueError("Cardinality needs n >= 3 counted binaries")
    mb = _Builder()
    vars_ = [mb.binary(f"pick{i + 1}") for i in range(n)]
    bits = [rng.randint(0, 1) for _ in range(n)]
    k = sum(bits)
    lower = max(0, k - rng.randint(0, 2))
    upper = min(n, k + rng.randint(0, 2))
    if lower == 0 and upper == n:  # would bind nowhere; shrink one side
        if k < n:
            upper = max(k, n - 1)
        else:
            lower = 1
    row = mb.row("count", [(v, 1.0) for v in vars_], lower, upper)
    params = CardinalityParams(float(lower), float(upper))
    record = SemanticRecord(Family.CARDINALITY, tuple(vars_), params, (row,))
    witness = {v: float(b) for v, b in zip(vars_, bits)}
    return mb, record, witness


SPEC = FamilySpec(Family.CARDINALITY, CardinalityParams, detect_cardinality, None, _plant, {"n": 5})
