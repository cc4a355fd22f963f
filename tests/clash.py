"""Infeasible test instances: a planted block plus two contradictory rows.

``clash_model`` appends ``clash_hi: a + b >= k + 1`` and ``clash_lo:
a + b <= k`` on the first two integer variables of the planted record's
scope, with ``k`` the floor of the middle of their summed range (kept
inside it), so no integer point satisfies both rows.
"""

import math

from structprop.model import INF, LinearRow, MipModel
from structprop.records import Family, SemanticRecord
from structprop.synth import reverse_sample


def clash_model(
    family: Family, seed: int, size_params: dict[str, int] | None = None
) -> tuple[MipModel, SemanticRecord]:
    """The planted model with the clash rows appended, and its planted record."""
    instance = reverse_sample(family, size_params, seed)
    model = instance.model
    a, b = [v for v in instance.ground_truth.scope if model.variables[v].is_integer][:2]
    lo = model.variables[a].lower + model.variables[b].lower
    hi = model.variables[a].upper + model.variables[b].upper
    k = max(int(lo), min(int(hi) - 1, math.floor((lo + hi) / 2)))
    n = len(model.rows)
    rows = model.rows + (
        LinearRow(n, "clash_hi", [(a, 1.0), (b, 1.0)], k + 1, INF),
        LinearRow(n + 1, "clash_lo", [(a, 1.0), (b, 1.0)], -INF, k),
    )
    clashing = MipModel(
        model.variables, rows, model.objective, model.objective_sense, model.name
    )
    return clashing, instance.ground_truth
