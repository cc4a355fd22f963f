"""Reverse-sampled MIP instances with a planted, known constraint block.

Each family's planter (in its ``structprop.families`` module) works
witness-first: it draws a feasible assignment, then picks budgets,
capacities, and requirements consistent with that witness, so every
generated instance is feasible by construction.  The planted block's rows are
all binding somewhere inside the variable bounds; ``obfuscate`` later adds
rows that are deliberately not.  Obfuscation is fixed except for its seed: it
adds ``NOISE_ROWS`` noise rows, permutes rows and variables, and negates each
row with probability ``SIGN_FLIP_PROB``.

All numeric data are integers (stored as floats), which keeps witness checks
and detector matching exact.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
from dataclasses import dataclass

from .families import FAMILIES
from .model import (
    INF, DomainBox, Integrality, LinearRow, MipModel, Variable, activity_range, shared_float,
)
from .records import Family, SemanticRecord, _codec, records_to_json

#: Integer variables a default-sized instance may put in one record's scope.
#: Keeps the enumeration oracle exhaustive at desk scale; pass
#: ``allow_large=1`` in size_params to lift it.
SCOPE_CAP = 12

#: Rows ``obfuscate`` adds, each non-binding over the current bounds.
NOISE_ROWS = 10
#: Probability that ``obfuscate`` negates a row (sides swapped).
SIGN_FLIP_PROB = 0.3


@dataclass(frozen=True)
class ObfuscationConfig:
    seed: int = 0


@dataclass
class PlantedInstance:
    """A generated model plus the record it was generated from.

    ``ground_truth`` is kept in the model's *current* indexing: obfuscation
    rewrites it through the permutation it applies.  ``permutation`` maps the
    original planted indices to current ones and is provenance only.
    ``witness`` maps every variable id to a feasible value.
    """

    model: MipModel
    ground_truth: SemanticRecord
    permutation: tuple[tuple[int, ...], tuple[int, ...]]  # (row map, var map)
    seed: int
    size_params: dict[str, int]
    witness: dict[int, float]
    noise_row_ids: tuple[int, ...] = ()


_SPECS = {spec.family: spec for spec in FAMILIES}
#: Each family's default planting sizes, a view of ``families.FAMILIES``.
DEFAULT_SIZE_PARAMS: dict[Family, dict[str, int]] = {
    family: spec.default_sizes for family, spec in _SPECS.items()
}


def reverse_sample(
    family: Family,
    size_params: dict[str, int] | None = None,
    seed: int = 0,
) -> PlantedInstance:
    """Generate a feasible instance containing one planted constraint block."""
    spec = _SPECS[family]
    sizes = dict(spec.default_sizes)
    if size_params:
        unknown = set(size_params) - set(sizes) - {"allow_large"}
        if unknown:
            raise ValueError(
                f"unknown size parameters for {family.value}: {sorted(unknown)}"
            )
        sizes.update(size_params)
    family_index = list(Family).index(family)
    rng = random.Random(seed * 64 + family_index)

    mb, record, witness = spec.plant(rng, sizes)
    witness = {v: shared_float(value) for v, value in witness.items()}

    scope_ints = [
        v for v in record.scope if mb.variables[v].integrality is not Integrality.CONTINUOUS
    ]
    if len(scope_ints) > SCOPE_CAP and not sizes.get("allow_large"):
        raise ValueError(
            f"{family.value} size puts {len(scope_ints)} integer variables in scope "
            f"(cap {SCOPE_CAP}); pass allow_large=1 to override"
        )

    objective = _draw_objective(rng, scope_ints)
    model = mb.finish(objective, f"{family.value.upper()}_S{seed}")
    identity = (tuple(range(len(model.rows))), tuple(range(len(model.variables))))
    return PlantedInstance(
        model=model,
        ground_truth=record,
        permutation=identity,
        seed=seed,
        size_params=sizes,
        witness=witness,
    )


def _draw_objective(rng: random.Random, scope_ints: list[int]) -> list[tuple[int, float]]:
    costs = [(v, float(rng.randint(-5, 5))) for v in scope_ints]
    if costs and all(c == 0.0 for _, c in costs):
        costs[0] = (costs[0][0], 1.0)
    return costs


# ---------------------------------------------------------------------------
# obfuscation
# ---------------------------------------------------------------------------


def obfuscate(instance: PlantedInstance, config: ObfuscationConfig) -> PlantedInstance:
    """Noise rows, permutations, and sign flips; ground truth follows along.

    Noise rows get sides strictly wider than their activity range over the
    current bounds, so they never cut the feasible set and detectors skip
    them as non-binding.
    """
    rng = random.Random(config.seed * 64 + 63)  # stream disjoint from the builders'
    model = instance.model
    n_vars = len(model.variables)

    box = DomainBox.from_model(model)
    # (name, vars, coeffs, lhs, rhs) per row; noise rows become LinearRows
    # only once, when they are renumbered below
    rows = [(r.name, r.vars, r.coeffs, r.lhs, r.rhs) for r in model.rows]
    noise_ids = list(instance.noise_row_ids)
    existing_noise = len(noise_ids)
    for idx in range(NOISE_ROWS):
        k = rng.randint(2, min(4, n_vars))
        support = sorted(rng.sample(range(n_vars), k))
        coeffs = [float(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in support]
        lo, hi = activity_range(zip(support, coeffs), box)
        lhs = -INF if math.isinf(lo) else float(math.floor(lo) - rng.randint(1, 5))
        rhs = INF if math.isinf(hi) else float(math.ceil(hi) + rng.randint(1, 5))
        shape = rng.randrange(3)
        if shape == 1 and not math.isinf(rhs):
            lhs = -INF
        elif shape == 2 and not math.isinf(lhs):
            rhs = INF
        noise_ids.append(len(rows))
        rows.append((f"noise{existing_noise + idx + 1}", support, coeffs, lhs, rhs))

    n_rows = len(rows)
    var_map = list(range(n_vars))
    row_map = list(range(n_rows))
    rng.shuffle(var_map)
    rng.shuffle(row_map)

    new_vars: list[Variable | None] = [None] * n_vars
    for old, var in enumerate(model.variables):
        new_id = var_map[old]
        new_vars[new_id] = Variable(new_id, var.name, var.lower, var.upper, var.integrality)

    new_rows: list[LinearRow | None] = [None] * n_rows
    for old, (name, vars_, coeffs, lhs, rhs) in enumerate(rows):
        if rng.random() < SIGN_FLIP_PROB:
            coeffs, lhs, rhs = [-c for c in coeffs], -rhs, -lhs
        terms = zip(map(var_map.__getitem__, vars_), coeffs)
        new_rows[row_map[old]] = LinearRow(row_map[old], name, terms, lhs, rhs)

    objective = tuple((var_map[v], c) for v, c in model.objective)
    new_model = MipModel(
        tuple(new_vars), tuple(new_rows), objective, model.objective_sense, model.name
    )

    ground_truth = remap_record(instance.ground_truth, var_map, row_map)
    witness = {var_map[v]: value for v, value in instance.witness.items()}
    prev_rows, prev_vars = instance.permutation
    permutation = (
        tuple(row_map[r] for r in prev_rows),
        tuple(var_map[v] for v in prev_vars),
    )
    return PlantedInstance(
        model=new_model,
        ground_truth=ground_truth,
        permutation=permutation,
        seed=instance.seed,
        size_params=dict(instance.size_params),
        witness=witness,
        noise_row_ids=tuple(sorted(row_map[r] for r in noise_ids)),
    )


def remap_record(record: SemanticRecord, var_map, row_map) -> SemanticRecord:
    """Rewrite every variable/row id in a record through index maps."""
    # the encoder maps ids on the way out, so decoding keeps ids as they are
    encode, decode, _ = _codec(type(record.params))
    payload = encode(record.params, var_map.__getitem__, row_map.__getitem__)
    params = decode(payload, operator.index, operator.index)
    return SemanticRecord(
        family=record.family,
        scope=tuple(var_map[v] for v in record.scope),
        params=params,
        evidence=tuple(row_map[r] for r in record.evidence),
    )


def witness_satisfies(model: MipModel, witness: dict[int, float]) -> bool:
    """Exact check that an assignment respects bounds, integrality, rows."""
    for var in model.variables:
        if var.id not in witness:
            return False
        value = witness[var.id]
        if not var.lower <= value <= var.upper:
            return False
        if var.is_integer and value != int(value):
            return False
    for row in model.rows:
        activity = sum(c * witness[v] for v, c in zip(row.vars, row.coeffs))
        if not row.lhs <= activity <= row.rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

SIDECAR_SCHEMA_VERSION = 1


def instance_to_json(instance: PlantedInstance) -> dict:
    model = instance.model
    witness = {model.variables[v].name: value for v, value in instance.witness.items()}
    return {
        "schema": SIDECAR_SCHEMA_VERSION,
        "family": instance.ground_truth.family.value,
        "seed": instance.seed,
        "size_params": dict(instance.size_params),
        "ground_truth": records_to_json([instance.ground_truth], model),
        "permutation": {
            "rows": list(instance.permutation[0]),
            "variables": list(instance.permutation[1]),
        },
        "witness": witness,
        "noise_rows": [model.rows[r].name for r in instance.noise_row_ids],
    }


def write_instance(instance: PlantedInstance, directory: str):
    """Write ``{family}_{seed}.mps`` plus a JSON ground-truth sidecar."""
    from .mps import write_mps

    basename = f"{instance.ground_truth.family.value.lower()}_{instance.seed}"
    os.makedirs(directory, exist_ok=True)
    mps_path = os.path.join(directory, basename + ".mps")
    json_path = os.path.join(directory, basename + ".json")
    with open(mps_path, "w", encoding="ascii") as handle:
        handle.write(write_mps(instance.model))
    with open(json_path, "w", encoding="ascii") as handle:
        json.dump(instance_to_json(instance), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return mps_path, json_path
