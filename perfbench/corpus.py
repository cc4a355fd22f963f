"""Seeded benchmark corpora built in-process from ``structprop.synth``.

Every instance is a planted ``reverse_sample`` block, obfuscated with noise
rows, permutations and sign flips, and handed to the pipeline as MPS text
only.  The ground truth (planted records and a feasible witness) stays on
the benchmark side for the correctness checks.

The run seed picks every instance seed, so one run seed always yields the
same corpus, byte for byte, and distinct run seeds use disjoint instance
seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from structprop.model import LinearRow, MipModel, Variable
from structprop.mps import write_mps
from structprop.records import Family, SemanticRecord
from structprop.synth import (
    DEFAULT_SIZE_PARAMS,
    ObfuscationConfig,
    PlantedInstance,
    obfuscate,
    remap_record,
    reverse_sample,
)

FAMILIES: tuple[Family, ...] = tuple(Family)

#: The Channel generator accepts at most this many distinct values, so its
#: 3x size is clamped here instead of being dropped.
CHANNEL_MAX_VALUES = 9


@dataclass(frozen=True)
class Item:
    """One pipeline input: MPS text plus the ground truth kept aside."""

    name: str
    family: str  # family value, or "merged"
    mps: str
    rows: int
    planted: tuple[SemanticRecord, ...]
    witness: dict[int, float]
    witness_objective: float | None  # None when the model has no objective


def scaled_sizes(family: Family, factor: int) -> dict[str, int]:
    """Default size parameters times ``factor``; negative sentinels kept."""
    sizes = {}
    for key, value in DEFAULT_SIZE_PARAMS[family].items():
        scaled = value * factor if value > 0 else value
        if family is Family.CHANNEL and key == "values":
            scaled = min(scaled, CHANNEL_MAX_VALUES)
        sizes[key] = scaled
    if factor > 1:
        sizes["allow_large"] = 1
    return sizes


def planted(family: Family, factor: int, seed: int) -> PlantedInstance:
    instance = reverse_sample(family, scaled_sizes(family, factor), seed)
    return obfuscate(instance, ObfuscationConfig(seed=seed))


def without_objective(instance: PlantedInstance) -> PlantedInstance:
    model = instance.model
    bare = MipModel(model.variables, model.rows, (), model.objective_sense, model.name)
    return replace(instance, model=bare)


def merge(
    blocks: list[PlantedInstance], name: str
) -> tuple[MipModel, list[SemanticRecord], dict[int, float]]:
    """Disjoint union of planted blocks with id offsets.

    Names get a per-block prefix so they stay unique; each block's ground
    truth and witness are shifted into the merged indexing.
    """
    variables: list[Variable] = []
    rows: list[LinearRow] = []
    objective: list[tuple[int, float]] = []
    records: list[SemanticRecord] = []
    witness: dict[int, float] = {}
    for idx, block in enumerate(blocks):
        model = block.model
        var_map = [len(variables) + v.id for v in model.variables]
        row_map = [len(rows) + r.id for r in model.rows]
        prefix = f"b{idx}_"
        variables.extend(
            replace(v, id=var_map[v.id], name=prefix + v.name) for v in model.variables
        )
        rows.extend(
            LinearRow(
                row_map[r.id],
                prefix + r.name,
                tuple((var_map[v], c) for v, c in r.terms),
                r.lhs,
                r.rhs,
            )
            for r in model.rows
        )
        objective.extend((var_map[v], c) for v, c in model.objective)
        records.append(remap_record(block.ground_truth, var_map, row_map))
        witness.update((var_map[v], value) for v, value in block.witness.items())
    return MipModel(variables, rows, objective, "min", name), records, witness


@dataclass(frozen=True)
class Block:
    """A generated model with its ground truth, before it is written out."""

    name: str
    family: str  # family value, or "merged"
    model: MipModel
    planted: tuple[SemanticRecord, ...]
    witness: dict[int, float]


def to_item(block: Block) -> Item:
    """Write a block's model as MPS text; the pipeline sees only that."""
    model = block.model
    objective = None
    if model.objective:
        objective = sum(c * block.witness[v] for v, c in model.objective)
    return Item(
        name=block.name,
        family=block.family,
        mps=write_mps(model),
        rows=len(model.rows),
        planted=block.planted,
        witness=block.witness,
        witness_objective=objective,
    )


def single_block_corpus(
    seed: int, factors: tuple[int, ...], replicas: int, *, objective: bool
) -> list[Block]:
    """Every family at every size factor, ``replicas`` instances each."""
    blocks = []
    for rep in range(replicas):
        inst_seed = seed * replicas + rep
        for factor in factors:
            for family in FAMILIES:
                inst = planted(family, factor, inst_seed)
                if not objective:
                    inst = without_objective(inst)
                blocks.append(
                    Block(
                        f"{family.value}-x{factor}-s{inst_seed}",
                        family.value,
                        inst.model,
                        (inst.ground_truth,),
                        inst.witness,
                    )
                )
    return blocks


def merged_corpus(seed: int, sizes: tuple[tuple[int, int], ...]) -> list[Block]:
    """Disjoint unions of default-size blocks.

    ``sizes`` holds (blocks per family, models) pairs.

    Every family is present in every model, RosteringWindow and
    UnitCommitmentRamp included, and blocks are interleaved in a seeded
    order so no family forms a contiguous run of rows.
    """
    blocks = []
    per_seed = sum(models for _, models in sizes)
    model_seed = seed * per_seed
    for count, models in sizes:
        for _ in range(models):
            model_seed += 1
            parts = [
                planted(family, 1, model_seed * 1000 + copy)
                for copy in range(count)
                for family in FAMILIES
            ]
            random.Random(model_seed).shuffle(parts)
            name = f"merged-c{count}-s{model_seed}"
            model, records, witness = merge(parts, name)
            blocks.append(Block(name, "merged", model, tuple(records), witness))
    return blocks
