"""What the family modules share: the spec type, the planting builder and
the row grouping two detectors use."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from ..model import Integrality, LinearRow, MipModel, Variable
from ..records import Family


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Everything one constraint family contributes to the pipeline.

    ``params`` is its records' params dataclass.  ``detect(view, config)``
    returns its records on a ``ModelView``.  ``rule`` is its record rule,
    ``rule(params, box, out) -> cutoff`` in ``model.tighten_row``'s shape,
    or None for a detect-only family.  ``plant(rng, sizes)`` returns a
    ``_Builder``, the planted record and a witness for
    ``synth.reverse_sample``, which starts from a copy of ``default_sizes``.
    """

    family: Family
    params: type
    detect: Callable
    rule: Callable | None
    plant: Callable
    default_sizes: dict[str, int]


class _Builder:
    """Accumulates variables and rows with dense ids."""

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.rows: list[LinearRow] = []

    def var(self, name: str, lower: float, upper: float,
            integrality: Integrality = Integrality.INTEGER) -> int:
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, float(lower), float(upper), integrality))
        return vid

    def binary(self, name: str) -> int:
        return self.var(name, 0, 1, Integrality.BINARY)

    def continuous(self, name: str, lower: float, upper: float) -> int:
        return self.var(name, lower, upper, Integrality.CONTINUOUS)

    def row(self, name: str, terms, lhs: float, rhs: float) -> int:
        rid = len(self.rows)
        self.rows.append(LinearRow(rid, name, terms, lhs, rhs))
        return rid

    def finish(self, objective, name: str) -> MipModel:
        return MipModel(tuple(self.variables), tuple(self.rows), tuple(objective), "min", name)


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
