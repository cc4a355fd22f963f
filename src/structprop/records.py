"""Semantic records: the decoded meaning attached to groups of model rows.

A :class:`SemanticRecord` names a constraint family, the variables in its
scope, family-specific parameters, and the evidence rows that justify it.
Parameters hold dense variable/row ids; serialization swaps them for names so
record documents survive alongside MPS files.

The params dataclasses are their own schema.  A field typed :data:`Var` or
:data:`Row` holds a variable or row id, and :data:`RoleRows` marks
``(role, row ids)`` pairs that serialize as one JSON object keyed by role.
One codec walks a params class's field types (tuples become lists, ``X |
None`` passes None through, nested dataclasses become objects keyed by field
name, ids become names) and builds its encoder and decoder once per type.  A
new family therefore needs a dataclass with marked fields and no serializer.

Each params class exposes ``canonical_key()``: a hashable normalization used
for order-insensitive structural equality.  Labels that carry no meaning
(which group came first, which nurse is "nurse 0") are erased by frozensets;
labels that do carry meaning (period order in a ramp chain, position in a
run-length chain) stay ordered.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Annotated, Any, Mapping, Union, get_args, get_origin, get_type_hints

from .model import MipModel


class Family(Enum):
    ALL_DIFFERENT = "AllDifferent"
    CARDINALITY = "Cardinality"
    CHANNEL = "Channel"
    CUMULATIVE = "Cumulative"
    NVALUE = "NValue"
    STRETCH = "Stretch"
    ONE_HOT_RESOURCE = "OneHotResource"
    BOTTLENECK_EXACT_ONE = "BottleneckExactOne"
    ROSTERING_WINDOW = "RosteringWindow"
    UNIT_COMMITMENT_RAMP = "UnitCommitmentRamp"
    DISJ_POLYHEDRAL = "DisjPolyhedral"

    @classmethod
    def from_string(cls, text: str) -> "Family":
        normalized = text.replace("_", "").replace("-", "").lower()
        for member in cls:
            if member.value.lower() == normalized:
                return member
        raise ValueError(f"unknown family {text!r}")


#: Arbitration order: earlier families claim evidence rows first.
PRIORITY_ORDER: tuple[Family, ...] = (
    Family.DISJ_POLYHEDRAL,
    Family.UNIT_COMMITMENT_RAMP,
    Family.ROSTERING_WINDOW,
    Family.BOTTLENECK_EXACT_ONE,
    Family.ONE_HOT_RESOURCE,
    Family.CUMULATIVE,
    Family.CHANNEL,
    Family.ALL_DIFFERENT,
    Family.NVALUE,
    Family.STRETCH,
    Family.CARDINALITY,
)


class Confidence(Enum):
    EXACT = "exact"
    HEURISTIC = "heuristic"


#: A variable id; serialized as the variable's name.
Var = Annotated[int, "var"]
#: A row id; serialized as the row's name.
Row = Annotated[int, "row"]
#: ``(role, row ids)`` pairs, serialized as ``{role: [row names]}`` and read
#: back in role order.
RoleRows = Annotated[tuple[tuple[str, tuple[Row, ...]], ...], "object"]


@dataclass(frozen=True, slots=True)
class CardinalityParams:
    vars: tuple[Var, ...]
    lower: float
    upper: float

    def canonical_key(self):
        return ("Cardinality", frozenset(self.vars), self.lower, self.upper)


@dataclass(frozen=True, slots=True)
class AllDifferentParams:
    """Assignment grid: item groups are exact-one rows, value groups consume."""

    item_groups: tuple[tuple[Var, ...], ...]
    value_groups: tuple[tuple[Var, ...], ...]
    symmetric: bool  # both partitions came from equality rows

    def canonical_key(self):
        items = frozenset(frozenset(g) for g in self.item_groups)
        values = frozenset(frozenset(g) for g in self.value_groups)
        if self.symmetric:
            return ("AllDifferent", frozenset({items, values}))
        return ("AllDifferent", items, values)


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """One linked pair: an integer view variable and its indicator encoding."""

    link_var: Var
    indicators: tuple[tuple[float, Var], ...]  # (value, indicator var)

    def canonical_key(self):
        return ("Channel", self.link_var, frozenset(self.indicators))


@dataclass(frozen=True, slots=True)
class CumulativeTask:
    starts: tuple[Var, ...]  # start indicator vars
    duration: int
    demand: float


@dataclass(frozen=True, slots=True)
class CumulativePeriod:
    row: Row  # capacity row of one period
    starts: tuple[Var, ...]  # start vars whose task runs in it


@dataclass(frozen=True, slots=True)
class CumulativeParams:
    tasks: tuple[CumulativeTask, ...]
    capacity: float
    periods: tuple[CumulativePeriod, ...]

    def canonical_key(self):
        tasks = frozenset(
            (frozenset(t.starts), t.duration, t.demand) for t in self.tasks
        )
        periods = frozenset((p.row, frozenset(p.starts)) for p in self.periods)
        return ("Cumulative", tasks, self.capacity, periods)


@dataclass(frozen=True, slots=True)
class NValueParams:
    count_var: Var
    value_indicators: tuple[Var, ...]
    items: tuple[tuple[tuple[Var, Var], ...], ...]  # per item: (indicator, y) pairs

    def canonical_key(self):
        return (
            "NValue",
            self.count_var,
            frozenset(self.value_indicators),
            frozenset(frozenset(pairs) for pairs in self.items),
        )


@dataclass(frozen=True, slots=True)
class StretchParams:
    """Run-length chain: level vars in sequence order plus run-start vars."""

    levels: tuple[Var, ...]
    run_starts: tuple[Var, ...]
    min_run: int
    max_run: int

    def canonical_key(self):
        return ("Stretch", self.levels, self.run_starts, self.min_run, self.max_run)


@dataclass(frozen=True, slots=True)
class OneHotResourceParams:
    groups: tuple[tuple[tuple[Var, float], ...], ...]  # per group: (var, cost)
    budget: float
    external_min: float

    def canonical_key(self):
        return (
            "OneHotResource",
            frozenset(frozenset(g) for g in self.groups),
            self.budget,
            self.external_min,
        )


@dataclass(frozen=True, slots=True)
class ActivatorSpec:
    selector_to_activator: tuple[tuple[Var, Var], ...]
    activator_vars: tuple[Var, ...]
    count: int
    count_row: Row

    def canonical_key(self):
        return (
            frozenset(self.selector_to_activator),
            frozenset(self.activator_vars),
            self.count,
            self.count_row,
        )


@dataclass(frozen=True, slots=True)
class BottleneckExactOneParams:
    bottleneck_var: Var
    groups: tuple[tuple[tuple[Var, float], ...], ...]  # per group: (selector, weight)
    link_coverage: float
    activators: ActivatorSpec | None

    def canonical_key(self):
        return (
            "BottleneckExactOne",
            self.bottleneck_var,
            frozenset(frozenset(g) for g in self.groups),
            self.link_coverage,
            self.activators.canonical_key() if self.activators else None,
        )


@dataclass(frozen=True, slots=True)
class RosteringWindowParams:
    assignment_vars: tuple[Var, ...]
    sos_rows: tuple[Row, ...]
    coverage: tuple[tuple[Row, float], ...]  # (coverage row id, requirement)
    role_rows: RoleRows
    nurse_groups: tuple[tuple[Var, ...], ...]  # assignment vars per nurse
    day_groups: tuple[tuple[Row, ...], ...]  # coverage row ids per day

    def canonical_key(self):
        return (
            "RosteringWindow",
            frozenset(self.assignment_vars),
            frozenset(self.sos_rows),
            frozenset(self.coverage),
            frozenset((role, frozenset(rows)) for role, rows in self.role_rows),
            frozenset(frozenset(g) for g in self.nurse_groups),
            frozenset(frozenset(g) for g in self.day_groups),
        )


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

    def canonical_key(self):
        def opt(seq):
            return tuple(-1 if v is None else v for v in seq)

        return (
            self.status,
            opt(self.startup),
            opt(self.shutdown),
            self.power,
            self.reserve,
            self.p_min,
            self.p_max,
            self.ramp_up,
            self.startup_ramp,
        )


@dataclass(frozen=True, slots=True)
class UnitCommitmentRampParams:
    generators: tuple[GeneratorSpec, ...]
    demands: tuple[float, ...]  # per period, chain order
    reserves: tuple[float, ...]
    role_rows: RoleRows

    def _oriented(self, reverse: bool):
        # With shared up/down limits, reading every chain backwards (startup
        # and shutdown swap roles, periods reverse) satisfies the same rows,
        # so the canonical key admits both readings.
        def opt(seq):
            return tuple(-1 if v is None else v for v in seq)

        def gen_key(g: GeneratorSpec):
            if not reverse:
                return g.canonical_key()
            startup = (None,) + tuple(reversed(g.shutdown[1:]))
            shutdown = (None,) + tuple(reversed(g.startup[1:]))
            return (
                tuple(reversed(g.status)),
                opt(startup),
                opt(shutdown),
                tuple(reversed(g.power)),
                tuple(reversed(g.reserve)),
                g.p_min,
                g.p_max,
                g.ramp_up,
                g.startup_ramp,
            )

        order = reversed if reverse else tuple
        return (
            frozenset(gen_key(g) for g in self.generators),
            tuple(order(self.demands)),
            tuple(order(self.reserves)),
        )

    def canonical_key(self):
        return (
            "UnitCommitmentRamp",
            frozenset({self._oriented(False), self._oriented(True)}),
            frozenset((role, frozenset(rows)) for role, rows in self.role_rows),
        )


@dataclass(frozen=True, slots=True)
class StrippedRow:
    """A branch row with its guard term removed: sum(terms) <= bound."""

    terms: tuple[tuple[Var, float], ...]
    bound: float

    def canonical_key(self):
        return (frozenset(self.terms), self.bound)


@dataclass(frozen=True, slots=True)
class BranchSpec:
    selector_var: Var
    selector_value: int
    rows: tuple[StrippedRow, ...]

    def canonical_key(self):
        return (
            self.selector_var,
            self.selector_value,
            frozenset(r.canonical_key() for r in self.rows),
        )


@dataclass(frozen=True, slots=True)
class DisjPolyhedralParams:
    variant: str  # "binary_selector" | "exact_one_mode"
    branches: tuple[BranchSpec, ...]
    selector_row: Row | None  # exact-one row id, mode variant only
    touched: tuple[Var, ...]

    def canonical_key(self):
        return (
            "DisjPolyhedral",
            self.variant,
            frozenset(b.canonical_key() for b in self.branches),
            self.selector_row,
            frozenset(self.touched),
        )


PARAMS_CLASSES: dict[Family, type] = {
    Family.ALL_DIFFERENT: AllDifferentParams,
    Family.CARDINALITY: CardinalityParams,
    Family.CHANNEL: ChannelParams,
    Family.CUMULATIVE: CumulativeParams,
    Family.NVALUE: NValueParams,
    Family.STRETCH: StretchParams,
    Family.ONE_HOT_RESOURCE: OneHotResourceParams,
    Family.BOTTLENECK_EXACT_ONE: BottleneckExactOneParams,
    Family.ROSTERING_WINDOW: RosteringWindowParams,
    Family.UNIT_COMMITMENT_RAMP: UnitCommitmentRampParams,
    Family.DISJ_POLYHEDRAL: DisjPolyhedralParams,
}


@dataclass(frozen=True, slots=True)
class SemanticRecord:
    family: Family
    scope: tuple[Var, ...]
    params: Any
    evidence: tuple[Row, ...]
    confidence: Confidence = Confidence.EXACT

    def __post_init__(self) -> None:
        if not self.scope:
            raise ValueError("record scope must not be empty")
        expected = PARAMS_CLASSES[self.family]
        if not isinstance(self.params, expected):
            raise ValueError(
                f"{self.family.value} record needs {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )

    def canonical_key(self):
        return (
            self.family.value,
            frozenset(self.scope),
            self.params.canonical_key(),
            frozenset(self.evidence),
        )


def records_equal(a: SemanticRecord, b: SemanticRecord) -> bool:
    return a.canonical_key() == b.canonical_key()


RECORDS_SCHEMA_VERSION = 1


def records_to_json(records: list[SemanticRecord], model: MipModel) -> dict:
    """Serialize records against a model; names replace dense ids."""
    vn = _names(model.variables, "C", "variable").__getitem__
    rn = _names(model.rows, "R", "row").__getitem__
    return {
        "schema": RECORDS_SCHEMA_VERSION,
        "records": [
            {
                "family": rec.family.value,
                "scope": [vn(v) for v in rec.scope],
                "params": _codec(type(rec.params))[0](rec.params, vn, rn),
                "evidence": [rn(r) for r in rec.evidence],
                "confidence": rec.confidence.value,
            }
            for rec in records
        ],
    }


def records_from_json(doc: Mapping, model: MipModel) -> list[SemanticRecord]:
    if doc.get("schema") != RECORDS_SCHEMA_VERSION:
        raise ValueError(f"unsupported records schema {doc.get('schema')!r}")
    vid = _resolver(_names(model.variables, "C", "variable"), "variable")
    rid = _resolver(_names(model.rows, "R", "row"), "row")
    records = []
    for raw in doc["records"]:
        family = Family.from_string(raw["family"])
        params = _codec(PARAMS_CLASSES[family])[1](raw["params"], vid, rid)
        records.append(
            SemanticRecord(
                family,
                tuple(vid(n) for n in raw["scope"]),
                params,
                tuple(rid(n) for n in raw["evidence"]),
                Confidence(raw.get("confidence", "exact")),
            )
        )
    return records


def _names(items, prefix: str, what: str) -> list[str]:
    """Each item's name, ``{prefix}0001``-style when blank; all must differ."""
    names = [item.name or f"{prefix}{idx + 1:04d}" for idx, item in enumerate(items)]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{what} name {name!r} is not unique in the model")
        seen.add(name)
    return names


def _resolver(names: list[str], what: str):
    table = {name: idx for idx, name in enumerate(names)}

    def id_of(name: str) -> int:
        if name not in table:
            raise KeyError(f"unknown {what} name {name!r}")
        return table[name]

    return id_of


def _same(value, var, row):
    return value


def _as_list(items, var, row):
    return list(items)


def _as_tuple(items, var, row):
    return tuple(items)


def _var(value, var, row):
    return var(value)


def _row(value, var, row):
    return row(value)


@functools.cache
def _codec(tp):
    """``(encode, decode)`` for one field type, built once per type.

    Both are called as ``f(value, var, row)``.  Encoding maps ids to names
    through ``var``/``row`` and yields JSON values; decoding maps names back
    through them and rebuilds tuples and dataclasses.  The codec walks the
    id markers, ``X | None``, ``tuple[X, ...]``, pairs ``tuple[X, Y]``,
    dataclasses and plain bool/int/float/str; any other type raises
    TypeError.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        marker = tp.__metadata__[0]
        if marker == "var":
            return _var, _var
        if marker == "row":
            return _row, _row
        if marker == "object":
            pair_type = get_args(args[0])[0]
            enc, dec = _codec(get_args(pair_type)[1])
            return (
                lambda pairs, var, row: {k: enc(v, var, row) for k, v in pairs},
                lambda obj, var, row: tuple(
                    (k, dec(obj[k], var, row)) for k in sorted(obj)
                ),
            )
    elif origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        enc, dec = _codec(args[0] if args[1] is type(None) else args[1])
        return (
            lambda value, var, row: None if value is None else enc(value, var, row),
            lambda value, var, row: None if value is None else dec(value, var, row),
        )
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0])
        # id and plain items skip the per-item call: they dominate record size
        if enc is _same:
            return _as_list, _as_tuple
        if enc is _var:
            return (
                lambda items, var, row: list(map(var, items)),
                lambda items, var, row: tuple(map(var, items)),
            )
        if enc is _row:
            return (
                lambda items, var, row: list(map(row, items)),
                lambda items, var, row: tuple(map(row, items)),
            )
        return (
            lambda items, var, row: [enc(x, var, row) for x in items],
            lambda items, var, row: tuple([dec(x, var, row) for x in items]),
        )
    elif origin is tuple and len(args) == 2:
        (enc0, dec0), (enc1, dec1) = _codec(args[0]), _codec(args[1])
        return (
            lambda pair, var, row: [enc0(pair[0], var, row), enc1(pair[1], var, row)],
            lambda pair, var, row: (dec0(pair[0], var, row), dec1(pair[1], var, row)),
        )
    elif is_dataclass(tp):
        hints = get_type_hints(tp, include_extras=True)
        walk = [(f.name, *_codec(hints[f.name])) for f in fields(tp)]
        return (
            lambda value, var, row: {
                name: enc(getattr(value, name), var, row) for name, enc, _ in walk
            },
            lambda obj, var, row: tp(
                *[dec(obj[name], var, row) for name, _, dec in walk]
            ),
        )
    elif tp in (bool, int, float, str):
        return _same, _same
    raise TypeError(f"records cannot serialize a field of type {tp!r}")
