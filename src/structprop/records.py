"""Semantic records: the decoded meaning attached to groups of model rows.

A :class:`SemanticRecord` names a constraint family, the variables in its
scope, family-specific parameters, and the evidence rows that justify it.
Parameters hold dense variable/row ids; serialization swaps them for names so
record documents survive alongside MPS files.

Each params class exposes ``canonical_key()``: a hashable normalization used
for order-insensitive structural equality.  Labels that carry no meaning
(which group came first, which nurse is "nurse 0") are erased by frozensets;
labels that do carry meaning (period order in a ramp chain, position in a
run-length chain) stay ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping

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


@dataclass(frozen=True, slots=True)
class CardinalityParams:
    vars: tuple[int, ...]
    lower: float
    upper: float

    def canonical_key(self):
        return ("Cardinality", frozenset(self.vars), self.lower, self.upper)

    def to_jsonable(self, vn, rn):
        return {
            "vars": [vn(v) for v in self.vars],
            "lower": self.lower,
            "upper": self.upper,
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(tuple(vid(n) for n in obj["vars"]), obj["lower"], obj["upper"])


@dataclass(frozen=True, slots=True)
class AllDifferentParams:
    """Assignment grid: item groups are exact-one rows, value groups consume."""

    item_groups: tuple[tuple[int, ...], ...]
    value_groups: tuple[tuple[int, ...], ...]
    symmetric: bool  # both partitions came from equality rows

    def canonical_key(self):
        items = frozenset(frozenset(g) for g in self.item_groups)
        values = frozenset(frozenset(g) for g in self.value_groups)
        if self.symmetric:
            return ("AllDifferent", frozenset({items, values}))
        return ("AllDifferent", items, values)

    def to_jsonable(self, vn, rn):
        return {
            "item_groups": [[vn(v) for v in g] for g in self.item_groups],
            "value_groups": [[vn(v) for v in g] for g in self.value_groups],
            "symmetric": self.symmetric,
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            tuple(tuple(vid(n) for n in g) for g in obj["item_groups"]),
            tuple(tuple(vid(n) for n in g) for g in obj["value_groups"]),
            obj["symmetric"],
        )


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """One linked pair: an integer view variable and its indicator encoding."""

    link_var: int
    indicators: tuple[tuple[float, int], ...]  # (value, indicator var)

    def canonical_key(self):
        return ("Channel", self.link_var, frozenset(self.indicators))

    def to_jsonable(self, vn, rn):
        return {
            "link_var": vn(self.link_var),
            "indicators": [[value, vn(v)] for value, v in self.indicators],
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            vid(obj["link_var"]),
            tuple((value, vid(name)) for value, name in obj["indicators"]),
        )


@dataclass(frozen=True, slots=True)
class CumulativeTask:
    starts: tuple[int, ...]  # start indicator vars
    duration: int
    demand: float


@dataclass(frozen=True, slots=True)
class CumulativeParams:
    tasks: tuple[CumulativeTask, ...]
    capacity: float
    periods: tuple[tuple[int, tuple[int, ...]], ...]  # (row id, start vars in it)

    def canonical_key(self):
        tasks = frozenset(
            (frozenset(t.starts), t.duration, t.demand) for t in self.tasks
        )
        periods = frozenset((row, frozenset(vars_)) for row, vars_ in self.periods)
        return ("Cumulative", tasks, self.capacity, periods)

    def to_jsonable(self, vn, rn):
        return {
            "tasks": [
                {
                    "starts": [vn(v) for v in t.starts],
                    "duration": t.duration,
                    "demand": t.demand,
                }
                for t in self.tasks
            ],
            "capacity": self.capacity,
            "periods": [
                {"row": rn(row), "starts": [vn(v) for v in vars_]}
                for row, vars_ in self.periods
            ],
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            tuple(
                CumulativeTask(
                    tuple(vid(n) for n in t["starts"]), t["duration"], t["demand"]
                )
                for t in obj["tasks"]
            ),
            obj["capacity"],
            tuple(
                (rid(p["row"]), tuple(vid(n) for n in p["starts"]))
                for p in obj["periods"]
            ),
        )


@dataclass(frozen=True, slots=True)
class NValueParams:
    count_var: int
    value_indicators: tuple[int, ...]
    items: tuple[tuple[tuple[int, int], ...], ...]  # per item: (indicator, y) pairs

    def canonical_key(self):
        return (
            "NValue",
            self.count_var,
            frozenset(self.value_indicators),
            frozenset(frozenset(pairs) for pairs in self.items),
        )

    def to_jsonable(self, vn, rn):
        return {
            "count_var": vn(self.count_var),
            "value_indicators": [vn(v) for v in self.value_indicators],
            "items": [[[vn(z), vn(y)] for z, y in pairs] for pairs in self.items],
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            vid(obj["count_var"]),
            tuple(vid(n) for n in obj["value_indicators"]),
            tuple(
                tuple((vid(z), vid(y)) for z, y in pairs) for pairs in obj["items"]
            ),
        )


@dataclass(frozen=True, slots=True)
class StretchParams:
    """Run-length chain: level vars in sequence order plus run-start vars."""

    levels: tuple[int, ...]
    run_starts: tuple[int, ...]
    min_run: int
    max_run: int

    def canonical_key(self):
        return ("Stretch", self.levels, self.run_starts, self.min_run, self.max_run)

    def to_jsonable(self, vn, rn):
        return {
            "levels": [vn(v) for v in self.levels],
            "run_starts": [vn(v) for v in self.run_starts],
            "min_run": self.min_run,
            "max_run": self.max_run,
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            tuple(vid(n) for n in obj["levels"]),
            tuple(vid(n) for n in obj["run_starts"]),
            obj["min_run"],
            obj["max_run"],
        )


@dataclass(frozen=True, slots=True)
class OneHotResourceParams:
    groups: tuple[tuple[tuple[int, float], ...], ...]  # per group: (var, cost)
    budget: float
    external_min: float

    def canonical_key(self):
        return (
            "OneHotResource",
            frozenset(frozenset(g) for g in self.groups),
            self.budget,
            self.external_min,
        )

    def to_jsonable(self, vn, rn):
        return {
            "groups": [[[vn(v), cost] for v, cost in g] for g in self.groups],
            "budget": self.budget,
            "external_min": self.external_min,
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            tuple(
                tuple((vid(n), cost) for n, cost in g) for g in obj["groups"]
            ),
            obj["budget"],
            obj["external_min"],
        )


@dataclass(frozen=True, slots=True)
class ActivatorSpec:
    selector_to_activator: tuple[tuple[int, int], ...]
    activator_vars: tuple[int, ...]
    count: int
    count_row: int

    def canonical_key(self):
        return (
            frozenset(self.selector_to_activator),
            frozenset(self.activator_vars),
            self.count,
            self.count_row,
        )


@dataclass(frozen=True, slots=True)
class BottleneckExactOneParams:
    bottleneck_var: int
    groups: tuple[tuple[tuple[int, float], ...], ...]  # per group: (selector, weight)
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

    def to_jsonable(self, vn, rn):
        activators = None
        if self.activators is not None:
            activators = {
                "selector_to_activator": [
                    [vn(s), vn(a)] for s, a in self.activators.selector_to_activator
                ],
                "activator_vars": [vn(v) for v in self.activators.activator_vars],
                "count": self.activators.count,
                "count_row": rn(self.activators.count_row),
            }
        return {
            "bottleneck_var": vn(self.bottleneck_var),
            "groups": [[[vn(v), w] for v, w in g] for g in self.groups],
            "link_coverage": self.link_coverage,
            "activators": activators,
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        activators = None
        if obj.get("activators") is not None:
            raw = obj["activators"]
            activators = ActivatorSpec(
                tuple((vid(s), vid(a)) for s, a in raw["selector_to_activator"]),
                tuple(vid(n) for n in raw["activator_vars"]),
                raw["count"],
                rid(raw["count_row"]),
            )
        return cls(
            vid(obj["bottleneck_var"]),
            tuple(tuple((vid(n), w) for n, w in g) for g in obj["groups"]),
            obj["link_coverage"],
            activators,
        )


@dataclass(frozen=True, slots=True)
class RosteringWindowParams:
    assignment_vars: tuple[int, ...]
    sos_rows: tuple[int, ...]
    coverage: tuple[tuple[int, float], ...]  # (coverage row id, requirement)
    role_rows: tuple[tuple[str, tuple[int, ...]], ...]
    nurse_groups: tuple[tuple[int, ...], ...]  # assignment vars per nurse
    day_groups: tuple[tuple[int, ...], ...]  # coverage row ids per day

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

    def to_jsonable(self, vn, rn):
        return {
            "assignment_vars": [vn(v) for v in self.assignment_vars],
            "sos_rows": [rn(r) for r in self.sos_rows],
            "coverage": [[rn(r), req] for r, req in self.coverage],
            "role_rows": {role: [rn(r) for r in rows] for role, rows in self.role_rows},
            "nurse_groups": [[vn(v) for v in g] for g in self.nurse_groups],
            "day_groups": [[rn(r) for r in g] for g in self.day_groups],
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            tuple(vid(n) for n in obj["assignment_vars"]),
            tuple(rid(n) for n in obj["sos_rows"]),
            tuple((rid(n), req) for n, req in obj["coverage"]),
            tuple(
                (role, tuple(rid(n) for n in rows))
                for role, rows in sorted(obj["role_rows"].items())
            ),
            tuple(tuple(vid(n) for n in g) for g in obj["nurse_groups"]),
            tuple(tuple(rid(n) for n in g) for g in obj["day_groups"]),
        )


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """One generator's period-ordered variables and limits.

    ``startup``/``shutdown`` hold None in the first period (no interior
    transition row exists there).
    """

    status: tuple[int, ...]
    startup: tuple[int | None, ...]
    shutdown: tuple[int | None, ...]
    power: tuple[int, ...]
    reserve: tuple[int, ...]
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
    role_rows: tuple[tuple[str, tuple[int, ...]], ...]

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

    def to_jsonable(self, vn, rn):
        def names(seq):
            return [None if v is None else vn(v) for v in seq]

        return {
            "generators": [
                {
                    "status": names(g.status),
                    "startup": names(g.startup),
                    "shutdown": names(g.shutdown),
                    "power": names(g.power),
                    "reserve": names(g.reserve),
                    "p_min": g.p_min,
                    "p_max": g.p_max,
                    "ramp_up": g.ramp_up,
                    "startup_ramp": g.startup_ramp,
                }
                for g in self.generators
            ],
            "demands": list(self.demands),
            "reserves": list(self.reserves),
            "role_rows": {role: [rn(r) for r in rows] for role, rows in self.role_rows},
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        def ids(seq):
            return tuple(None if n is None else vid(n) for n in seq)

        return cls(
            tuple(
                GeneratorSpec(
                    ids(g["status"]),
                    ids(g["startup"]),
                    ids(g["shutdown"]),
                    ids(g["power"]),
                    ids(g["reserve"]),
                    g["p_min"],
                    g["p_max"],
                    g["ramp_up"],
                    g["startup_ramp"],
                )
                for g in obj["generators"]
            ),
            tuple(obj["demands"]),
            tuple(obj["reserves"]),
            tuple(
                (role, tuple(rid(n) for n in rows))
                for role, rows in sorted(obj["role_rows"].items())
            ),
        )


@dataclass(frozen=True, slots=True)
class StrippedRow:
    """A branch row with its guard term removed: sum(terms) <= bound."""

    terms: tuple[tuple[int, float], ...]
    bound: float

    def canonical_key(self):
        return (frozenset(self.terms), self.bound)


@dataclass(frozen=True, slots=True)
class BranchSpec:
    selector_var: int
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
    selector_row: int | None  # exact-one row id, mode variant only
    touched: tuple[int, ...]

    def canonical_key(self):
        return (
            "DisjPolyhedral",
            self.variant,
            frozenset(b.canonical_key() for b in self.branches),
            self.selector_row,
            frozenset(self.touched),
        )

    def to_jsonable(self, vn, rn):
        return {
            "variant": self.variant,
            "branches": [
                {
                    "selector_var": vn(b.selector_var),
                    "selector_value": b.selector_value,
                    "rows": [
                        {"terms": [[vn(v), c] for v, c in r.terms], "bound": r.bound}
                        for r in b.rows
                    ],
                }
                for b in self.branches
            ],
            "selector_row": None if self.selector_row is None else rn(self.selector_row),
            "touched": [vn(v) for v in self.touched],
        }

    @classmethod
    def from_jsonable(cls, obj, vid, rid):
        return cls(
            obj["variant"],
            tuple(
                BranchSpec(
                    vid(b["selector_var"]),
                    b["selector_value"],
                    tuple(
                        StrippedRow(
                            tuple((vid(n), c) for n, c in r["terms"]), r["bound"]
                        )
                        for r in b["rows"]
                    ),
                )
                for b in obj["branches"]
            ),
            None if obj["selector_row"] is None else rid(obj["selector_row"]),
            tuple(vid(n) for n in obj["touched"]),
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
    scope: tuple[int, ...]
    params: Any
    evidence: tuple[int, ...]
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
    vn = _namer([v.name for v in model.variables], "C")
    rn = _namer([r.name for r in model.rows], "R")
    return {
        "schema": RECORDS_SCHEMA_VERSION,
        "records": [
            {
                "family": rec.family.value,
                "scope": [vn(v) for v in rec.scope],
                "params": rec.params.to_jsonable(vn, rn),
                "evidence": [rn(r) for r in rec.evidence],
                "confidence": rec.confidence.value,
            }
            for rec in records
        ],
    }


def records_from_json(doc: Mapping, model: MipModel) -> list[SemanticRecord]:
    if doc.get("schema") != RECORDS_SCHEMA_VERSION:
        raise ValueError(f"unsupported records schema {doc.get('schema')!r}")
    vid = _resolver([v.name for v in model.variables], "C", "variable")
    rid = _resolver([r.name for r in model.rows], "R", "row")
    records = []
    for raw in doc["records"]:
        family = Family.from_string(raw["family"])
        params = PARAMS_CLASSES[family].from_jsonable(raw["params"], vid, rid)
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


def _namer(names: list[str], prefix: str) -> Callable[[int], str]:
    def name_of(idx: int) -> str:
        name = names[idx]
        return name if name else f"{prefix}{idx + 1:04d}"

    return name_of


def _resolver(names: list[str], prefix: str, what: str) -> Callable[[str], int]:
    table = {
        (name if name else f"{prefix}{idx + 1:04d}"): idx
        for idx, name in enumerate(names)
    }
    def id_of(name: str) -> int:
        if name not in table:
            raise KeyError(f"unknown {what} name {name!r}")
        return table[name]

    return id_of
