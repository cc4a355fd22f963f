"""Semantic records: the decoded meaning attached to groups of model rows.

A :class:`SemanticRecord` names a constraint family, the variables in its
scope, family-specific parameters, and the evidence rows that justify it.
Parameters hold dense variable/row ids; serialization swaps them for names so
record documents survive alongside MPS files.

Each family's params dataclass, in its ``structprop.families`` module, is
its own schema, and a new family needs one marked dataclass with no
serializer and no key; records look it up in ``families.FAMILIES``.  A
field typed :data:`Var` or :data:`Row` holds a variable or row id,
:data:`Unordered` marks a tuple whose order carries no meaning, and
:data:`RoleRows` marks ``(role, row ids)`` pairs that serialize as one JSON
object keyed by role.  One walk over a params class's field types builds
its encoder, decoder and identity key once per type: tuples become lists,
``X | None`` passes None through, nested dataclasses become objects keyed
by field name, and ids become names.

The key decides structural equality (:func:`records_equal`, and exact
recovery in ``verify``).  Labels that carry no meaning (which group came
first, which nurse is "nurse 0") are erased: ``Unordered`` tuples and role
objects compare as sets.  Labels that do carry meaning (period order in a
ramp chain, position in a run-length chain) stay ordered.  A symmetry that
is not field-wise goes in a ``canonical_key(self, key)`` method on top of
the field-wise ``key``; AllDifferent and UnitCommitmentRamp have one.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import (
    Annotated,
    Any,
    Mapping,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .model import MipModel, _name_or_default


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


#: A variable id; serialized as the variable's name.
Var = Annotated[int, "var"]
#: A row id; serialized as the row's name.
Row = Annotated[int, "row"]
_T = TypeVar("_T")
#: A tuple whose order carries no meaning: serialized like ``tuple[X, ...]``
#: and compared as a set.
Unordered = Annotated[tuple[_T, ...], "unordered"]
#: ``(role, row ids)`` pairs, serialized as ``{role: [row names]}`` and read
#: back in role order.
RoleRows = Annotated[tuple[tuple[str, Unordered[Row]], ...], "object"]


@dataclass(frozen=True, slots=True)
class StrippedRow:
    """A branch row with its guard term removed: sum(terms) <= bound."""

    terms: Unordered[tuple[Var, float]]
    bound: float


@dataclass(frozen=True, slots=True)
class SemanticRecord:
    family: Family
    scope: tuple[Var, ...]
    params: Any
    evidence: tuple[Row, ...]

    def __post_init__(self) -> None:
        if not self.scope:
            raise ValueError("record scope must not be empty")
        expected = _families()[self.family].params
        if not isinstance(self.params, expected):
            raise ValueError(
                f"{self.family.value} record needs {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )

    def key(self):
        """Identity up to order: scope and evidence compare as sets, params
        by :func:`params_key`."""
        return (
            self.family,
            frozenset(self.scope),
            params_key(self.params),
            frozenset(self.evidence),
        )


def params_key(params) -> Any:
    """Hashable identity of a params value, read off its field types."""
    return _codec(type(params))[2](params)


def records_equal(a: SemanticRecord, b: SemanticRecord) -> bool:
    return a.key() == b.key()


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
            }
            for rec in records
        ],
    }


def records_from_json(doc: Mapping, model: MipModel) -> list[SemanticRecord]:
    """Decode a records document against a model; names become dense ids.

    A malformed document (a missing key, an unknown name, a value of the
    wrong JSON type) raises ValueError.  Keys the schema does not name are
    skipped, so older documents that carry a record's ``confidence`` or a
    bottleneck's link coverage still load.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"records document must be an object, not {type(doc).__name__}")
    schema = doc.get("schema")
    if type(schema) is not int or schema != RECORDS_SCHEMA_VERSION:  # not True, not 1.0
        raise ValueError(f"unsupported records schema {schema!r}")
    vid = _resolver(_names(model.variables, "C", "variable"), "variable")
    rid = _resolver(_names(model.rows, "R", "row"), "row")
    records = []
    try:
        for raw in doc["records"]:
            family = Family.from_string(raw["family"])
            params = _codec(_families()[family].params)[1](raw["params"], vid, rid)
            records.append(
                SemanticRecord(
                    family,
                    tuple(vid(n) for n in raw["scope"]),
                    params,
                    tuple(rid(n) for n in raw["evidence"]),
                )
            )
    except KeyError as exc:
        raise ValueError(f"malformed records document: missing key {exc}") from None
    except (AttributeError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed records document: {exc}") from None
    return records


@functools.cache
def _families() -> dict:
    """``families.FAMILIES`` itself, not a copy, imported on first use since
    every family module imports this one."""
    from .families import FAMILIES

    return FAMILIES


def _names(items, prefix: str, what: str) -> list[str]:
    """Each item's name, ``{prefix}0001``-style when blank; all must differ."""
    names = [_name_or_default(item, prefix) for item in items]
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
            raise ValueError(f"unknown {what} name {name!r}")
        return table[name]

    return id_of


def _same(value, var, row):
    return value


def _itself(value):
    return value


def _checked(tp):
    """Decoder of a plain field: the JSON value must have type ``tp``.

    A float field also takes an int; a bool is no int or float here.
    """
    accepted = (int, float) if tp is float else tp

    def decode(value, var, row):
        if not isinstance(value, accepted) or isinstance(value, bool) != (tp is bool):
            raise ValueError(f"expected a JSON {tp.__name__}, got {value!r}")
        return value

    return decode


def _var(value, var, row):
    return var(value)


def _row(value, var, row):
    return row(value)


@functools.cache
def _codec(tp):
    """``(encode, decode, key)`` for one field type, built once per type.

    ``encode`` and ``decode`` are called as ``f(value, var, row)``.  Encoding
    maps ids to names through ``var``/``row`` and yields JSON values;
    decoding maps names back through them and rebuilds tuples and
    dataclasses.  ``key(value)`` is the hashable identity: ``Unordered``
    tuples and role objects become frozensets, everything else keeps its
    order, and a dataclass that defines ``canonical_key(self, key)`` gets
    the field-wise key as ``key`` and may add a symmetry on top.  The walk
    covers the id markers, ``Unordered[X]``, ``X | None``, ``tuple[X,
    ...]``, pairs ``tuple[X, Y]``, dataclasses and plain bool/int/float/str;
    any other type raises TypeError.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        marker = tp.__metadata__[0]
        if marker == "var":
            return _var, _var, _itself
        if marker == "row":
            return _row, _row, _itself
        if marker == "unordered":
            enc, dec, _ = _codec(args[0])
            item_key = _codec(get_args(args[0])[0])[2]
            if item_key is _itself:
                return enc, dec, frozenset
            return enc, dec, lambda items: frozenset(map(item_key, items))
        if marker == "object":
            pair_type = get_args(args[0])[0]
            enc, dec, key = _codec(get_args(pair_type)[1])
            return (
                lambda pairs, var, row: {k: enc(v, var, row) for k, v in pairs},
                lambda obj, var, row: tuple(
                    (k, dec(obj[k], var, row)) for k in sorted(obj)
                ),
                lambda pairs: frozenset((k, key(v)) for k, v in pairs),
            )
    elif origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        enc, dec, key = _codec(args[0] if args[1] is type(None) else args[1])
        return (
            lambda value, var, row: None if value is None else enc(value, var, row),
            lambda value, var, row: None if value is None else dec(value, var, row),
            key
            if key is _itself
            else lambda value: None if value is None else key(value),
        )
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec, key = _codec(args[0])
        seq_key = _itself if key is _itself else lambda items: tuple(map(key, items))
        # id items skip the per-item call: they dominate record size
        if enc is _var:
            return (
                lambda items, var, row: list(map(var, items)),
                lambda items, var, row: tuple(map(var, items)),
                seq_key,
            )
        if enc is _row:
            return (
                lambda items, var, row: list(map(row, items)),
                lambda items, var, row: tuple(map(row, items)),
                seq_key,
            )
        return (
            lambda items, var, row: [enc(x, var, row) for x in items],
            lambda items, var, row: tuple([dec(x, var, row) for x in items]),
            seq_key,
        )
    elif origin is tuple and len(args) == 2:
        (enc0, dec0, key0), (enc1, dec1, key1) = _codec(args[0]), _codec(args[1])
        return (
            lambda pair, var, row: [enc0(pair[0], var, row), enc1(pair[1], var, row)],
            lambda pair, var, row: (dec0(pair[0], var, row), dec1(pair[1], var, row)),
            _itself
            if key0 is key1 is _itself
            else lambda pair: (key0(pair[0]), key1(pair[1])),
        )
    elif is_dataclass(tp):
        hints = get_type_hints(tp, include_extras=True)
        walk = [(f.name, *_codec(hints[f.name])) for f in fields(tp)]

        def key(value):
            return tuple([k(getattr(value, name)) for name, _, _, k in walk])

        symmetry = getattr(tp, "canonical_key", None)
        return (
            lambda value, var, row: {
                name: enc(getattr(value, name), var, row) for name, enc, _, _ in walk
            },
            lambda obj, var, row: tp(
                *[dec(obj[name], var, row) for name, _, dec, _ in walk]
            ),
            key if symmetry is None else lambda value: symmetry(value, key),
        )
    elif tp in (bool, int, float, str):
        return _same, _checked(tp), _itself
    raise TypeError(f"records cannot serialize a field of type {tp!r}")
