"""Record identity: the key read off the params field types."""

import dataclasses
import functools
import json
import random
import types
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import pytest

from bottleneck import PARTIAL_WEIGHTS, bottleneck_model

from structprop.detect import detect_all
from structprop.families import FAMILIES
from structprop.families.unit_commitment_ramp import UnitCommitmentRampParams
from structprop.records import (
    Family,
    SemanticRecord,
    params_key,
    records_equal,
    records_from_json,
    records_to_json,
)
from structprop.synth import ObfuscationConfig, obfuscate, remap_record, reverse_sample

SEEDS = range(6)


@functools.cache
def _detected(family: Family) -> tuple:
    """Planted instances, clean and obfuscated, seeds 0-5, with their reports."""
    found = []
    for seed in SEEDS:
        inst = reverse_sample(family, seed=seed)
        noisy = obfuscate(inst, ObfuscationConfig(seed=seed))
        found += [(planted, detect_all(planted.model)) for planted in (inst, noisy)]
    return tuple(found)


@functools.cache
def _records(family: Family) -> tuple[SemanticRecord, ...]:
    """Ground truths and detected records, clean and obfuscated, seeds 0-5."""
    found = []
    for planted, report in _detected(family):
        found += [planted.ground_truth, *report.records, *report.dropped]
    return tuple(found)


def _shuffled(value, tp, rng):
    """A copy with every ``Unordered`` tuple shuffled, at every depth."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        marker = tp.__metadata__[0]
        if marker in ("unordered", "object"):
            items = [_shuffled(x, get_args(args[0])[0], rng) for x in value]
            if marker == "unordered":
                rng.shuffle(items)
            return tuple(items)
        return value
    if origin in (Union, types.UnionType):
        inner = next(a for a in args if a is not type(None))
        return None if value is None else _shuffled(value, inner, rng)
    if origin is tuple and args[-1] is Ellipsis:
        return tuple(_shuffled(x, args[0], rng) for x in value)
    if origin is tuple:
        return tuple(_shuffled(x, a, rng) for x, a in zip(value, args))
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp, include_extras=True)
        return tp(
            *[_shuffled(getattr(value, f.name), hints[f.name], rng)
              for f in dataclasses.fields(tp)]
        )
    return value


def _one_reversed(value, tp):
    """Copies with exactly one ordered tuple of two or more distinct items reversed."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        if tp.__metadata__[0] == "unordered":
            item = get_args(args[0])[0]
            for i, x in enumerate(value):
                for y in _one_reversed(x, item):
                    yield value[:i] + (y,) + value[i + 1:]
        return
    if origin in (Union, types.UnionType):
        if value is not None:
            inner = next(a for a in args if a is not type(None))
            yield from _one_reversed(value, inner)
        return
    if origin is tuple and args[-1] is Ellipsis:
        if len(set(value)) >= 2:
            yield value[::-1]
        return
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp, include_extras=True)
        for f in dataclasses.fields(tp):
            for y in _one_reversed(getattr(value, f.name), hints[f.name]):
                yield dataclasses.replace(value, **{f.name: y})


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_shuffling_unordered_tuples_keeps_records_equal(family):
    rng = random.Random(family.value)
    moved = 0
    for record in _records(family):
        for _ in range(4):
            scope, evidence = list(record.scope), list(record.evidence)
            rng.shuffle(scope)
            rng.shuffle(evidence)
            params = _shuffled(record.params, type(record.params), rng)
            other = dataclasses.replace(
                record, scope=tuple(scope), params=params, evidence=tuple(evidence)
            )
            moved += other != record
            assert records_equal(record, other)
            assert params_key(params) == params_key(record.params)
    assert moved  # the shuffles did reorder something


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_reversing_an_ordered_field_breaks_equality(family):
    reversed_fields = 0
    for record in _records(family):
        for params in _one_reversed(record.params, type(record.params)):
            reversed_fields += 1
            assert not records_equal(record, dataclasses.replace(record, params=params))
    if family in (Family.STRETCH, Family.UNIT_COMMITMENT_RAMP):
        assert reversed_fields  # levels, run starts, a generator's chains


def _ordered_tuples(tp, path):
    """Paths of the ``tuple[X, ...]`` fields whose order is part of the key."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        marker, inner = tp.__metadata__[0], args[0]
        if marker == "unordered":
            yield from _ordered_tuples(get_args(inner)[0], path + "[]")
        elif marker == "object":
            yield from _ordered_tuples(get_args(get_args(inner)[0])[1], path + "{}")
    elif origin in (Union, types.UnionType):
        for arg in args:
            yield from _ordered_tuples(arg, path)
    elif origin is tuple and args[-1] is Ellipsis:
        yield path
        yield from _ordered_tuples(args[0], path + "[]")
    elif origin is tuple:
        for i, arg in enumerate(args):
            yield from _ordered_tuples(arg, f"{path}.{i}")
    elif dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp, include_extras=True)
        for f in dataclasses.fields(tp):
            yield from _ordered_tuples(hints[f.name], f"{path}.{f.name}")


def test_only_chain_positions_are_ordered():
    ordered = {
        path
        for spec in FAMILIES.values()
        for path in _ordered_tuples(spec.params, spec.family.value)
    }
    chain = ("status", "startup", "shutdown", "power", "reserve")
    assert ordered == {
        "Stretch.levels",
        "Stretch.run_starts",
        "UnitCommitmentRamp.demands",
        "UnitCommitmentRamp.reserves",
        *(f"UnitCommitmentRamp.generators[].{name}" for name in chain),
    }


def test_stretch_levels_and_generator_power_are_ordered():
    stretch = reverse_sample(Family.STRETCH, seed=0).ground_truth
    levels = dataclasses.replace(stretch.params, levels=stretch.params.levels[::-1])
    assert not records_equal(stretch, dataclasses.replace(stretch, params=levels))

    ramp = reverse_sample(Family.UNIT_COMMITMENT_RAMP, seed=0).ground_truth
    first, *rest = ramp.params.generators
    power = dataclasses.replace(first, power=first.power[::-1])
    params = dataclasses.replace(ramp.params, generators=(power, *rest))
    assert not records_equal(ramp, dataclasses.replace(ramp, params=params))


def test_alldifferent_partitions_swap_only_when_symmetric():
    grids = [
        r.params for r in _records(Family.ALL_DIFFERENT)
        if r.family is Family.ALL_DIFFERENT
    ]
    assert grids
    for p in grids:
        for symmetric in (False, True):
            base = dataclasses.replace(p, symmetric=symmetric)
            swapped = dataclasses.replace(
                base, item_groups=p.value_groups, value_groups=p.item_groups
            )
            assert (params_key(base) == params_key(swapped)) is symmetric
        # the flag itself is part of the identity
        flipped = dataclasses.replace(p, symmetric=not p.symmetric)
        assert params_key(flipped) != params_key(p)


def _backwards(p: UnitCommitmentRampParams) -> UnitCommitmentRampParams:
    generators = tuple(
        dataclasses.replace(
            g,
            status=g.status[::-1],
            startup=(None,) + g.shutdown[:0:-1],
            shutdown=(None,) + g.startup[:0:-1],
            power=g.power[::-1],
            reserve=g.reserve[::-1],
        )
        for g in p.generators
    )
    return dataclasses.replace(
        p, generators=generators, demands=p.demands[::-1], reserves=p.reserves[::-1]
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_commitment_reads_the_same_backwards(seed):
    record = reverse_sample(Family.UNIT_COMMITMENT_RAMP, seed=seed).ground_truth
    back = _backwards(record.params)
    assert back != record.params
    assert records_equal(record, dataclasses.replace(record, params=back))
    assert _backwards(back) == record.params
    # reversing the periods without swapping startup and shutdown is another chain
    unswapped = dataclasses.replace(
        back,
        generators=tuple(
            dataclasses.replace(g, startup=g.shutdown, shutdown=g.startup)
            for g in back.generators
        ),
    )
    assert not records_equal(record, dataclasses.replace(record, params=unswapped))


def _planted_doc(family: Family):
    inst = reverse_sample(family, seed=0)
    return records_to_json([inst.ground_truth], inst.model), inst


@pytest.mark.parametrize(
    "family, field, value, message",
    [
        (Family.ALL_DIFFERENT, "symmetric", 1, "expected a JSON bool, got 1"),
        (Family.STRETCH, "min_run", 2.0, "expected a JSON int, got 2.0"),
        (Family.STRETCH, "max_run", True, "expected a JSON int, got True"),
        (Family.CARDINALITY, "lower", False, "expected a JSON float, got False"),
        (Family.DISJ_POLYHEDRAL, "variant", 5, "expected a JSON str, got 5"),
        (Family.DISJ_POLYHEDRAL, "variant", "exact-one-mode",
         "unknown DisjPolyhedral variant 'exact-one-mode'"),
        (Family.CARDINALITY, "vars", ["nobody"], "unknown variable name 'nobody'"),
    ],
    ids=["bool-as-int", "int-as-float", "int-as-bool", "float-as-bool", "str-as-int",
         "unknown-variant", "name"],
)
def test_records_from_json_rejects_wrong_values(family, field, value, message):
    doc, inst = _planted_doc(family)
    doc["records"][0]["params"][field] = value
    with pytest.raises(ValueError, match=message):
        records_from_json(doc, inst.model)


# a JSON bool or float equal to the version is no schema number
@pytest.mark.parametrize(
    "schema", [2, None, True, 1.0], ids=["newer", "missing", "bool", "float"]
)
def test_records_from_json_rejects_an_unsupported_schema(schema):
    doc, inst = _planted_doc(Family.CARDINALITY)
    if schema is None:
        del doc["schema"]
    else:
        doc["schema"] = schema
    with pytest.raises(ValueError, match=f"unsupported records schema {schema!r}"):
        records_from_json(doc, inst.model)


def test_record_needs_a_scope_and_its_family_s_params():
    inst = reverse_sample(Family.CARDINALITY, seed=0)
    truth = inst.ground_truth
    with pytest.raises(ValueError, match="record scope must not be empty"):
        dataclasses.replace(truth, scope=())
    with pytest.raises(
        ValueError, match="AllDifferent record needs AllDifferentParams, got CardinalityParams"
    ):
        dataclasses.replace(truth, family=Family.ALL_DIFFERENT)


def test_records_from_json_takes_an_int_for_a_float():
    doc, inst = _planted_doc(Family.CARDINALITY)
    params = doc["records"][0]["params"]
    assert type(params["lower"]) is float and params["lower"] == int(params["lower"])
    params["lower"] = int(params["lower"])
    (record,) = records_from_json(doc, inst.model)
    assert records_equal(record, inst.ground_truth)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_kept_record_round_trips(family):
    models = [(planted.model, report.records) for planted, report in _detected(family)]
    if family is Family.BOTTLENECK_EXACT_ONE:
        # an incomplete bottleneck gives its group rows' counting records only
        model = bottleneck_model(PARTIAL_WEIGHTS)
        records = detect_all(model).records
        assert {r.family for r in records} == {Family.CARDINALITY}
        models.append((model, records))
    for model, records in models:
        records = list(records)
        doc = json.loads(json.dumps(records_to_json(records, model)))
        assert records_from_json(doc, model) == records
        var_ids, row_ids = range(len(model.variables)), range(len(model.rows))
        assert [remap_record(r, var_ids, row_ids) for r in records] == records


def test_records_from_json_reads_documents_with_confidence_and_link_coverage():
    # documents once carried each record's confidence and the bottleneck's
    # link coverage; both keys are skipped
    inst = reverse_sample(Family.BOTTLENECK_EXACT_ONE, seed=0)
    records = [inst.ground_truth, *detect_all(inst.model).records]
    doc = records_to_json(records, inst.model)
    old = json.loads(json.dumps(doc))
    for raw in old["records"]:
        raw["confidence"] = "exact"
        if raw["family"] == Family.BOTTLENECK_EXACT_ONE.value:
            raw["params"]["link_coverage"] = 1.0
    assert records_from_json(old, inst.model) == records_from_json(doc, inst.model)
    assert records_from_json(old, inst.model) == records
