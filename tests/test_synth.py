import hashlib
import itertools
import json

import pytest

from structprop.detect import detect_all
from structprop.model import (
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    Variable,
    activity_range,
    models_equal,
)
from structprop.mps import parse_mps, write_mps
from structprop.records import (
    CardinalityParams,
    Family,
    SemanticRecord,
    records_equal,
    records_from_json,
    records_to_json,
)
from structprop.synth import (
    SIDECAR_SCHEMA_VERSION,
    ObfuscationConfig,
    default_size_params,
    instance_to_json,
    obfuscate,
    reverse_sample,
    witness_satisfies,
    write_instance,
)

ALL_FAMILIES = list(Family)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_witness_feasible_by_construction(family, seed):
    inst = reverse_sample(family, seed=seed)
    assert inst.feasible
    assert witness_satisfies(inst.model, inst.witness)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_ground_truth_references_exist(family):
    inst = reverse_sample(family, seed=11)
    n_vars = len(inst.model.variables)
    n_rows = len(inst.model.rows)
    assert all(0 <= v < n_vars for v in inst.ground_truth.scope)
    assert all(0 <= r < n_rows for r in inst.ground_truth.evidence)
    assert inst.permutation == (tuple(range(n_rows)), tuple(range(n_vars)))


def test_alldifferent_structure_frozen():
    # n=3 gives a 3x3 assignment grid held by 6 structural rows
    inst = reverse_sample(Family.ALL_DIFFERENT, {"n": 3}, seed=7)
    assert len(inst.model.variables) == 9
    assert len(inst.model.rows) == 6
    equalities = [r for r in inst.model.rows if r.is_equality]
    assert len(equalities) == 3
    assert all(len(r.terms) == 3 for r in inst.model.rows)


def test_one_hot_structure_and_feasible_by_enumeration():
    inst = reverse_sample(Family.ONE_HOT_RESOURCE, {"groups": 2, "options": 2}, seed=1)
    binaries = [v for v in inst.model.variables if v.integrality.value == "binary"]
    assert len(binaries) == 4
    exact_ones = [r for r in inst.model.rows if r.is_equality]
    capacity = [r for r in inst.model.rows if not r.is_equality]
    assert len(exact_ones) == 2
    assert len(capacity) == 1

    # brute force the 4 one-hot combinations; externals sit at best case
    feasible = 0
    others = {
        v.id: v.lower for v in inst.model.variables if v.integrality.value != "binary"
    }
    for bits in itertools.product([0.0, 1.0], repeat=4):
        point = dict(zip((v.id for v in binaries), bits))
        point.update(others)
        ok = all(
            row.lhs <= sum(c * point[v] for v, c in row.terms) <= row.rhs
            for row in inst.model.rows
        )
        feasible += ok
    assert feasible >= 1


def test_disjunction_big_m_dominates_admission_bound():
    inst = reverse_sample(Family.DISJ_POLYHEDRAL, {"branches": 2}, seed=3)
    model = inst.model
    box = DomainBox.from_model(model)
    guards = {b.selector_var for b in inst.ground_truth.params.branches}
    assert len(guards) == 1
    (guard,) = guards
    guarded = [r for r in model.rows if any(v == guard for v, _ in r.terms)]
    assert len(guarded) >= 2
    for row in guarded:
        m = dict(row.terms)[guard]
        rest = tuple(t for t in row.terms if t[0] != guard)
        _, max_rest = activity_range(rest, box)
        active_bound = row.rhs - m if m > 0 else row.rhs
        assert abs(m) >= max_rest - active_bound


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_obfuscate_all_off_is_identity(family):
    inst = reverse_sample(family, seed=5)
    config = ObfuscationConfig(
        noise_rows=0, permute_rows=False, permute_vars=False, sign_flip_prob=0.0, seed=0
    )
    same = obfuscate(inst, config)
    assert models_equal(inst.model, same.model)
    assert records_equal(inst.ground_truth, same.ground_truth)
    assert same.witness == inst.witness


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_obfuscation_preserves_witness(family):
    inst = reverse_sample(family, seed=13)
    ob = obfuscate(inst, ObfuscationConfig(noise_rows=5, seed=99))
    assert len(ob.model.rows) == len(inst.model.rows) + 5
    assert witness_satisfies(ob.model, ob.witness)


def test_noise_rows_are_vacuous_under_bounds():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    ob = obfuscate(inst, ObfuscationConfig(noise_rows=12, seed=4))
    box = DomainBox.from_model(ob.model)
    assert len(ob.noise_row_ids) == 12
    for rid in ob.noise_row_ids:
        row = ob.model.rows[rid]
        min_act, max_act = activity_range(row.terms, box)
        assert row.lhs <= min_act
        assert max_act <= row.rhs


def test_obfuscated_row_sides_are_floats():
    ob = obfuscate(reverse_sample(Family.CARDINALITY, seed=0), ObfuscationConfig(seed=0))
    assert ob.noise_row_ids
    for row in ob.model.rows:
        assert type(row.lhs) is float and type(row.rhs) is float


def test_sign_flip_prob_one_negates_every_row():
    inst = reverse_sample(Family.CARDINALITY, seed=8)
    ob = obfuscate(
        inst,
        ObfuscationConfig(
            noise_rows=0, permute_rows=False, permute_vars=False,
            sign_flip_prob=1.0, seed=1,
        ),
    )
    for before, after in zip(inst.model.rows, ob.model.rows):
        assert after.terms == tuple((v, -c) for v, c in before.terms)
        assert (after.lhs, after.rhs) == (-before.rhs, -before.lhs)


def test_permutation_map_tracks_variables():
    inst = reverse_sample(Family.CHANNEL, seed=21)
    ob = obfuscate(inst, ObfuscationConfig(seed=77))
    row_map, var_map = ob.permutation
    for old_id, new_id in enumerate(var_map):
        assert ob.model.variables[new_id].name == inst.model.variables[old_id].name
    for old_id, new_id in enumerate(row_map):
        assert ob.model.rows[new_id].name == inst.model.rows[old_id].name


def test_ground_truth_follows_permutation():
    inst = reverse_sample(Family.ONE_HOT_RESOURCE, seed=31)
    ob = obfuscate(inst, ObfuscationConfig(seed=32))
    _, var_map = ob.permutation
    expected_scope = {var_map[v] for v in inst.ground_truth.scope}
    assert set(ob.ground_truth.scope) == expected_scope
    assert ob.ground_truth.params.budget == inst.ground_truth.params.budget


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_same_seed_gives_byte_identical_mps(family):
    first = obfuscate(reverse_sample(family, seed=42), ObfuscationConfig(seed=43))
    second = obfuscate(reverse_sample(family, seed=42), ObfuscationConfig(seed=43))
    assert write_mps(first.model) == write_mps(second.model)


# per family, sha256 prefix of the MPS text of its obfuscated seed-0..2
# instances; sharing stored values must leave every byte as it was
PINNED_MPS_SHA256 = {
    Family.ALL_DIFFERENT: "3cd63190c4219201",
    Family.CARDINALITY: "b06de4ea04767c9a",
    Family.CHANNEL: "bc6aeff6da88a0de",
    Family.CUMULATIVE: "ceb7626aac121e80",
    Family.NVALUE: "10ab7ecc97d71239",
    Family.STRETCH: "30b69c5ea3feafaf",
    Family.ONE_HOT_RESOURCE: "d3cae2e02a94ccd0",
    Family.BOTTLENECK_EXACT_ONE: "c2e7abaeb5b14b42",
    Family.ROSTERING_WINDOW: "a022e3f0eb0fa4b8",
    Family.UNIT_COMMITMENT_RAMP: "90255dc2426e8a79",
    Family.DISJ_POLYHEDRAL: "79a604e4a3933f8a",
}


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_obfuscated_mps_matches_pinned_bytes(family):
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        inst = obfuscate(reverse_sample(family, seed=seed), ObfuscationConfig(seed=seed))
        digest.update(write_mps(inst.model).encode())
    assert digest.hexdigest()[:16] == PINNED_MPS_SHA256[family]


# per family and variant, sha256 prefix of the records JSON (ground truth
# plus detect_all output) of its seed-0..2 instances; the serializer must
# leave every byte as it was
PINNED_RECORDS_SHA256 = {
    ("clean", Family.ALL_DIFFERENT): "12f3d622426f5fc0",
    ("clean", Family.CARDINALITY): "e345c79100b276c9",
    ("clean", Family.CHANNEL): "20a3c0734476159e",
    ("clean", Family.CUMULATIVE): "b8fdc3b7fb4bda9b",
    ("clean", Family.NVALUE): "df3f2c4b7c0cab70",
    ("clean", Family.STRETCH): "f24814ed9e521a22",
    ("clean", Family.ONE_HOT_RESOURCE): "5599510da24048ca",
    ("clean", Family.BOTTLENECK_EXACT_ONE): "9906b3733a71278a",
    ("clean", Family.ROSTERING_WINDOW): "5ca629dfad36e52d",
    ("clean", Family.UNIT_COMMITMENT_RAMP): "41a010e0f57131be",
    ("clean", Family.DISJ_POLYHEDRAL): "acc43446671d737b",
    ("obfuscated", Family.ALL_DIFFERENT): "47dc7bf91a216e72",
    ("obfuscated", Family.CARDINALITY): "32c8af83cac7298e",
    ("obfuscated", Family.CHANNEL): "8fa55395a3aecb87",
    ("obfuscated", Family.CUMULATIVE): "a3b1e6fee8d1dfcc",
    ("obfuscated", Family.NVALUE): "f57c05f077841957",
    ("obfuscated", Family.STRETCH): "d0557014f80d3caf",
    ("obfuscated", Family.ONE_HOT_RESOURCE): "49a791df7c587e8f",
    ("obfuscated", Family.BOTTLENECK_EXACT_ONE): "f5cc820320f69d73",
    ("obfuscated", Family.ROSTERING_WINDOW): "dcef0f3c7bffa4d8",
    ("obfuscated", Family.UNIT_COMMITMENT_RAMP): "e7496e3e1390c0d9",
    # names, not ids, are written, and no noise row is referenced
    ("obfuscated", Family.DISJ_POLYHEDRAL): "acc43446671d737b",
}


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("variant", ["clean", "obfuscated"])
def test_records_json_matches_pinned_bytes(family, variant):
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        inst = reverse_sample(family, seed=seed)
        if variant == "obfuscated":
            inst = obfuscate(inst, ObfuscationConfig(seed=seed))
        records = [inst.ground_truth, *detect_all(inst.model).records]
        doc = records_to_json(records, inst.model)
        digest.update(json.dumps(doc, indent=1, sort_keys=True).encode())
        back = records_from_json(json.loads(json.dumps(doc)), inst.model)
        assert back == records
    assert digest.hexdigest()[:16] == PINNED_RECORDS_SHA256[variant, family]


def test_records_json_refuses_ambiguous_names():
    # "" falls back to C0003, which the fourth variable already uses
    variables = tuple(
        Variable(i, name, 0.0, 1.0, Integrality.BINARY)
        for i, name in enumerate(["x", "x", "", "C0003"])
    )
    row = LinearRow(0, "pick", ((0, 1.0), (1, 1.0)), 1.0, 1.0)
    model = MipModel(variables, (row,))
    record = SemanticRecord(
        Family.CARDINALITY, (0, 1, 2), CardinalityParams((0, 1, 2), 1.0, 1.0), (0,)
    )
    with pytest.raises(ValueError, match="variable name"):
        records_to_json([record], model)
    doc = {
        "schema": 1,
        "records": [
            {
                "family": "Cardinality",
                "scope": ["x", "C0003"],
                "params": {"vars": ["x", "C0003"], "lower": 1.0, "upper": 1.0},
                "evidence": ["pick"],
            }
        ],
    }
    with pytest.raises(ValueError, match="variable name"):
        records_from_json(doc, model)
    # likewise an unnamed row falls back to R0001, which the second row uses
    rows = (
        LinearRow(0, "", ((0, 1.0),), 1.0, 1.0),
        LinearRow(1, "R0001", ((1, 1.0),), 1.0, 1.0),
    )
    unique = tuple(
        Variable(i, f"y{i}", 0.0, 1.0, Integrality.BINARY) for i in range(2)
    )
    single = SemanticRecord(
        Family.CARDINALITY, (0,), CardinalityParams((0,), 1.0, 1.0), (0,)
    )
    with pytest.raises(ValueError, match="row name"):
        records_to_json([single], MipModel(unique, rows))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_witness_values_are_shared_floats(family):
    inst = reverse_sample(family, seed=3)
    for witness in (inst.witness, obfuscate(inst, ObfuscationConfig(seed=3)).witness):
        first_of = {}
        for value in witness.values():
            assert type(value) is float
            assert first_of.setdefault(value, value) is value  # equal values, one object


def test_make_infeasible_truly_conflicts():
    inst = reverse_sample(Family.CARDINALITY, {"n": 5}, seed=9, make_infeasible=True)
    assert inst.witness is None and not inst.feasible
    binaries = [v.id for v in inst.model.variables]
    for bits in itertools.product([0.0, 1.0], repeat=len(binaries)):
        point = dict(zip(binaries, bits))
        assert any(
            not (row.lhs <= sum(c * point[v] for v, c in row.terms) <= row.rhs)
            for row in inst.model.rows
        )


def test_size_validation_errors():
    with pytest.raises(ValueError):
        reverse_sample(Family.ALL_DIFFERENT, {"n": 2}, seed=0)
    with pytest.raises(ValueError):
        reverse_sample(Family.DISJ_POLYHEDRAL, {"branches": 7}, seed=0)
    with pytest.raises(ValueError):
        reverse_sample(Family.CARDINALITY, {"bogus": 3}, seed=0)


def test_scope_cap_enforced_and_overridable():
    with pytest.raises(ValueError, match="cap"):
        reverse_sample(Family.ALL_DIFFERENT, {"n": 4}, seed=0)
    inst = reverse_sample(Family.ALL_DIFFERENT, {"n": 4, "allow_large": 1}, seed=0)
    assert len(inst.model.variables) == 16


def test_defaults_are_copies():
    sizes = default_size_params(Family.CUMULATIVE)
    sizes["tasks"] = 99
    assert default_size_params(Family.CUMULATIVE)["tasks"] == 2


def test_sidecar_round_trip(tmp_path):
    inst = obfuscate(
        reverse_sample(Family.BOTTLENECK_EXACT_ONE, seed=17),
        ObfuscationConfig(seed=18),
    )
    mps_path, json_path = write_instance(inst, str(tmp_path))
    with open(mps_path) as handle:
        reread = parse_mps(handle.read())
    assert models_equal(inst.model, reread)
    with open(json_path) as handle:
        sidecar = json.load(handle)
    assert sidecar["schema"] == SIDECAR_SCHEMA_VERSION
    (truth,) = records_from_json(sidecar["ground_truth"], reread)
    assert records_equal(truth, inst.ground_truth)
    doc = instance_to_json(inst)
    assert doc["family"] == "BottleneckExactOne"
    assert doc["feasible"] is True
