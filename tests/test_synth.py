import itertools
import math

import pytest

from structprop.model import DomainBox, compute_activity, models_equal
from structprop.mps import parse_mps, write_mps
from structprop.records import Family, records_equal
from structprop.synth import (
    ObfuscationConfig,
    default_size_params,
    instance_to_json,
    load_ground_truth,
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
        stripped = type(row)(row.id, row.name, rest, -math.inf, row.rhs)
        max_rest = compute_activity(stripped, box).max_activity
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
        activity = compute_activity(row, box)
        assert row.lhs <= activity.min_activity
        assert activity.max_activity <= row.rhs


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
    reread = parse_mps(open(mps_path).read())
    assert models_equal(inst.model, reread)
    truth = load_ground_truth(json_path, reread)
    assert records_equal(truth, inst.ground_truth)
    doc = instance_to_json(inst)
    assert doc["family"] == "BottleneckExactOne"
    assert doc["feasible"] is True
