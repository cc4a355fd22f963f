"""Verification gate tests: enumeration oracle, recovery gate, CI ladder."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

import structprop.verify as verify_mod
from structprop.detect import DETECTORS, detect_all
from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    PropagationOutcome,
    Variable,
)
from structprop.propagate import propagate_block_fixpoint, propagate_record
from structprop.records import (
    PARAMS_CLASSES,
    Family,
    OneHotResourceParams,
    SemanticRecord,
)
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample
from structprop.verify import (
    GATES,
    GateResult,
    enumerate_feasible,
    ladder_to_json,
    run_gate_ladder,
    verify_detector,
    verify_propagation,
)


def binary(vid, name):
    return Variable(vid, name, 0.0, 1.0, Integrality.BINARY)


def make_model(variables, row_specs):
    rows = [
        LinearRow(rid, f"r{rid}", tuple(terms), lhs, rhs)
        for rid, (terms, lhs, rhs) in enumerate(row_specs)
    ]
    return MipModel(variables, rows)


# ---------------------------------------------------------------------------
# enumeration


def test_single_binary_no_rows():
    model = MipModel((binary(0, "b"),), ())
    result = enumerate_feasible(model, [0])
    assert result.feasible_points == {(0,), (1,)}
    assert not result.truncated
    assert result.scope_vars == (0,)


def test_two_by_two_assignment_grid():
    # exact-one per item row and per value column leaves the 2 permutations
    model = make_model(
        [binary(v, f"y{v}") for v in range(4)],
        [
            ([(0, 1.0), (1, 1.0)], 1.0, 1.0),
            ([(2, 1.0), (3, 1.0)], 1.0, 1.0),
            ([(0, 1.0), (2, 1.0)], 1.0, 1.0),
            ([(1, 1.0), (3, 1.0)], 1.0, 1.0),
        ],
    )
    result = enumerate_feasible(model, [0, 1, 2, 3])
    assert result.feasible_points == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_infeasible_instance_enumerates_empty():
    inst = reverse_sample(Family.CARDINALITY, seed=5, make_infeasible=True)
    result = enumerate_feasible(inst.model, inst.ground_truth.scope)
    assert result.feasible_points == frozenset()
    assert result.nodes_visited == 0  # the clash rows kill the root box
    root = DomainBox.from_model(inst.model)
    assert propagate_block_fixpoint(inst.model.rows, root).cutoff


def test_enumeration_cap_sets_truncated():
    inst = reverse_sample(Family.CARDINALITY, seed=0)
    result = enumerate_feasible(inst.model, inst.ground_truth.scope, cap=2)
    assert result.truncated
    assert result.nodes_visited == 2


def test_nonstrict_skips_continuous_scope_vars():
    inst = reverse_sample(Family.BOTTLENECK_EXACT_ONE, seed=0)
    scope = inst.ground_truth.scope
    result = enumerate_feasible(inst.model, scope)
    continuous = [v for v in scope if not inst.model.variables[v].is_integer]
    assert continuous
    assert set(result.scope_vars) == set(scope) - set(continuous)
    assert result.feasible_points


def test_infinite_integer_domain_rejected():
    model = MipModel(
        (Variable(0, "n", 0.0, INF, Integrality.INTEGER),), ()
    )
    with pytest.raises(ValueError, match="infinite"):
        enumerate_feasible(model, [0])


def _rational_feasible(model, scope_vars):
    """Brute force over every integer variable, checking rows exactly.

    Continuous variables contribute their exact interval to each row; that
    is only a valid completion argument when each continuous variable
    appears in a single row, which the assertion below pins down.
    """
    ints = [v.id for v in model.variables if v.is_integer]
    conts = [v for v in model.variables if not v.is_integer]
    for var in conts:
        touching = [r for r in model.rows if any(t[0] == var.id for t in r.terms)]
        assert len(touching) <= 1, "oracle needs row-decoupled continuous variables"
    domains = [
        range(int(model.variables[v].lower), int(model.variables[v].upper) + 1)
        for v in ints
    ]
    points = set()
    for combo in itertools.product(*domains):
        value = dict(zip(ints, combo))
        ok = True
        for row in model.rows:
            low = high = Fraction(0)
            for v, c in row.terms:
                coeff = Fraction(c)
                if v in value:
                    low += coeff * value[v]
                    high += coeff * value[v]
                elif coeff > 0:
                    low += coeff * Fraction(model.variables[v].lower)
                    high += coeff * Fraction(model.variables[v].upper)
                else:
                    low += coeff * Fraction(model.variables[v].upper)
                    high += coeff * Fraction(model.variables[v].lower)
            if row.lhs > -INF and high < Fraction(row.lhs):
                ok = False
                break
            if row.rhs < INF and low > Fraction(row.rhs):
                ok = False
                break
        if ok:
            points.add(tuple(value[v] for v in scope_vars))
    return points


PURE_INTEGER_FAMILIES = [
    Family.ALL_DIFFERENT,
    Family.CARDINALITY,
    Family.CHANNEL,
    Family.CUMULATIVE,
    Family.NVALUE,
    Family.STRETCH,
    Family.ONE_HOT_RESOURCE,
    Family.ROSTERING_WINDOW,
    Family.DISJ_POLYHEDRAL,
]


@pytest.mark.parametrize("family", PURE_INTEGER_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_enumeration_matches_rational_bruteforce(family, seed):
    inst = reverse_sample(family, seed=seed)
    result = enumerate_feasible(inst.model, inst.ground_truth.scope)
    assert not result.truncated
    assert result.feasible_points == _rational_feasible(inst.model, result.scope_vars)


# ---------------------------------------------------------------------------
# detector gate


def test_clean_instance_recovery_passes():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    gate = verify_detector(inst, detect_all(inst.model).records)
    assert gate.passed
    assert gate.gate == "detector_verification"
    assert gate.detail == "exact recovery"


def test_obfuscated_instance_recovery_passes():
    inst = obfuscate(
        reverse_sample(Family.ONE_HOT_RESOURCE, seed=4), ObfuscationConfig(seed=4)
    )
    gate = verify_detector(inst, detect_all(inst.model).records)
    assert gate.passed


def test_empty_detection_fails_with_no_records():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    gate = verify_detector(inst, [])
    assert not gate.passed
    assert gate.detail == "no records"


def test_scope_off_by_one_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    truth = inst.ground_truth
    shrunk = dataclasses.replace(truth, scope=truth.scope[:-1])
    gate = verify_detector(inst, [shrunk])
    assert not gate.passed
    assert gate.detail == "scope mismatch"


def test_params_mismatch_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    truth = inst.ground_truth
    skewed = dataclasses.replace(
        truth, params=dataclasses.replace(truth.params, upper=truth.params.upper + 1)
    )
    gate = verify_detector(inst, [skewed])
    assert not gate.passed
    assert gate.detail == "params mismatch"


def test_extra_same_family_record_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    gate = verify_detector(inst, [inst.ground_truth, inst.ground_truth])
    assert not gate.passed
    assert "expected one" in gate.detail


def test_only_other_families_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    stranger = reverse_sample(Family.STRETCH, seed=2).ground_truth
    gate = verify_detector(inst, [stranger])
    assert not gate.passed
    assert "no Cardinality record" in gate.detail


# ---------------------------------------------------------------------------
# propagation gate


def onehot_example():
    """Two exact-one groups with costs {3,5} and {4,7} under budget 8."""
    model = make_model(
        [binary(v, f"y{v}") for v in range(4)],
        [
            ([(0, 1.0), (1, 1.0)], 1.0, 1.0),
            ([(2, 1.0), (3, 1.0)], 1.0, 1.0),
            ([(0, 3.0), (1, 5.0), (2, 4.0), (3, 7.0)], -INF, 8.0),
        ],
    )
    params = OneHotResourceParams(
        groups=(((0, 3.0), (1, 5.0)), ((2, 4.0), (3, 7.0))),
        budget=8.0,
        external_min=0.0,
    )
    record = SemanticRecord(
        Family.ONE_HOT_RESOURCE, (0, 1, 2, 3), params, (0, 1, 2)
    )
    return model, record


def test_onehot_worked_example_passes():
    model, record = onehot_example()
    gate = verify_propagation(model, record)
    assert gate.passed
    assert "kept all 1 feasible assignments" in gate.detail
    # the only feasible selection takes the cheap option in both groups,
    # so the propagator fixes two variables at 1 (and the other two at 0)
    box = DomainBox.from_model(model)
    outcome = propagate_record(model, record, box)
    fixings = [c for c in outcome.bound_changes if c.which == "lb"]
    assert len(fixings) == 2
    assert box.lower[0] == box.lower[2] == 1.0
    assert box.upper[1] == box.upper[3] == 0.0


def test_identity_propagator_passes(monkeypatch):
    model, record = onehot_example()

    def idle(model, record, box, config=None):
        return PropagationOutcome(calls=1)

    monkeypatch.setattr(verify_mod, "propagate_record", idle)
    gate = verify_propagation(model, record)
    assert gate.passed
    assert gate.detail.startswith("0 bound changes")


def test_propagator_zeroing_feasible_option_fails(monkeypatch):
    model, record = onehot_example()

    def broken(model, record, box, config=None):
        box.upper[0] = 0.0  # kills the only feasible selection
        return PropagationOutcome(calls=1, domain_reductions=1)

    monkeypatch.setattr(verify_mod, "propagate_record", broken)
    gate = verify_propagation(model, record)
    assert not gate.passed
    assert "excluded a feasible point" in gate.detail


def test_false_cutoff_fails(monkeypatch):
    model, record = onehot_example()

    def cries_wolf(model, record, box, config=None):
        return PropagationOutcome(cutoff=True, calls=1, cutoffs=1)

    monkeypatch.setattr(verify_mod, "propagate_record", cries_wolf)
    gate = verify_propagation(model, record)
    assert not gate.passed
    assert "cutoff despite 1 feasible assignments" in gate.detail


def test_cutoff_on_empty_feasible_set_passes(monkeypatch):
    inst = reverse_sample(Family.CARDINALITY, seed=5, make_infeasible=True)

    def cuts(model, record, box, config=None):
        return PropagationOutcome(cutoff=True, calls=1, cutoffs=1)

    monkeypatch.setattr(verify_mod, "propagate_record", cuts)
    gate = verify_propagation(inst.model, inst.ground_truth)
    assert gate.passed


def test_truncated_enumeration_is_inconclusive():
    model, record = onehot_example()
    gate = verify_propagation(model, record, cap=1)
    assert not gate.passed
    assert "inconclusive" in gate.detail


# ---------------------------------------------------------------------------
# gate ladder


def small_suites(monkeypatch, size):
    monkeypatch.setattr(verify_mod, "DETECTOR_SUITE_SIZE", size)
    monkeypatch.setattr(verify_mod, "SOUNDNESS_SUITE_SIZE", size)


def test_ladder_all_gates_pass(monkeypatch):
    small_suites(monkeypatch, 4)
    results = run_gate_ladder(Family.CARDINALITY, suite_seed=0)
    assert [r.gate for r in results] == list(GATES)
    assert all(r.passed for r in results)
    assert results[-1].detail == "all gates passed"


def test_ladder_stubbed_detector_short_circuits(monkeypatch):
    small_suites(monkeypatch, 3)
    results = run_gate_ladder(
        Family.CARDINALITY, suite_seed=0, detector=lambda model: []
    )
    gates = [r.gate for r in results]
    assert gates == [
        "artifact_completeness",
        "load",
        "detector_verification",
        "benchmark_ready",
    ]
    failed = {r.gate: r for r in results if not r.passed}
    assert set(failed) == {"detector_verification", "benchmark_ready"}
    assert "no records" in failed["detector_verification"].detail
    assert failed["benchmark_ready"].detail == "blocked by detector_verification"


def test_ladder_load_gate_catches_crash():
    def explodes(model):
        raise RuntimeError("bad import")

    results = run_gate_ladder(Family.CARDINALITY, detector=explodes)
    by_gate = {r.gate: r for r in results}
    assert not by_gate["load"].passed
    assert "crashed on empty model" in by_gate["load"].detail
    assert "propagator_soundness" not in by_gate


def test_ladder_smoke_timeout(monkeypatch):
    monkeypatch.setitem(verify_mod.GATE_TIME_CAPS, "smoke", 0.0)
    small_suites(monkeypatch, 2)
    results = run_gate_ladder(Family.CARDINALITY)
    by_gate = {r.gate: r for r in results}
    assert not by_gate["smoke"].passed
    assert "timeout" in by_gate["smoke"].detail
    assert by_gate["benchmark_ready"].detail == "blocked by smoke"


def test_ladder_smoke_fails_on_a_root_cutoff(monkeypatch):
    # the smoke instance is planted feasible, so a root cutoff is unsound
    def cuts(model, records, box, config=None):
        return PropagationOutcome(), PropagationOutcome(cutoff=True, cutoffs=1)

    small_suites(monkeypatch, 1)
    monkeypatch.setattr(verify_mod, "propagate_node", cuts)
    results = run_gate_ladder(Family.CHANNEL)
    by_gate = {r.gate: r for r in results}
    assert by_gate["load"].passed
    assert not by_gate["smoke"].passed
    assert "cutoff=True" in by_gate["smoke"].detail
    assert by_gate["benchmark_ready"].detail == "blocked by smoke"


def test_ladder_missing_detector_fails_artifact_gate(monkeypatch):
    monkeypatch.delitem(DETECTORS, Family.STRETCH)
    small_suites(monkeypatch, 1)
    results = run_gate_ladder(Family.STRETCH)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert not results[0].passed
    assert "missing: detector" in results[0].detail


@dataclasses.dataclass(frozen=True)
class _ListParams:
    vars: list  # the codec walks tuples only


def test_ladder_flags_params_the_codec_cannot_walk(monkeypatch):
    monkeypatch.setitem(PARAMS_CLASSES, Family.STRETCH, _ListParams)
    small_suites(monkeypatch, 1)
    results = run_gate_ladder(Family.STRETCH)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert results[0].detail == "missing: serializer"


def test_ladder_artifact_gate_reads_detect_only(monkeypatch):
    small_suites(monkeypatch, 1)
    results = run_gate_ladder(Family.CARDINALITY)
    assert results[0].passed
    assert results[0].detail == "detector, record schema, detect-only, serializer registered"
    assert results[-1].passed

    # a family with neither a propagator nor a detect-only entry is incomplete
    monkeypatch.setattr(verify_mod, "DETECT_ONLY", frozenset())
    results = run_gate_ladder(Family.CARDINALITY)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert results[0].detail == "missing: propagator"


def test_benchmark_ready_implies_all_prior(monkeypatch):
    small_suites(monkeypatch, 2)
    scenarios = [
        run_gate_ladder(Family.CHANNEL),
        run_gate_ladder(Family.CHANNEL, detector=lambda model: []),
    ]
    for results in scenarios:
        if results[-1].passed:
            assert all(r.passed for r in results)
        else:
            assert any(not r.passed for r in results[:-1])


def test_ladder_to_json_shape(monkeypatch):
    small_suites(monkeypatch, 2)
    results = run_gate_ladder(Family.ONE_HOT_RESOURCE)
    report = ladder_to_json(Family.ONE_HOT_RESOURCE, results)
    assert report["family"] == "OneHotResource"
    assert report["benchmark_ready"] is True
    assert len(report["gates"]) == len(GATES)
    smoke = next(g for g in report["gates"] if g["gate"] == "smoke")
    assert smoke["limit_s"] == 90.0
    assert smoke["passed"] is True
    ready = next(g for g in report["gates"] if g["gate"] == "benchmark_ready")
    assert ready["limit_s"] is None


def test_unknown_gate_name_rejected():
    with pytest.raises(ValueError, match="unknown gate"):
        GateResult("vibes", True)
