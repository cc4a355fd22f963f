"""Verification gate tests: enumeration oracle, recovery gate, CI ladder."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from clash import clash_model

import structprop.verify as verify_mod
from structprop.detect import detect_all
from structprop.families import FAMILIES
from structprop.families.one_hot_resource import OneHotResourceParams
from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    PropagationOutcome,
    Variable,
    set_upper,
)
from structprop.propagate import propagate_block_fixpoint
from structprop.search import propagate_node
from structprop.records import Family, SemanticRecord
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
    model, record = clash_model(Family.CARDINALITY, 5)
    result = enumerate_feasible(model, record.scope)
    assert result.feasible_points == frozenset()
    assert result.nodes_visited == 0  # the clash rows kill the root box
    root = DomainBox.from_model(model)
    assert propagate_block_fixpoint(model.rows, root).cutoff


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


def test_each_node_copies_its_box_for_all_values_but_the_last(monkeypatch):
    # a node trying k values makes k - 1 copies: its own box takes the last
    calls = {"copy": 0, "fix": 0}
    real_copy, real_fix = DomainBox.copy, DomainBox.fix

    def counting_copy(box):
        calls["copy"] += 1
        return real_copy(box)

    def counting_fix(box, var, value):
        calls["fix"] += 1
        real_fix(box, var, value)

    monkeypatch.setattr(DomainBox, "copy", counting_copy)
    monkeypatch.setattr(DomainBox, "fix", counting_fix)
    inst = reverse_sample(Family.CHANNEL, seed=0)
    result = enumerate_feasible(inst.model, inst.ground_truth.scope)
    assert not result.truncated and result.feasible_points
    branched = result.nodes_visited - len(result.feasible_points)  # non-leaf nodes
    assert calls["copy"] == calls["fix"] - branched
    assert calls["copy"] < calls["fix"]


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
    passed, detail = verify_detector(inst, detect_all(inst.model).records)
    assert passed
    assert detail == "exact recovery"


def test_obfuscated_instance_recovery_passes():
    inst = obfuscate(
        reverse_sample(Family.ONE_HOT_RESOURCE, seed=4), ObfuscationConfig(seed=4)
    )
    passed, detail = verify_detector(inst, detect_all(inst.model).records)
    assert passed


def test_empty_detection_fails_with_no_records():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    passed, detail = verify_detector(inst, [])
    assert not passed
    assert detail == "no records"


def test_scope_off_by_one_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    truth = inst.ground_truth
    shrunk = dataclasses.replace(truth, scope=truth.scope[:-1])
    passed, detail = verify_detector(inst, [shrunk])
    assert not passed
    assert detail == "scope mismatch"


def test_params_mismatch_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    truth = inst.ground_truth
    skewed = dataclasses.replace(
        truth, params=dataclasses.replace(truth.params, upper=truth.params.upper + 1)
    )
    passed, detail = verify_detector(inst, [skewed])
    assert not passed
    assert detail == "params mismatch"


def test_evidence_mismatch_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    truth = inst.ground_truth
    moved = dataclasses.replace(truth, evidence=(truth.evidence[0] + 1,))
    passed, detail = verify_detector(inst, [moved])
    assert not passed
    assert detail == "evidence mismatch"


def test_extra_same_family_record_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    passed, detail = verify_detector(inst, [inst.ground_truth, inst.ground_truth])
    assert not passed
    assert "expected one" in detail


def test_only_other_families_fails():
    inst = reverse_sample(Family.CARDINALITY, seed=2)
    stranger = reverse_sample(Family.STRETCH, seed=2).ground_truth
    passed, detail = verify_detector(inst, [stranger])
    assert not passed
    assert "no Cardinality record" in detail


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
    passed, detail = verify_propagation(model, record)
    assert passed
    assert "kept all 1 feasible assignments" in detail
    # the only feasible selection takes the cheap option in both groups:
    # in one node step the propagator fixes the other two options at 0 and
    # the group rows then fix the cheap ones at 1
    box = DomainBox.from_model(model)
    rows, outcome = propagate_node(model, [record], box)
    assert [c.which for c in outcome.bound_changes] == ["ub", "ub"]
    fixings = [c for c in rows.bound_changes if c.which == "lb"]
    assert len(fixings) == 2
    assert box.lower[0] == box.lower[2] == 1.0
    assert box.upper[1] == box.upper[3] == 0.0


def test_identity_propagator_passes(monkeypatch):
    model, record = onehot_example()

    def idle(model, record, box, config=None):
        return PropagationOutcome(calls=1)

    monkeypatch.setattr(verify_mod, "propagate_record", idle)
    passed, detail = verify_propagation(model, record)
    assert passed
    assert detail.startswith("0 bound changes")


def test_propagator_zeroing_feasible_option_fails(monkeypatch):
    model, record = onehot_example()

    def broken(model, record, box, config=None):
        out = PropagationOutcome(calls=1)
        set_upper(box, out, 0, 0.0)  # kills the only feasible selection
        return out

    monkeypatch.setattr(verify_mod, "propagate_record", broken)
    passed, detail = verify_propagation(model, record)
    assert not passed
    assert "excluded a feasible point" in detail


def test_false_cutoff_fails(monkeypatch):
    model, record = onehot_example()

    def cries_wolf(model, record, box, config=None):
        return PropagationOutcome(calls=1, cutoffs=1)

    monkeypatch.setattr(verify_mod, "propagate_record", cries_wolf)
    passed, detail = verify_propagation(model, record)
    assert not passed
    assert "cutoff despite 1 feasible assignments" in detail


def test_cutoff_on_empty_feasible_set_passes(monkeypatch):
    model, record = clash_model(Family.CARDINALITY, 5)

    def cuts(model, record, box, config=None):
        return PropagationOutcome(calls=1, cutoffs=1)

    monkeypatch.setattr(verify_mod, "propagate_record", cuts)
    passed, detail = verify_propagation(model, record)
    assert passed


def test_truncated_enumeration_is_inconclusive(monkeypatch):
    model, record = onehot_example()
    monkeypatch.setattr(verify_mod, "ENUMERATION_CAP", 1)
    passed, detail = verify_propagation(model, record)
    assert not passed
    assert "inconclusive" in detail


# ---------------------------------------------------------------------------
# gate ladder


def small_suites(monkeypatch, size):
    monkeypatch.setattr(verify_mod, "DETECTOR_SUITE_SIZE", size)
    monkeypatch.setattr(verify_mod, "SOUNDNESS_SUITE_SIZE", size)


def swap(monkeypatch, family, **pieces):
    """Replace ``family``'s registry entry by its spec with ``pieces`` replaced."""
    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family], **pieces))


def test_ladder_all_gates_pass(monkeypatch):
    small_suites(monkeypatch, 4)
    results = run_gate_ladder(Family.CARDINALITY, suite_seed=0)
    assert [r.gate for r in results] == list(GATES)
    assert all(r.passed for r in results)
    assert results[-1].detail == "all gates passed"


@pytest.mark.parametrize(
    "family", [Family.CARDINALITY, Family.CHANNEL], ids=lambda f: f.value
)
def test_ladder_enumerates_only_for_a_family_with_a_rule(monkeypatch, family):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_feasible(*args, **kwargs)

    small_suites(monkeypatch, 2)
    monkeypatch.setattr(verify_mod, "enumerate_feasible", counted)
    results = run_gate_ladder(family)
    soundness = next(r for r in results if r.gate == "propagator_soundness")
    assert soundness.passed and results[-1].passed
    if family is Family.CARDINALITY:
        assert soundness.detail == "detect-only: no rule"
        assert not calls
    else:
        assert soundness.detail == "2/2 sound against enumeration"
        assert calls


def test_ladder_fails_a_rule_less_record_that_changes_its_box(monkeypatch):
    def pins(model, record, box, config=None):
        box.upper[record.scope[0]] = box.lower[record.scope[0]]
        return PropagationOutcome()

    small_suites(monkeypatch, 1)
    monkeypatch.setattr(verify_mod, "propagate_record", pins)
    by_gate = {r.gate: r for r in run_gate_ladder(Family.CARDINALITY)}
    assert not by_gate["propagator_soundness"].passed
    assert by_gate["propagator_soundness"].detail == "detect-only record ran a rule"


def greedy(params, box, out):
    """A Channel rule that pins the link variable at its lowest value,
    feasible or not."""
    x = params.link_var
    return set_upper(box, out, x, box.lower[x])


def test_ladder_fails_a_rule_that_fixes_a_feasible_value_out(monkeypatch):
    small_suites(monkeypatch, 2)
    swap(monkeypatch, Family.CHANNEL, rule=greedy)
    results = run_gate_ladder(Family.CHANNEL, suite_seed=0)
    assert [(r.gate, r.passed) for r in results] == [
        ("artifact_completeness", True),
        ("load", True),
        ("detector_verification", True),
        ("propagator_soundness", False),
        ("benchmark_ready", False),
    ]
    assert results[3].detail == "seed 0: reduced box excluded a feasible point"


def finds_nothing(view, config):
    return []


def test_ladder_stubbed_detector_short_circuits(monkeypatch):
    small_suites(monkeypatch, 3)
    swap(monkeypatch, Family.CARDINALITY, detect=finds_nothing)
    results = run_gate_ladder(Family.CARDINALITY, suite_seed=0)
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


@pytest.mark.parametrize(
    "gate, calls_before", [("load", 0), ("detector_verification", 1), ("smoke", 2)]
)
def test_gates_that_detect_crash_on_a_raising_detector(monkeypatch, gate, calls_before):
    channel = FAMILIES[Family.CHANNEL]

    def raises(view, config):
        raise RuntimeError("planted fault")

    with pytest.raises(RuntimeError, match="planted fault"):
        dict(verify_mod._CHECKS)[gate](dataclasses.replace(channel, detect=raises), 0)

    # with one-seed suites the gates call the detector once each, in
    # order, so a detector that raises from call ``calls_before + 1`` on
    # first crashes ``gate``
    calls = []

    def raises_late(view, config):
        calls.append(view)
        if len(calls) > calls_before:
            raise RuntimeError("planted fault")
        return channel.detect(view, config)

    small_suites(monkeypatch, 1)
    swap(monkeypatch, Family.CHANNEL, detect=raises_late)
    results = run_gate_ladder(Family.CHANNEL)
    # no gate after the crashed one runs
    ran = GATES[: GATES.index(gate)]
    assert [(r.gate, r.passed) for r in results] == [(g, True) for g in ran] + [
        (gate, False),
        ("benchmark_ready", False),
    ]
    by_gate = {r.gate: r for r in results}
    assert by_gate[gate].detail == "crashed: RuntimeError('planted fault')"
    assert by_gate["benchmark_ready"].detail == f"blocked by {gate}"


def test_ladder_fails_the_gate_of_a_crashing_rule(monkeypatch, caplog):
    def raises(params, box, out):
        raise IndexError("planted fault")

    small_suites(monkeypatch, 2)
    swap(monkeypatch, Family.CHANNEL, rule=raises)
    results = run_gate_ladder(Family.CHANNEL)
    assert [(r.gate, r.passed) for r in results] == [
        ("artifact_completeness", True),
        ("load", True),
        ("detector_verification", True),
        ("propagator_soundness", False),
        ("benchmark_ready", False),
    ]
    assert results[3].detail == "crashed: IndexError('planted fault')"
    assert results[4].detail == "blocked by propagator_soundness"
    # the traceback goes to the log
    assert "Channel: propagator_soundness crashed" in caplog.text
    assert "IndexError: planted fault" in caplog.text


def test_ladder_fails_the_gate_of_a_crashing_planter(monkeypatch):
    def raises(family, seed=0):
        raise ValueError("planted fault")

    small_suites(monkeypatch, 2)
    monkeypatch.setattr(verify_mod, "reverse_sample", raises)
    results = run_gate_ladder(Family.CHANNEL)
    assert [r.gate for r in results] == [
        "artifact_completeness",
        "load",
        "detector_verification",
        "benchmark_ready",
    ]
    assert results[2].detail == "crashed: ValueError('planted fault')"
    assert results[3].detail == "blocked by detector_verification"


@pytest.mark.parametrize(
    "gate", ["load", "detector_verification", "propagator_soundness", "smoke"]
)
def test_ladder_smoke_timeout(monkeypatch, gate):
    monkeypatch.setitem(verify_mod.GATE_TIME_CAPS, gate, 0.0)
    small_suites(monkeypatch, 2)
    results = run_gate_ladder(Family.CARDINALITY)
    by_gate = {r.gate: r for r in results}
    assert not by_gate[gate].passed
    assert "timeout" in by_gate[gate].detail
    assert by_gate["benchmark_ready"].detail == f"blocked by {gate}"


def test_ladder_smoke_fails_on_a_root_cutoff(monkeypatch):
    # the smoke instance is planted feasible, so a root cutoff is unsound
    def cuts(model, records, box):
        return PropagationOutcome(), PropagationOutcome(cutoffs=1)

    small_suites(monkeypatch, 1)
    monkeypatch.setattr(verify_mod, "propagate_node", cuts)
    results = run_gate_ladder(Family.CHANNEL)
    by_gate = {r.gate: r for r in results}
    assert by_gate["load"].passed
    assert not by_gate["smoke"].passed
    assert "cutoff=True" in by_gate["smoke"].detail
    assert by_gate["benchmark_ready"].detail == "blocked by smoke"


def lacking(monkeypatch, family, **pieces):
    """Run the ladder of ``family``'s spec with ``pieces`` replaced."""
    swap(monkeypatch, family, **pieces)
    small_suites(monkeypatch, 1)
    return run_gate_ladder(family)


def test_ladder_missing_detector_fails_artifact_gate(monkeypatch):
    results = lacking(monkeypatch, Family.STRETCH, detect=None)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert not results[0].passed
    assert results[0].detail == "missing: detector"


def test_ladder_runs_the_rule_of_the_spec_it_reads(monkeypatch):
    results = lacking(monkeypatch, Family.CHANNEL, rule=greedy)
    by_gate = {r.gate: r for r in results}
    assert not by_gate["propagator_soundness"].passed


def test_ladder_runs_the_detector_of_the_spec_it_reads(monkeypatch):
    results = lacking(monkeypatch, Family.CHANNEL, detect=finds_nothing)
    by_gate = {r.gate: r for r in results}
    assert by_gate["load"].passed
    assert by_gate["detector_verification"].detail == "seed 0: no records"
    assert by_gate["benchmark_ready"].detail == "blocked by detector_verification"


@dataclasses.dataclass(frozen=True)
class _ListParams:
    vars: list  # the codec walks tuples only


def test_ladder_flags_params_the_codec_cannot_walk(monkeypatch):
    results = lacking(monkeypatch, Family.STRETCH, params=_ListParams)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert results[0].detail == "missing: serializer"


def test_ladder_flags_a_spec_without_params(monkeypatch):
    results = lacking(monkeypatch, Family.STRETCH, params=None)
    assert [r.gate for r in results] == ["artifact_completeness", "benchmark_ready"]
    assert results[0].detail == "missing: record schema"


def test_ladder_artifact_gate_reads_detect_only(monkeypatch):
    small_suites(monkeypatch, 1)
    results = run_gate_ladder(Family.CARDINALITY)
    assert results[0].passed
    assert results[0].detail == "detector, record schema, detect-only, serializer registered"
    assert results[-1].passed


def test_benchmark_ready_implies_all_prior(monkeypatch):
    small_suites(monkeypatch, 2)
    scenarios = [run_gate_ladder(Family.CHANNEL)]
    swap(monkeypatch, Family.CHANNEL, detect=finds_nothing)
    scenarios.append(run_gate_ladder(Family.CHANNEL))
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
