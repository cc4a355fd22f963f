"""Acceptance gate: one test per headline guarantee.

Each test here is a self-contained pass/fail line for one promised behavior
of the package: exact structure recovery under obfuscation, propagation
soundness against exhaustive enumeration, exact reproduction of the two
worked tightening examples, detection invariance under renaming, search
agreement with the enumeration oracle under both propagation policies,
benchmark metric arithmetic and table shapes, the verification gate ladder,
and MPS round-tripping over the synthetic suite.
"""

import csv
import dataclasses
import math
import statistics
import time

from clash import clash_model

from structprop.bench import (
    BenchRun,
    COVERAGE_COLUMNS,
    DIAGNOSTIC_COLUMNS,
    PERFORMANCE_COLUMNS,
    aggregate,
    shifted_geometric_mean,
    write_report,
)
from structprop.detect import DetectionReport, detect_all
from structprop.families import FAMILIES
from structprop.families.disj_polyhedral import BranchSpec, DisjPolyhedralParams, StrippedRow
from structprop.families.one_hot_resource import OneHotResourceParams
from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    Variable,
    is_valid_reduction,
    models_equal,
)
from structprop.mps import parse_mps, write_mps
from structprop.propagate import PropagatorConfig, propagate_record
from structprop.records import Family, SemanticRecord
from structprop.search import SearchConfig, dfs_solve, propagate_node
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample
from structprop.verify import (
    GATES,
    enumerate_feasible,
    ladder_to_json,
    run_gate_ladder,
    verify_detector,
    verify_propagation,
)

RECOVERY_SUITE = 50
RECOVERY_BUDGET_S = 60.0
SOUNDNESS_SUITE = 100
SOUNDNESS_BUDGET_S = 180.0
INVARIANCE_SUITE = 20


def binary(vid, name):
    return Variable(vid, name, 0.0, 1.0, Integrality.BINARY)


def test_detectors_exactly_recover_planted_structure():
    started = time.perf_counter()
    failures = []
    for family in Family:
        for i in range(RECOVERY_SUITE):
            clean = reverse_sample(family, seed=i)
            noisy = obfuscate(clean, ObfuscationConfig(seed=i))
            detected = list(detect_all(noisy.model).records)
            passed, detail = verify_detector(noisy, detected)
            if not passed:
                failures.append(f"{family.value}[{i}]: {detail}")
    elapsed = time.perf_counter() - started
    assert failures == []
    assert elapsed < RECOVERY_BUDGET_S, f"recovery suite took {elapsed:.1f}s"


def test_propagators_never_exclude_a_feasible_point():
    started = time.perf_counter()
    failures = []
    for family in Family:
        for i in range(SOUNDNESS_SUITE):
            instance = reverse_sample(family, seed=i)
            passed, detail = verify_propagation(instance.model, instance.ground_truth)
            if not passed:
                failures.append(f"{family.value}[{i}]: {detail}")
    elapsed = time.perf_counter() - started
    assert failures == []
    assert elapsed < SOUNDNESS_BUDGET_S, f"soundness suite took {elapsed:.1f}s"


def test_worked_tightening_examples_reproduce_exactly():
    config = PropagatorConfig()

    # selection costs {3, 5} and {4, 7} against a shared budget of 8:
    # the record kills both expensive options and the group rows fix both
    # survivors, in one node step
    onehot_model = MipModel(
        tuple(binary(i, f"y{i}") for i in range(4)),
        (
            LinearRow(0, "grp1", ((0, 1.0), (1, 1.0)), 1.0, 1.0),
            LinearRow(1, "grp2", ((2, 1.0), (3, 1.0)), 1.0, 1.0),
            LinearRow(2, "budget", ((0, 3.0), (1, 5.0), (2, 4.0), (3, 7.0)), -INF, 8.0),
        ),
    )
    onehot_record = SemanticRecord(
        Family.ONE_HOT_RESOURCE,
        (0, 1, 2, 3),
        OneHotResourceParams(
            groups=(((0, 3.0), (1, 5.0)), ((2, 4.0), (3, 7.0))),
            budget=8.0,
            external_min=0.0,
        ),
        (0, 1, 2),
    )
    enum = enumerate_feasible(onehot_model, (0, 1, 2, 3))
    assert not enum.truncated
    assert enum.feasible_points == {(1, 0, 1, 0)}
    box = DomainBox.from_model(onehot_model)
    original = box.copy()
    rows, out = propagate_node(onehot_model, [onehot_record], box)
    assert not rows.cutoff and not out.cutoff
    assert box.lower == [1.0, 0.0, 1.0, 0.0]
    assert box.upper == [1.0, 0.0, 1.0, 0.0]
    assert is_valid_reduction(original, box, enum.mappings())

    # an either-or with big-M rows: branch y=0 allows x <= 2, branch y=1
    # pins x to [5, 7]; the envelope cap is 7, and capping x at 4 kills
    # the second branch, fixing y=0 and restoring x <= 2
    def disj_model(x_upper):
        return MipModel(
            (
                Variable(0, "x", 0.0, x_upper, Integrality.INTEGER),
                binary(1, "y"),
            ),
            (
                LinearRow(0, "bm1", ((0, 1.0), (1, -8.0)), -INF, 2.0),
                LinearRow(1, "bm2", ((0, 1.0), (1, -5.0)), 0.0, INF),
                LinearRow(2, "bm3", ((0, 1.0), (1, 3.0)), -INF, 10.0),
            ),
        )

    disj_record = SemanticRecord(
        Family.DISJ_POLYHEDRAL,
        (0, 1),
        DisjPolyhedralParams(
            branches=(
                BranchSpec(1, 0, (StrippedRow(((0, 1.0),), 2.0),)),
                BranchSpec(
                    1,
                    1,
                    (StrippedRow(((0, -1.0),), -5.0), StrippedRow(((0, 1.0),), 7.0)),
                ),
            ),
            selector_row=None,
        ),
        (0, 1, 2),
    )
    wide = disj_model(10.0)
    enum = enumerate_feasible(wide, (0, 1))
    assert enum.feasible_points == {
        (0, 0), (1, 0), (2, 0), (5, 1), (6, 1), (7, 1),
    }
    box = DomainBox.from_model(wide)
    original = box.copy()
    out = propagate_record(wide, disj_record, box, config)
    assert not out.cutoff
    assert box.upper[0] == 7.0
    assert box.upper[1] == 1.0  # selector stays free
    assert is_valid_reduction(original, box, enum.mappings())

    narrow = disj_model(4.0)
    enum = enumerate_feasible(narrow, (0, 1))
    assert enum.feasible_points == {(0, 0), (1, 0), (2, 0)}
    box = DomainBox.from_model(narrow)
    original = box.copy()
    out = propagate_record(narrow, disj_record, box, config)
    assert not out.cutoff
    assert box.upper[1] == 0.0
    assert box.upper[0] == 2.0
    assert is_valid_reduction(original, box, enum.mappings())


def test_detection_invariant_under_renaming_and_sign_inversion():
    failures = []
    for family in Family:
        for i in range(INVARIANCE_SUITE):
            clean = reverse_sample(family, seed=i)
            renamed = obfuscate(clean, ObfuscationConfig(seed=i))
            clean_records = detect_all(clean.model).records
            renamed_records = detect_all(renamed.model).records
            passed, detail = verify_detector(renamed, list(renamed_records))
            if not passed:
                failures.append(f"{family.value}[{i}]: {detail}")
                continue
            before = sorted(r.family.value for r in clean_records)
            after = sorted(r.family.value for r in renamed_records)
            if before != after:
                failures.append(f"{family.value}[{i}]: {before} became {after}")
    assert failures == []


def test_search_matches_oracle_under_both_propagation_policies():
    suite = []
    for family in Family:
        suite.extend((family, seed, False) for seed in (0, 1, 2))
        suite.append((family, 0, True))
    suite.extend((Family.DISJ_POLYHEDRAL, seed, False) for seed in range(3, 9))
    assert len(suite) == 50

    disj_nodes = {"plugin": [], "baseline": []}
    failures = []
    for family, seed, infeasible in suite:
        if infeasible:
            model, _ = clash_model(family, seed)
        else:
            model = reverse_sample(family, seed=seed).model
        records = list(detect_all(model).records)
        ints = [v.id for v in model.variables if v.is_integer]
        enum = enumerate_feasible(model, ints)
        assert not enum.truncated
        coeff = dict(model.objective)
        if enum.feasible_points:
            best = min(
                sum(coeff.get(v, 0.0) * x for v, x in zip(enum.scope_vars, point))
                for point in enum.feasible_points
            )
            expected = ("optimal", best)
        else:
            expected = ("infeasible", None)

        for policy, searched in (("plugin", records), ("baseline", [])):
            incumbent, stats = dfs_solve(model, searched, SearchConfig())
            value = (
                None
                if incumbent is None
                else sum(c * incumbent[v] for v, c in model.objective)
            )
            ok = stats.status == expected[0] and (
                expected[1] is None
                if value is None
                else value is not None and abs(value - expected[1]) <= 1e-9
            )
            if not ok:
                failures.append(
                    f"{family.value}[{seed}] {policy}: {stats.status}/{value}"
                    f" wanted {expected}"
                )
            if family is Family.DISJ_POLYHEDRAL and not infeasible:
                disj_nodes[policy].append(stats.nodes)

    assert failures == []
    assert statistics.fmean(disj_nodes["plugin"]) <= statistics.fmean(
        disj_nodes["baseline"]
    )


def test_metric_arithmetic_and_report_table_shapes(tmp_path):
    assert math.isclose(
        shifted_geometric_mean([1, 9], 1.0), math.sqrt(20) - 1, rel_tol=1e-12
    )

    def run(instance, label, status):
        return BenchRun(
            instance=instance,
            seed=0,
            label=label,
            status=status,
            wall_time=1.0,
            nodes=10,
            calls=2,
            domain_reductions=0,
            cutoffs=0,
            prop_time=0.001,
        )

    # the baseline times out on two instances the plugin solves, and a
    # second family has no commonly solved instances at all
    runs = []
    for name, base_status in [
        ("b1", "optimal"), ("b2", "optimal"), ("b3", "limit"), ("b4", "limit"),
    ]:
        runs.append(run(name, "baseline", base_status))
        runs.append(run(name, "plugin", "optimal"))
    runs.append(run("s1", "baseline", "limit"))
    runs.append(run("s1", "plugin", "limit"))
    bottleneck = reverse_sample(Family.BOTTLENECK_EXACT_ONE, seed=0).ground_truth
    stretch = reverse_sample(Family.STRETCH, seed=0).ground_truth
    detections = {
        name: DetectionReport(records=(bottleneck,)) for name in ("b1", "b2", "b3", "b4")
    }
    detections["s1"] = DetectionReport(records=(stretch,))

    report = aggregate(runs, detections)
    assert report.coverage["BottleneckExactOne"] == {
        "Detected": 4,
        "Baseline": 2,
        "Plugin": 4,
        "Common": 2,
        "Baseline only": 0,
        "Plugin only": 2,
    }
    assert report.performance["Stretch"] == {c: None for c in PERFORMANCE_COLUMNS}

    write_report(report, str(tmp_path))
    with open(tmp_path / "bench_coverage.csv") as handle:
        header = next(csv.reader(handle))
    assert header == ["Family"] + list(COVERAGE_COLUMNS)
    with open(tmp_path / "bench_performance.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["Family"] + list(PERFORMANCE_COLUMNS)
    stretch_row = next(r for r in rows if r[0] == "Stretch")
    assert set(stretch_row[1:]) == {"--"}
    with open(tmp_path / "bench_diagnostics.csv") as handle:
        header = next(csv.reader(handle))
    assert header == ["Family"] + list(DIAGNOSTIC_COLUMNS)


def test_gate_ladder_passes_and_catches_a_stubbed_detector(monkeypatch):
    trio = (Family.CARDINALITY, Family.CHANNEL, Family.CUMULATIVE)

    ready = 0
    for family in trio:
        results = run_gate_ladder(family)
        doc = ladder_to_json(family, results)
        assert [g["gate"] for g in doc["gates"]] == list(GATES)
        assert all(g["passed"] for g in doc["gates"])
        ready += doc["benchmark_ready"]
    assert ready == 3

    recovered = 0
    for family in trio:
        stubbed = dataclasses.replace(FAMILIES[family], detect=lambda view, config: [])
        monkeypatch.setitem(FAMILIES, family, stubbed)
        results = run_gate_ladder(family)
        by_gate = {r.gate: r for r in results}
        assert not by_gate["benchmark_ready"].passed
        gate = by_gate["detector_verification"]
        recovered += gate.passed
        assert "no records" in gate.detail
    assert recovered == 0


def test_mps_round_trip_over_synthetic_suite():
    models = []
    for family in Family:
        for seed in range(10):
            models.append(reverse_sample(family, seed=seed).model)
        for seed in range(9):
            instance = reverse_sample(family, seed=seed)
            models.append(obfuscate(instance, ObfuscationConfig(seed=seed)).model)
    assert len(models) >= 200
    for model in models:
        assert models_equal(model, parse_mps(write_mps(model)))
