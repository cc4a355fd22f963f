"""Detector tests: row views, exact recovery, arbitration, heuristic records."""

import pytest

from structprop.detect import (
    DetectConfig,
    ModelView,
    detect_all,
    detect_family,
    one_sided_facet,
)
from structprop.model import INF, DomainBox, Integrality, LinearRow, MipModel, Variable
from structprop.propagate import propagate_record
from structprop.records import Confidence, Family, records_equal
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample
from structprop.verify import verify_propagation

ALL_FAMILIES = list(Family)
RECOVERY_SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def binary(vid, name):
    return Variable(vid, name, 0.0, 1.0, Integrality.BINARY)


def make_model(variables, row_specs):
    rows = [
        LinearRow(rid, f"r{rid}", tuple(terms), lhs, rhs)
        for rid, (terms, lhs, rhs) in enumerate(row_specs)
    ]
    return MipModel(variables, rows)


# ---------------------------------------------------------------------------
# row views


def test_vacuous_rows_are_filtered():
    model = make_model(
        [binary(0, "a"), binary(1, "b")],
        [
            ([(0, 1.0), (1, 1.0)], -INF, 5.0),  # max activity 2, never binds
            ([(0, 1.0), (1, 1.0)], -INF, 1.0),
        ],
    )
    view = ModelView(model)
    assert view.vacuous == {0}
    assert [r.id for r in view.active_rows] == [1]


def test_unit_view_rescales_and_swaps_bounds():
    model = make_model(
        [binary(0, "a"), binary(1, "b")],
        [
            ([(0, 2.0), (1, 2.0)], 2.0, 4.0),
            ([(0, -3.0), (1, -3.0)], -3.0, INF),
        ],
    )
    view = ModelView(model)
    scaled = view.unit_view(model.rows[0])
    assert scaled.support == (0, 1)
    assert (scaled.lower, scaled.upper) == (1.0, 2.0)

    flipped = view.unit_view(model.rows[1])
    assert (flipped.lower, flipped.upper) == (-INF, 1.0)
    assert not flipped.is_equality


def test_exact_one_and_at_most_one_helpers():
    model = make_model(
        [binary(0, "a"), binary(1, "b"), binary(2, "c")],
        [
            ([(0, 1.0), (1, 1.0), (2, 1.0)], 1.0, 1.0),
            ([(0, -2.0), (1, -2.0)], -2.0, INF),  # a + b <= 1 in disguise
            ([(0, 1.0), (1, 1.0)], 0.0, 2.0),  # two-sided, not a packing row
        ],
    )
    view = ModelView(model)
    assert [u.row for u in view.exact_one_rows()] == [0]
    assert [u.row for u in view.at_most_one_facets()] == [1]


def test_implications_read_two_binary_facets_as_x_le_y():
    model = make_model(
        [binary(0, "a"), binary(1, "b"), binary(2, "c"),
         Variable(3, "z", 0.0, 1.0, Integrality.CONTINUOUS)],
        [
            ([(0, 2.0), (1, -2.0)], -INF, 0.0),  # a <= b
            ([(1, 3.0), (2, -3.0)], 0.0, INF),  # c <= b, sign inverted
            ([(0, 1.0), (2, -2.0)], -INF, 0.0),  # unequal weights
            ([(0, 1.0), (3, -1.0)], -INF, 0.0),  # z is not binary
        ],
    )
    assert ModelView(model).implications == {0: [(1, 0)], 2: [(1, 1)]}


def test_one_sided_facet_orientation():
    upper = LinearRow(0, "u", ((0, 2.0),), -INF, 6.0)
    lower = LinearRow(1, "l", ((0, 2.0),), 4.0, INF)
    ranged = LinearRow(2, "r", ((0, 2.0),), 0.0, 6.0)

    up = one_sided_facet(upper)
    assert up.terms == ((0, 2.0),) and up.bound == 6.0

    low = one_sided_facet(lower)
    assert low.terms == ((0, -2.0),) and low.bound == -4.0

    assert one_sided_facet(ranged) is None


def test_facets_share_row_tuples_and_negated_patterns():
    upper = LinearRow(0, "u", ((0, 2.0), (1, -1.0)), -INF, 6.0)
    lower = LinearRow(1, "l", ((2, 2.0), (3, -1.0)), 4.0, INF)
    other = LinearRow(2, "m", ((5, -1.0), (4, 2.0)), 1.0, INF)

    up = one_sided_facet(upper)
    assert up.vars is upper.vars and up.coeffs is upper.coeffs

    low, low_other = one_sided_facet(lower), one_sided_facet(other)
    assert low.vars is lower.vars and low_other.vars is other.vars
    assert low.coeffs == (-2.0, 1.0) and low.coeffs is low_other.coeffs
    assert low.terms == ((2, -2.0), (3, 1.0)) and low.support() == (2, 3)


# ---------------------------------------------------------------------------
# exact recovery on planted instances


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_recovers_planted_record_clean(family, seed):
    inst = reverse_sample(family, seed=seed)
    report = detect_all(inst.model)
    assert len(report.records) == 1
    assert records_equal(report.records[0], inst.ground_truth)
    assert report.records[0].confidence is Confidence.EXACT
    assert not report.warnings


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_recovers_planted_record_obfuscated(family, seed):
    inst = reverse_sample(family, seed=seed)
    noisy = obfuscate(
        inst, ObfuscationConfig(noise_rows=10, sign_flip_prob=0.3, seed=seed)
    )
    report = detect_all(noisy.model)
    assert len(report.records) == 1
    assert records_equal(report.records[0], noisy.ground_truth)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_noise_rows_never_reach_detectors(family):
    inst = reverse_sample(family, seed=13)
    noisy = obfuscate(inst, ObfuscationConfig(noise_rows=12, seed=13))
    view = ModelView(noisy.model)
    assert len(view.vacuous) >= 12
    assert view.vacuous.isdisjoint(noisy.ground_truth.evidence)


def test_family_counts_summarize_report():
    inst = reverse_sample(Family.CUMULATIVE, seed=3)
    report = detect_all(inst.model)
    assert report.family_counts == {Family.CUMULATIVE.value: 1}


# ---------------------------------------------------------------------------
# arbitration across detectors


def test_priority_drops_row_level_reinterpretations():
    inst = reverse_sample(Family.ALL_DIFFERENT, {"n": 3}, seed=7)

    # every structural row also reads as a bare counting constraint
    counting = detect_family(inst.model, Family.CARDINALITY)
    assert len(counting) == len(inst.model.rows)

    report = detect_all(inst.model)
    assert [r.family for r in report.records] == [Family.ALL_DIFFERENT]
    assert len(report.dropped) == len(inst.model.rows)
    assert {r.family for r in report.dropped} == {Family.CARDINALITY}


def test_failing_detector_becomes_warning(monkeypatch):
    from structprop.detect import engine

    def boom(view, config):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(engine.DETECTORS, Family.STRETCH, boom)
    inst = reverse_sample(Family.STRETCH, seed=2)
    report = detect_all(inst.model)
    assert Family.STRETCH not in {r.family for r in report.records}
    assert any("Stretch detector failed" in w for w in report.warnings)


def test_row_scan_cap_reports_truncation():
    inst = reverse_sample(Family.CARDINALITY, seed=0)
    config = DetectConfig(row_scan_cap=0)
    report = detect_all(inst.model, config)
    assert report.truncated
    assert any("capped" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# heuristic bottleneck records (incomplete link coverage)


def bottleneck_model(weights):
    """Two exact-one groups {x0,x1,x2} and {x3,x4,x5} under z in [0, 3].

    ``weights`` maps a selector to the weight of its link row ``w*x - z <= 0``;
    a selector left out has no link row.
    """
    variables = [binary(v, f"x{v}") for v in range(6)]
    variables.append(Variable(6, "z", 0.0, 3.0, Integrality.CONTINUOUS))
    specs = [
        ([(0, 1.0), (1, 1.0), (2, 1.0)], 1.0, 1.0),
        ([(3, 1.0), (4, 1.0), (5, 1.0)], 1.0, 1.0),
    ]
    for x, w in sorted(weights.items()):
        specs.append(([(x, w), (6, -1.0)], -INF, 0.0))
    return make_model(variables, specs)


PARTIAL_WEIGHTS = {0: 5.0, 1: 7.0, 3: 2.0, 4: 4.0, 5: 6.0}  # x2 has no link


def bottleneck_record(report):
    (record,) = [r for r in report.records if r.family is Family.BOTTLENECK_EXACT_ONE]
    return record


def test_partial_link_coverage_gives_heuristic_record():
    record = bottleneck_record(detect_all(bottleneck_model(PARTIAL_WEIGHTS)))
    assert record.confidence is Confidence.HEURISTIC
    assert record.params.link_coverage == pytest.approx(5 / 6)
    assert (2, None) in record.params.groups[0]


def test_link_coverage_below_the_minimum_gives_no_record():
    # 4 of 6 selectors carry a link row: coverage 0.67 is below 0.8
    weights = {0: 5.0, 1: 7.0, 3: 2.0, 4: 4.0}
    report = detect_all(bottleneck_model(weights))
    assert not [r for r in report.records if r.family is Family.BOTTLENECK_EXACT_ONE]


def test_heuristic_record_leaves_its_rows_to_lower_priority_families():
    partial = detect_all(bottleneck_model(PARTIAL_WEIGHTS))
    counting = [r for r in partial.records if r.family is Family.CARDINALITY]
    assert sorted(r.evidence for r in counting) == [(0,), (1,)]
    assert not partial.dropped

    # with the missing link row the record is exact and claims the group rows
    full = detect_all(bottleneck_model({**PARTIAL_WEIGHTS, 2: 3.0}))
    assert bottleneck_record(full).confidence is Confidence.EXACT
    assert [r.family for r in full.records] == [Family.BOTTLENECK_EXACT_ONE]
    assert sorted(r.evidence for r in full.dropped) == [(0,), (1,)]


def test_heuristic_record_propagates_soundly_and_keeps_weightless_selector():
    model = bottleneck_model(PARTIAL_WEIGHTS)
    record = bottleneck_record(detect_all(model))
    assert verify_propagation(model, record).passed

    # z <= 3 prices out x0 and x1; only the weightless x2 is left in its group
    box = DomainBox.from_model(model)
    out = propagate_record(model, record, box)
    assert not out.cutoff
    assert box.lower[2] == box.upper[2] == 1.0
    assert box.lower[3] == 1.0 and box.lower[6] == 2.0
