"""Detector tests: row views, exact recovery, arbitration, heuristic records."""

import hashlib
import json

import pytest

from structprop.detect import (
    ModelView,
    detect_all,
    detect_family,
    one_sided_facet,
)
from structprop.model import INF, DomainBox, Integrality, LinearRow, MipModel, Variable
from structprop.propagate import propagate_block_fixpoint, propagate_record
from structprop.records import (
    PRIORITY_ORDER,
    Confidence,
    Family,
    records_equal,
    records_to_json,
)
from structprop.synth import ObfuscationConfig, obfuscate, remap_record, reverse_sample
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
    scaled = view.units[0]
    assert scaled.support == (0, 1) and scaled.binary
    assert (scaled.lower, scaled.upper) == (1.0, 2.0)

    flipped = view.units[1]
    assert (flipped.lower, flipped.upper) == (-INF, 1.0)
    assert not flipped.is_equality


def test_units_hold_only_uniform_rows_and_flag_binary_support():
    model = make_model(
        [binary(0, "a"), binary(1, "b"),
         Variable(2, "n", 0.0, 3.0, Integrality.INTEGER)],
        [
            ([(0, 1.0), (2, 1.0)], 1.0, 2.0),  # uniform, but n is not binary
            ([(0, 1.0), (1, 2.0)], 1.0, 2.0),  # not uniform
            ([(0, 1.0), (1, 1.0), (2, 1.0)], 1.0, 1.0),  # exact-one, not binary
        ],
    )
    view = ModelView(model)
    assert sorted(view.units) == [0, 2]
    assert not view.units[0].binary and not view.units[2].binary
    assert view.exact_ones == [] and view.at_most_ones == []


def test_facets_flag_binary_support():
    model = make_model(
        [binary(0, "a"), binary(1, "b"),
         Variable(2, "n", 0.0, 3.0, Integrality.INTEGER)],
        [
            ([(0, 1.0), (1, 2.0)], -INF, 2.0),
            ([(0, 1.0), (2, 1.0)], 1.0, INF),  # n is not binary
        ],
    )
    view = ModelView(model)
    assert [(f.row, f.binary) for f in view.facets] == [(0, True), (1, False)]


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
    assert [u.row for u in view.exact_ones] == [0]
    assert [u.row for u in view.at_most_ones] == [1]


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

    up = one_sided_facet(upper, False)
    assert (up.vars, up.coeffs, up.bound, up.binary) == ((0,), (2.0,), 6.0, False)

    low = one_sided_facet(lower, True)
    assert (low.vars, low.coeffs, low.bound, low.binary) == ((0,), (-2.0,), -4.0, True)

    assert one_sided_facet(ranged, False) is None


def test_facets_share_row_tuples_and_negated_patterns():
    upper = LinearRow(0, "u", ((0, 2.0), (1, -1.0)), -INF, 6.0)
    lower = LinearRow(1, "l", ((2, 2.0), (3, -1.0)), 4.0, INF)
    other = LinearRow(2, "m", ((5, -1.0), (4, 2.0)), 1.0, INF)

    up = one_sided_facet(upper, False)
    assert up.vars is upper.vars and up.coeffs is upper.coeffs

    low, low_other = one_sided_facet(lower, False), one_sided_facet(other, False)
    assert low.vars is lower.vars and low_other.vars is other.vars
    assert low.coeffs == (-2.0, 1.0) and low.coeffs is low_other.coeffs
    assert low.vars == (2, 3)


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
    active = {row.id for row in ModelView(noisy.model).active_rows}
    assert len(noisy.noise_row_ids) == 12
    assert active.isdisjoint(noisy.noise_row_ids)
    assert set(noisy.ground_truth.evidence) <= active


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

    # arbitration gives every row to AllDifferent, so Cardinality builds
    # no record for them and nothing is dropped
    report = detect_all(inst.model)
    assert [r.family for r in report.records] == [Family.ALL_DIFFERENT]
    assert report.dropped == ()


def arbitrate_full_outputs(model):
    """detect_all's rule applied to every family's full detect_family output:
    in priority order, drop a record overlapping a row an exact record kept
    before it claimed."""
    kept, dropped, claimed = [], [], set()
    for family in PRIORITY_ORDER:
        for rec in sorted(detect_family(model, family), key=lambda r: sorted(r.evidence)):
            if claimed & set(rec.evidence):
                dropped.append(rec)
                continue
            kept.append(rec)
            if rec.confidence is Confidence.EXACT:
                claimed.update(rec.evidence)
    return kept, dropped


@pytest.mark.parametrize("obfuscated", [False, True], ids=["clean", "obfuscated"])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_skipping_claimed_counting_rows_keeps_the_arbitrated_records(
    family, seed, obfuscated
):
    inst = reverse_sample(family, seed=seed)
    if obfuscated:
        inst = obfuscate(
            inst, ObfuscationConfig(noise_rows=10, sign_flip_prob=0.3, seed=seed)
        )
    kept, dropped = arbitrate_full_outputs(inst.model)
    report = detect_all(inst.model)
    assert list(report.records) == kept
    # only the Cardinality records for claimed rows are no longer built
    assert list(report.dropped) == [r for r in dropped if r.family is not Family.CARDINALITY]


def test_cardinality_records_share_the_row_tuple():
    inst = reverse_sample(Family.CARDINALITY, seed=0)
    (record,) = detect_all(inst.model).records
    row = inst.model.rows[record.evidence[0]]
    assert record.scope is row.vars and record.params.vars is row.vars


def test_failing_detector_becomes_warning(monkeypatch):
    from structprop.detect import engine

    def boom(view, config):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(engine.DETECTORS, Family.STRETCH, boom)
    inst = reverse_sample(Family.STRETCH, seed=2)
    report = detect_all(inst.model)
    assert Family.STRETCH not in {r.family for r in report.records}
    assert any("Stretch detector failed" in w for w in report.warnings)


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
    assert full.dropped == ()


def test_heuristic_record_propagates_soundly_and_keeps_weightless_selector():
    model = bottleneck_model(PARTIAL_WEIGHTS)
    record = bottleneck_record(detect_all(model))
    assert verify_propagation(model, record).passed

    # the record is detect-only; the rows price x0 and x1 out under z <= 3,
    # and only the weightless x2 is left in its group
    box = DomainBox.from_model(model)
    assert propagate_record(model, record, box).calls == 0
    out = propagate_block_fixpoint(model.rows, box)
    assert not out.cutoff
    assert box.lower[2] == box.upper[2] == 1.0
    assert box.lower[3] == 1.0 and box.lower[6] == 2.0


# ---------------------------------------------------------------------------
# pinned detection output on larger and multi-block models


def records_digest(model, records) -> str:
    doc = records_to_json(list(records), model)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def disjoint_union(blocks):
    """One model holding every block, ids offset, names prefixed per block."""
    variables, rows, objective, truths = [], [], [], []
    for idx, block in enumerate(blocks):
        var_map = [len(variables) + v for v in range(len(block.model.variables))]
        row_map = [len(rows) + r for r in range(len(block.model.rows))]
        variables.extend(
            Variable(var_map[v.id], f"b{idx}_{v.name}", v.lower, v.upper, v.integrality)
            for v in block.model.variables
        )
        rows.extend(
            LinearRow(
                row_map[r.id],
                f"b{idx}_{r.name}",
                tuple((var_map[v], c) for v, c in r.terms),
                r.lhs,
                r.rhs,
            )
            for r in block.model.rows
        )
        objective.extend((var_map[v], c) for v, c in block.model.objective)
        truths.append(remap_record(block.ground_truth, var_map, row_map))
    return MipModel(variables, rows, objective), truths


# sha256 prefixes of the records JSON of detect_all, kept and dropped apart
MULTI_BLOCK_RECORDS_SHA256 = "d2b9864f1e9be772"
LARGE_ROSTERING_RECORDS_SHA256 = "1bd06e9f484bd8b3"
# both reports drop nothing: every overlap was a Cardinality row, now skipped
MULTI_BLOCK_DROPPED_SHA256 = "cd2e17941a770df4"
LARGE_ROSTERING_DROPPED_SHA256 = "cd2e17941a770df4"


def test_multi_block_detection_matches_pinned_output():
    blocks = [
        obfuscate(reverse_sample(family, seed=0), ObfuscationConfig(seed=0))
        for family in ALL_FAMILIES
    ]
    model, truths = disjoint_union(blocks)
    report = detect_all(model)
    assert records_digest(model, report.records) == MULTI_BLOCK_RECORDS_SHA256
    assert records_digest(model, report.dropped) == MULTI_BLOCK_DROPPED_SHA256
    assert report.warnings == ()
    assert report.family_counts == {
        "AllDifferent": 1, "BottleneckExactOne": 1, "Cardinality": 13, "Channel": 1,
        "Cumulative": 1, "DisjPolyhedral": 1, "NValue": 1, "OneHotResource": 1,
        "Stretch": 1,
    }
    # the whole-model block detectors see foreign rows and find nothing
    found = {t.family for t in truths if any(records_equal(r, t) for r in report.records)}
    assert found == set(ALL_FAMILIES) - {
        Family.ROSTERING_WINDOW, Family.UNIT_COMMITMENT_RAMP
    }


def test_large_rostering_detection_matches_pinned_output():
    sizes = {"nurses": 6, "days": 14, "shifts": 3, "allow_large": 1}
    inst = obfuscate(
        reverse_sample(Family.ROSTERING_WINDOW, sizes, seed=0), ObfuscationConfig(seed=0)
    )
    report = detect_all(inst.model)
    assert [r.family for r in report.records] == [Family.ROSTERING_WINDOW]
    assert records_equal(report.records[0], inst.ground_truth)
    assert records_digest(inst.model, report.records) == LARGE_ROSTERING_RECORDS_SHA256
    assert records_digest(inst.model, report.dropped) == LARGE_ROSTERING_DROPPED_SHA256
