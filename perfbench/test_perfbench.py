"""Self-tests of the benchmark: metric names, BENCHMARK.json, spans, runs.

Run from the repository root::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from structprop.mps import parse_mps  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNIT_RE = metrics.re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in metrics.METRICS]
    assert len(names) == len(set(names))
    for m in metrics.METRICS:
        assert metrics.NAME_RE.fullmatch(m.name) and len(m.name) <= 64, m.name
        assert UNIT_RE.fullmatch(m.unit), m.unit
        assert m.kind in ("e2e", "layer") and m.better in ("higher", "lower", "none")
        assert set(m.workloads) <= set(workloads.WORKLOADS)
        if m.gated:
            assert set(m.workloads) == set(workloads.WORKLOADS), m.name
            assert m.better in ("higher", "lower"), m.name
    for m in metrics.gated("e2e"):
        assert m.bound is not None and 0 < m.bound <= 0.25


def test_benchmark_json_matches_the_metric_table():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    e2e = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.gated("e2e")
    ]
    layer = [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.gated("layer")
    ]
    assert BENCHMARK["end_to_end"] == e2e
    assert BENCHMARK["per_layer"] == layer
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.begin("outer")
    for _ in range(2):
        tracer.begin("inner")
        sum(range(10_000))
        tracer.end()
    tracer.end()
    outer = tracer.spans[("op", "outer")]
    inner = tracer.spans[("outer", "inner")]
    assert inner.count == 2 and inner.total <= outer.total
    assert outer.self_time == pytest.approx(outer.total - inner.total)
    assert tracer.nest_violations == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail([float(i) for i in range(20)]) == (9.0, 50.0)
    assert metrics.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
    assert metrics.loglog_slope([(10, 2.0), (100, 200.0)]) == pytest.approx(2.0)


def test_corpus_is_byte_identical_per_seed_and_parses_in_order():
    def build(seed):
        blocks = corpus.single_block_corpus(seed, (2,), 1, objective=True)
        return [corpus.to_item(b) for b in blocks]

    first, again, other = build(5), build(5), build(6)
    assert [i.mps for i in first] == [i.mps for i in again]
    assert [i.mps for i in first] != [i.mps for i in other]
    for item in first:
        model = parse_mps(item.mps)
        assert len(model.rows) == item.rows
        assert len(model.variables) == len(item.witness)


def test_merged_models_keep_every_family_and_remap_ground_truth():
    (block,) = corpus.merged_corpus(3, ((2, 1),))
    families = sorted(r.family.value for r in block.planted)
    assert families == sorted(f.value for f in corpus.FAMILIES for _ in range(2))
    for record in block.planted:
        assert all(0 <= v < len(block.model.variables) for v in record.scope)
        assert all(0 <= r < len(block.model.rows) for r in record.evidence)
    assert all(0 <= v < len(block.model.variables) for v in block.witness)


@pytest.fixture
def small_corpora(monkeypatch):
    monkeypatch.setattr(workloads, "SOLVE_FACTORS", (2,))
    monkeypatch.setattr(workloads, "SOLVE_REPLICAS", 1)
    monkeypatch.setattr(workloads, "SOLVE_NODE_LIMIT", 30)
    monkeypatch.setattr(workloads, "MERGED_SIZES", ((1, 1), (2, 1)))
    monkeypatch.setattr(workloads, "FEAS_REPLICAS", 1)
    monkeypatch.setattr(workloads, "FEAS_NODE_LIMIT", 30)
    monkeypatch.setattr(workloads, "ENUM_CAP", 100)
    monkeypatch.setattr(workloads, "SETUP_MIN_S", 0.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_runs_emit_every_applicable_metric_and_pass_checks(name, small_corpora):
    workload = workloads.WORKLOADS[name]
    plain = workloads.run_workload(workload, 1, 0.01, trace=False)
    traced = workloads.run_workload(workload, 1, 0.01, trace=True)
    for log in (plain, traced):
        workloads.check_repeats(log)
        assert workloads.failures(log) == []
        assert log.setup.identical
    e2e = workloads.end_to_end(plain, 1.0)
    layer = workloads.per_layer(traced)
    for metric in metrics.applicable("e2e", name):
        assert metric.name in e2e, metric.name
    for metric in metrics.applicable("layer", name):
        assert metric.name in layer, metric.name
    assert traced.tracer.nest_violations == 0
    for value in list(e2e.values()) + list(layer.values()):
        assert isinstance(value, (int, float)) and value == value
    # the counts of the untraced and traced passes repeat exactly
    by_name = {op.item.name: op.counts for op in plain.passes[0].ops}
    for op in traced.traced[0].ops:
        assert op.counts == by_name[op.item.name]


def test_child_spans_never_exceed_their_parents(small_corpora):
    log = workloads.run_workload(workloads.WORKLOADS["solve-planted"], 2, 0.01, trace=True)
    tracer = log.tracer
    assert tracer.nest_violations == 0
    for (parent, _), stats in tracer.spans.items():
        if parent != "op":
            assert stats.total <= tracer.total(parent) + 1e-9
