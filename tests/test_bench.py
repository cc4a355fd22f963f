"""Bench tests: shifted geomeans, coverage tables, paired-run aggregation."""

import csv
import dataclasses
import functools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structprop.bench import (
    COVERAGE_COLUMNS,
    PERFORMANCE_COLUMNS,
    BenchRun,
    aggregate,
    run_benchmark,
    shifted_geometric_mean,
    write_report,
)
from structprop.detect import DetectionReport
from structprop.records import Family
from structprop.search import SearchConfig
from structprop.synth import reverse_sample, write_instance

# ---------------------------------------------------------------------------
# shifted geometric mean


def test_sgm_single_value_is_identity():
    for value, shift in [(7.0, 3.0), (0.0, 1.0), (123.4, 100.0)]:
        assert shifted_geometric_mean([value], shift) == pytest.approx(value)


def test_sgm_hand_example():
    assert shifted_geometric_mean([1, 9], 1.0) == pytest.approx(
        math.sqrt(20) - 1, abs=1e-12
    )


def test_sgm_all_zeros():
    # exp(log(100)) - 100 rounds to 4.26e-14; the mean stays in [min, max]
    assert shifted_geometric_mean([0, 0], 100.0) == 0.0
    assert shifted_geometric_mean([0.0, 0.0, 0.0], 100.0) == 0.0


@given(
    st.lists(st.floats(0, 1000), min_size=1, max_size=8),
    st.floats(0.1, 50),
    st.floats(0.1, 20),
)
def test_sgm_scale_compatibility(values, shift, k):
    scaled = shifted_geometric_mean([k * v for v in values], k * shift)
    assert scaled == pytest.approx(
        k * shifted_geometric_mean(values, shift), rel=1e-9, abs=1e-9
    )


def test_sgm_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        shifted_geometric_mean([], 1.0)
    with pytest.raises(ValueError, match="shift"):
        shifted_geometric_mean([1.0], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        shifted_geometric_mean([-1.0], 1.0)


# ---------------------------------------------------------------------------
# aggregation


def run(instance, label, status="optimal", wall=1.0, nodes=10, reductions=0):
    return BenchRun(
        instance=instance,
        seed=0,
        label=label,
        status=status,
        wall_time=wall,
        nodes=nodes,
        calls=3,
        domain_reductions=reductions,
        cutoffs=0,
        prop_time=0.001,
    )


@functools.cache
def planted(family: str):
    """A real record of ``family``: the one a seed-0 instance plants."""
    return reverse_sample(Family(family), seed=0).ground_truth


def detections_for(names, family="Cardinality"):
    return {name: DetectionReport(records=(planted(family),)) for name in names}


def test_runs_and_reports_are_slotted_and_still_copy():
    plugin = run("a", "plugin")
    report = detections_for(["a"])["a"]
    # a benchmark keeps one per search and per detection: no instance __dict__
    assert not hasattr(plugin, "__dict__") and not hasattr(report, "__dict__")
    assert dataclasses.asdict(dataclasses.replace(plugin, nodes=11))["nodes"] == 11
    assert report.family_counts == {"Cardinality": 1}
    doubled = dataclasses.replace(report, records=report.records * 2)
    assert doubled.family_counts == {"Cardinality": 2}


def test_equal_pair_gives_unit_speedups():
    runs = [run("a", "baseline"), run("a", "plugin")]
    report = aggregate(runs, detections_for(["a"]))
    perf = report.performance["Cardinality"]
    assert perf["T speedup"] == pytest.approx(1.0)
    assert perf["N speedup"] == pytest.approx(1.0)
    assert perf["#T_speedup"] == 0
    assert perf["#N_speedup"] == 0


def test_plugin_only_counts_two():
    # baseline times out on two instances the plugin cracks
    runs = []
    for name in ("i1", "i2"):
        runs.append(run(name, "baseline", status="limit"))
        runs.append(run(name, "plugin"))
    for name in ("i3", "i4"):
        runs.append(run(name, "baseline"))
        runs.append(run(name, "plugin"))
    report = aggregate(runs, detections_for(["i1", "i2", "i3", "i4"], "BottleneckExactOne"))
    cov = report.coverage["BottleneckExactOne"]
    assert cov == {
        "Detected": 4,
        "Baseline": 2,
        "Plugin": 4,
        "Common": 2,
        "Baseline only": 0,
        "Plugin only": 2,
    }


def test_empty_common_gives_absent_cells():
    runs = [run("a", "baseline", status="limit"), run("a", "plugin", status="limit")]
    report = aggregate(runs, detections_for(["a"]))
    assert report.performance["Cardinality"] == {c: None for c in PERFORMANCE_COLUMNS}


def test_all_zero_pairs_give_zero_means_and_no_speedups():
    runs = [run(n, label, wall=0.0, nodes=0) for n in "ab" for label in ("baseline", "plugin")]
    perf = aggregate(runs, detections_for(["a", "b"])).performance["Cardinality"]
    assert [perf[c] for c in ("T_base", "T_plug", "N_base", "N_plug")] == [0.0] * 4
    assert perf["T speedup"] is None and perf["N speedup"] is None
    assert perf["#T_speedup"] == perf["#N_speedup"] == 0


def test_coverage_partitions_detected_set():
    statuses = {
        "a": ("optimal", "optimal"),
        "b": ("optimal", "limit"),
        "c": ("limit", "optimal"),
        "d": ("limit", "limit"),
    }
    runs = []
    for name, (base, plug) in statuses.items():
        runs.append(run(name, "baseline", status=base))
        runs.append(run(name, "plugin", status=plug))
    cov = aggregate(runs, detections_for(statuses)).coverage["Cardinality"]
    assert cov["Common"] + cov["Baseline only"] == cov["Baseline"]
    assert cov["Common"] + cov["Plugin only"] == cov["Plugin"]
    neither = cov["Detected"] - cov["Common"] - cov["Baseline only"] - cov["Plugin only"]
    assert neither == 1  # instance d


def test_speedup_favors_plugin_when_plugin_faster():
    runs = [
        run("a", "baseline", wall=4.0, nodes=400),
        run("a", "plugin", wall=1.0, nodes=100),
    ]
    perf = aggregate(runs, detections_for(["a"])).performance["Cardinality"]
    assert perf["T speedup"] == pytest.approx(4.0)
    assert perf["#T_speedup"] == 1
    assert perf["#N_speedup"] == 1
    assert perf["N speedup"] > 1.0


def test_zero_reduction_runs_counted_not_averaged():
    runs = [
        run("a", "baseline"),
        run("a", "plugin", reductions=0),
        run("b", "baseline"),
        run("b", "plugin", reductions=5),
    ]
    diag = aggregate(runs, detections_for(["a", "b"])).diagnostics["Cardinality"]
    assert diag["Zero-reduction runs"] == 1
    assert diag["Domain red."] == pytest.approx(5.0)


def test_orphan_run_is_an_error():
    runs = [run("a", "baseline"), run("a", "plugin"), run("b", "baseline")]
    with pytest.raises(ValueError, match="unpaired runs.*b"):
        aggregate(runs, detections_for(["a", "b"]))


def test_duplicate_label_is_an_error():
    runs = [run("a", "baseline"), run("a", "baseline")]
    with pytest.raises(ValueError, match="duplicate baseline"):
        aggregate(runs, detections_for(["a"]))


# ---------------------------------------------------------------------------
# directory benchmark


def seed_directory(tmp_path, families, seeds=(0, 1)):
    for family in families:
        for seed in seeds:
            write_instance(reverse_sample(family, seed=seed), str(tmp_path))


def test_run_benchmark_end_to_end(tmp_path):
    seed_directory(tmp_path, [Family.CARDINALITY, Family.ONE_HOT_RESOURCE])
    report = run_benchmark(str(tmp_path))
    assert report.skipped == ()
    assert set(report.coverage) == {"Cardinality", "OneHotResource"}
    assert len(report.runs) == 8  # 4 instances, paired
    for fam in report.coverage.values():
        assert fam["Detected"] == 2
        assert fam["Common"] == 2


def test_run_benchmark_skips_unparseable(tmp_path):
    seed_directory(tmp_path, [Family.CARDINALITY], seeds=(0,))
    (tmp_path / "garbage.mps").write_text("this is not an mps file\n")
    report = run_benchmark(str(tmp_path))
    assert len(report.skipped) == 1
    assert "garbage.mps" in report.skipped[0]
    assert report.coverage["Cardinality"]["Detected"] == 1


@pytest.mark.parametrize(
    "sidecar, seed",
    [
        ('{"seed": 3}', 3),
        (None, 0),
        ("not json", 0),
        ("[3]", 0),
        ('{"seed": null}', 0),
        ('{"seed": "3"}', 0),
        ('{"seed": true}', 0),
    ],
    ids=["int", "missing", "invalid", "list", "null", "string", "bool"],
)
def test_sidecar_without_an_integer_seed_gives_seed_zero(tmp_path, sidecar, seed):
    seed_directory(tmp_path, [Family.CARDINALITY], seeds=(3,))
    (sidecar_path,) = tmp_path.glob("*.json")
    if sidecar is None:
        sidecar_path.unlink()
    else:
        sidecar_path.write_text(sidecar)
    report = run_benchmark(str(tmp_path))
    assert report.skipped == ()
    assert [r.seed for r in report.runs] == [seed, seed]


def test_run_benchmark_family_filter(tmp_path):
    seed_directory(tmp_path, [Family.CARDINALITY, Family.STRETCH], seeds=(0,))
    report = run_benchmark(str(tmp_path), families=[Family.STRETCH])
    assert set(report.coverage) == {"Stretch"}


def test_repeated_runs_change_only_wall_times(tmp_path):
    seed_directory(tmp_path, [Family.CARDINALITY, Family.NVALUE, Family.STRETCH])
    first = run_benchmark(str(tmp_path))
    again = run_benchmark(str(tmp_path))

    time_fields = {"wall_time", "cpu_time", "prop_time"}

    def digest(report):
        return {
            (r.instance, r.label): {
                key: value for key, value in dataclasses.asdict(r).items()
                if key not in time_fields
            }
            for r in report.runs
        }

    assert digest(first) == digest(again)
    assert all(r.cpu_time > 0.0 for r in first.runs + again.runs)
    assert first.coverage == again.coverage


def test_degenerate_time_limit_yields_no_common(tmp_path):
    seed_directory(tmp_path, [Family.ROSTERING_WINDOW], seeds=(0,))
    squeeze = SearchConfig(time_limit=1e-9)
    report = run_benchmark(str(tmp_path), config=squeeze)
    assert all(r.status == "limit" for r in report.runs)
    assert report.coverage["RosteringWindow"]["Common"] == 0
    assert report.performance["RosteringWindow"]["T_base"] is None


def test_write_report_files(tmp_path):
    runs = [
        run("a", "baseline"),
        run("a", "plugin"),
        run("b", "baseline", status="limit"),
        run("b", "plugin", status="limit"),
    ]
    detections = {
        "a": DetectionReport(records=(planted("Cardinality"),)),
        "b": DetectionReport(records=(planted("Stretch"),) * 2),
    }
    report = aggregate(runs, detections)
    paths = write_report(report, str(tmp_path))
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == [
        "bench.json",
        "bench_coverage.csv",
        "bench_diagnostics.csv",
        "bench_performance.csv",
    ]
    with open(tmp_path / "bench_coverage.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["Family"] + list(COVERAGE_COLUMNS)
    assert rows[1][0] == "Cardinality"
    with open(tmp_path / "bench_performance.csv") as handle:
        rows = list(csv.reader(handle))
    stretch = next(r for r in rows if r[0] == "Stretch")
    assert set(stretch[1:]) == {"--"}
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert set(doc) == {"schema", "coverage", "performance", "diagnostics", "runs", "skipped"}
    assert len(doc["runs"]) == 4
    assert all(r["cpu_time"] == 0.0 and r["wall_time"] == 1.0 for r in doc["runs"])
