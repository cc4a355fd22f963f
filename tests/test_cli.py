"""CLI tests: subcommand wiring, exit codes, JSON payloads."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bottleneck import PARTIAL_WEIGHTS, bottleneck_model
from clash import clash_model

import structprop.cli as cli_mod
from structprop.cli import main
from structprop.detect import DETECTORS
from structprop.families import FAMILIES
from structprop.families.cardinality import CardinalityParams
from structprop.model import Integrality, LinearRow, MipModel, Variable
from structprop.mps import write_mps
from structprop.records import Family, SemanticRecord, records_to_json
from structprop.search import SearchConfig
from structprop.verify import GateResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_file(tmp_path, family="channel", seed=2, extra=()):
    code = main(
        ["synth", "--family", family, "--seed", str(seed), "--out", str(tmp_path), "--quiet"]
        + list(extra)
    )
    assert code == 0
    return str(next(tmp_path.glob(f"{family.lower()}*.mps")))


# ---------------------------------------------------------------------------
# detect


def test_synth_then_detect_recovers_family(tmp_path, capsys):
    mps = synth_file(tmp_path)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "detect", mps, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["family_counts"] == {"Channel": 1}
    assert len(doc["records"]) == 1


def test_detect_rerun_is_byte_identical(tmp_path, capsys):
    mps = synth_file(tmp_path, "cardinality", 5)
    capsys.readouterr()
    _, first, _ = run_cli(capsys, "detect", mps, "--quiet")
    _, second, _ = run_cli(capsys, "detect", mps, "--quiet")
    assert first == second


def test_detect_records_out_writes_file(tmp_path, capsys):
    mps = synth_file(tmp_path, "stretch", 0)
    out_path = tmp_path / "records.json"
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "detect", mps, "--records-out", str(out_path), "--quiet")
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["family_counts"] == {"Stretch": 1}


def test_detect_zero_row_model(tmp_path, capsys):
    model = MipModel((Variable(0, "x", 0.0, 1.0, Integrality.BINARY),), ())
    path = tmp_path / "empty.mps"
    path.write_text(write_mps(model))
    code, out, _ = run_cli(capsys, "detect", str(path), "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == []
    assert doc["family_counts"] == {}


def test_detect_single_family_filter(tmp_path, capsys):
    mps = synth_file(tmp_path, "cardinality", 0)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "detect", mps, "--family", "cumulative", "--quiet")
    assert code == 0
    assert json.loads(out)["records"] == []


@pytest.mark.parametrize(
    "planted, seed, size, family",
    [
        ("channel", 2, None, "channel"),
        # AllDifferent claims every row, and every row also reads as counting
        ("alldifferent", 7, "n=3", "cardinality"),
    ],
    ids=["own-family", "claimed-rows"],
)
def test_detect_with_a_family_keeps_its_records_of_detect(
    tmp_path, capsys, planted, seed, size, family
):
    mps = synth_file(tmp_path, planted, seed, ["--size", size] if size else ())
    capsys.readouterr()
    _, everything, _ = run_cli(capsys, "detect", mps, "--quiet")
    code, out, _ = run_cli(capsys, "detect", mps, "--family", family, "--quiet")
    assert code == 0
    name = Family.from_string(family).value
    kept = [rec for rec in json.loads(everything)["records"] if rec["family"] == name]
    assert json.loads(out)["records"] == kept
    assert bool(kept) == (planted == family)


def test_detect_missing_file_is_domain_failure(capsys):
    code, _, err = run_cli(capsys, "detect", "/no/such/file.mps")
    assert code == 1
    assert "ERROR" in err


# ---------------------------------------------------------------------------
# propagate


def test_propagate_detect_matches_records_file(tmp_path, capsys):
    mps = synth_file(tmp_path, "onehotresource", 0)
    records_path = tmp_path / "records.json"
    run_cli(capsys, "detect", mps, "--records-out", str(records_path), "--quiet")
    code_a, out_a, _ = run_cli(capsys, "propagate", mps, "--detect", "--quiet")
    code_b, out_b, _ = run_cli(
        capsys, "propagate", mps, "--records", str(records_path), "--quiet"
    )
    assert code_a == code_b == 0
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    assert doc_a["changes"] == doc_b["changes"]
    assert doc_a["records_applied"] == doc_b["records_applied"] == 1


def test_records_written_for_an_incomplete_bottleneck_load_back(tmp_path, capsys):
    # x2 has no link row, so detection keeps the group rows' counting records
    mps_path = tmp_path / "bottleneck.mps"
    mps_path.write_text(write_mps(bottleneck_model(PARTIAL_WEIGHTS)))
    records_path = tmp_path / "records.json"
    code, _, _ = run_cli(
        capsys, "detect", str(mps_path), "--records-out", str(records_path), "--quiet"
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "propagate", str(mps_path), "--records", str(records_path), "--quiet"
    )
    assert code == 0
    assert json.loads(records_path.read_text())["family_counts"] == {"Cardinality": 2}
    assert json.loads(out)["records_applied"] == 2


def test_propagate_cutoff_exits_nonzero(tmp_path, capsys):
    # two of three binaries are pinned to zero, so an exactly-two row is hopeless
    variables = (
        Variable(0, "x0", 0.0, 1.0, Integrality.BINARY),
        Variable(1, "x1", 0.0, 0.0, Integrality.BINARY),
        Variable(2, "x2", 0.0, 0.0, Integrality.BINARY),
    )
    row = LinearRow(0, "pick2", ((0, 1.0), (1, 1.0), (2, 1.0)), 2.0, 2.0)
    model = MipModel(variables, (row,))
    mps_path = tmp_path / "stuck.mps"
    mps_path.write_text(write_mps(model))
    record = SemanticRecord(
        Family.CARDINALITY, (0, 1, 2), CardinalityParams(2.0, 2.0), (0,)
    )
    records_path = tmp_path / "records.json"
    records_path.write_text(json.dumps(records_to_json([record], model)))
    code, out, err = run_cli(
        capsys, "propagate", str(mps_path), "--records", str(records_path)
    )
    assert code == 1
    assert json.loads(out)["outcome"]["cutoff"] is True
    assert "infeasible" in err


def test_propagate_and_search_agree_on_an_empty_declared_box(tmp_path, capsys):
    # y is in no row, so no propagation step sees that [0.5, 0.7] holds no integer
    variables = (
        Variable(0, "x", 0.0, 1.0, Integrality.BINARY),
        Variable(1, "y", 0.5, 0.7, Integrality.INTEGER),
    )
    row = LinearRow(0, "r", ((0, 1.0),), float("-inf"), 1.0)
    mps_path = tmp_path / "empty.mps"
    mps_path.write_text(write_mps(MipModel(variables, (row,))))
    code, out, err = run_cli(capsys, "propagate", str(mps_path), "--detect")
    assert code == 1
    assert json.loads(out)["changes"] == []
    assert "infeasible" in err
    code, out, _ = run_cli(capsys, "search", str(mps_path), "--quiet")
    assert code == 1
    assert json.loads(out)["status"] == "infeasible"


def test_propagate_tightens_with_rows_as_search_does_at_root(tmp_path, capsys):
    # Cardinality is detect-only: its exactly-two row does the tightening
    variables = (
        Variable(0, "x0", 0.0, 0.0, Integrality.BINARY),
        Variable(1, "x1", 0.0, 1.0, Integrality.BINARY),
        Variable(2, "x2", 0.0, 1.0, Integrality.BINARY),
    )
    row = LinearRow(0, "pick2", ((0, 1.0), (1, 1.0), (2, 1.0)), 2.0, 2.0)
    model = MipModel(variables, (row,))
    mps_path = tmp_path / "pick2.mps"
    mps_path.write_text(write_mps(model))
    code, out, _ = run_cli(capsys, "propagate", str(mps_path), "--detect", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["records_applied"] == 1
    assert doc["outcome"]["cutoff"] is False
    assert doc["outcome"]["budget_hit"] is False
    assert doc["changes"] == [
        {"variable": name, "before": [0.0, 1.0], "after": [1.0, 1.0]}
        for name in ("x1", "x2")
    ]


def _drop_records(doc):
    del doc["records"]
    return doc


def _drop_link_var(doc):
    del doc["records"][0]["params"]["link_var"]
    return doc


def _string_indicator_value(doc):
    doc["records"][0]["params"]["indicators"][0][0] = "abc"
    return doc


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_drop_records, "missing key 'records'"),
        (_drop_link_var, "missing key 'link_var'"),
        (lambda doc: [doc], "must be an object, not list"),
        (_string_indicator_value, "expected a JSON float, got 'abc'"),
    ],
    ids=["no-records", "no-params-field", "list", "string-value"],
)
def test_propagate_malformed_records_file_is_domain_failure(tmp_path, capsys, spoil, message):
    _propagate_spoiled_records(tmp_path, capsys, "channel", spoil, message)


def test_propagate_skips_the_disjunction_keys_older_records_files_carry(tmp_path, capsys):
    # files once stored a variant and the touched variables, both derived now;
    # even a variant that contradicts the selector row is skipped
    mps = synth_file(tmp_path, "disjpolyhedral", 0)
    records_path = tmp_path / "records.json"
    run_cli(capsys, "detect", mps, "--records-out", str(records_path), "--quiet")

    def propagate():
        code, out, err = run_cli(capsys, "propagate", mps, "--records", str(records_path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        del doc["outcome"]["prop_time_ms"]  # a timing
        return doc

    expected = propagate()
    assert expected["records_applied"] == 1
    doc = json.loads(records_path.read_text())
    (record,) = doc["records"]
    record["params"].update(variant="exact-one-mode", touched=[record["scope"][0]])
    records_path.write_text(json.dumps(doc))
    assert propagate() == expected


def _propagate_spoiled_records(tmp_path, capsys, family, spoil, message):
    mps = synth_file(tmp_path, family, 0)
    records_path = tmp_path / "records.json"
    run_cli(capsys, "detect", mps, "--records-out", str(records_path), "--quiet")
    records_path.write_text(json.dumps(spoil(json.loads(records_path.read_text()))))
    code, out, err = run_cli(capsys, "propagate", mps, "--records", str(records_path))
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_propagate_requires_a_record_source(tmp_path):
    mps_path = tmp_path / "x.mps"
    with pytest.raises(SystemExit) as excinfo:
        main(["propagate", str(mps_path)])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_instance_and_sidecar(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--family", "nvalue", "--seed", "4", "--out", str(tmp_path), "--quiet"
    )
    assert code == 0
    mps_line, json_line = out.splitlines()
    assert mps_line.endswith("nvalue_4.mps")
    assert json_line.endswith("nvalue_4.json")
    sidecar = json.loads((tmp_path / "nvalue_4.json").read_text())
    assert sidecar["seed"] == 4


def test_synth_json_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--family", "nvalue", "--out", str(tmp_path), "--json", "--quiet"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mps", "ground_truth"}


def test_synth_reruns_are_byte_identical(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out_dir in (a_dir, b_dir):
        run_cli(
            capsys, "synth", "--family", "cumulative", "--seed", "9",
            "--out", str(out_dir), "--quiet",
        )
    assert (a_dir / "cumulative_9.mps").read_bytes() == (b_dir / "cumulative_9.mps").read_bytes()
    assert (a_dir / "cumulative_9.json").read_bytes() == (b_dir / "cumulative_9.json").read_bytes()


def test_synth_obfuscated_output_still_detectable(tmp_path, capsys):
    mps = synth_file(tmp_path, "channel", 1, extra=["--obfuscate", "on"])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "detect", mps, "--quiet")
    assert code == 0
    assert json.loads(out)["family_counts"].get("Channel") == 1


def test_synth_size_override(tmp_path, capsys):
    synth_file(tmp_path, "cardinality", 0, extra=["--size", "n=7"])
    capsys.readouterr()
    mps = str(tmp_path / "cardinality_0.mps")
    _, out, _ = run_cli(capsys, "detect", mps, "--quiet")
    record = json.loads(out)["records"][0]
    assert len(record["scope"]) == 7


@pytest.mark.parametrize(
    "size, message",
    [
        ("n=four", "size parameter 'n' needs an integer, got 'four'"),
        ("n", "size parameter 'n' is not of the form key=value"),
        ("n=4,=3", "size parameter '=3' is not of the form key=value"),
    ],
    ids=["not-int", "no-sep", "no-key"],
)
def test_synth_rejects_malformed_size(tmp_path, capsys, size, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--family", "alldifferent", "--size", size, "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_seed_belongs_to_synth_and_verify_only(tmp_path, capsys):
    mps = synth_file(tmp_path, "cardinality", 0)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "detect", mps, "--quiet")
    assert code == 0
    assert json.loads(out)["family_counts"] == {"Cardinality": 1}
    for argv in (["detect", mps, "--seed", "1"], ["search", mps, "--json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_family_ladder(tmp_path, capsys):
    report_path = tmp_path / "ladder.json"
    code, out, _ = run_cli(
        capsys, "verify", "--family", "cumulative", "--report", str(report_path), "--quiet"
    )
    assert code == 0
    assert out == ""
    doc = json.loads(report_path.read_text())
    ladder = doc["ladders"][0]
    assert ladder["family"] == "Cumulative"
    assert ladder["benchmark_ready"] is True
    assert len(ladder["gates"]) == 6


def test_verify_reports_every_ladder_when_a_rule_crashes(tmp_path, capsys, monkeypatch):
    def raises(params, box, out):
        raise IndexError("planted fault")

    channel = dataclasses.replace(FAMILIES[Family.CHANNEL], rule=raises)
    monkeypatch.setitem(FAMILIES, Family.CHANNEL, channel)
    report_path = tmp_path / "ladders.json"
    code, _, _ = run_cli(
        capsys, "verify", "--family", "all", "--quiet", "--report", str(report_path)
    )
    assert code == 1
    ladders = json.loads(report_path.read_text())["ladders"]
    assert [ladder["family"] for ladder in ladders] == [f.value for f in Family]
    channel = next(ladder for ladder in ladders if ladder["family"] == "Channel")
    assert channel["gates"][-1]["detail"] == "blocked by propagator_soundness"


def test_verify_blocked_family_exits_nonzero(capsys, monkeypatch):
    def stub_ladder(family, suite_seed=0, **kwargs):
        return [GateResult("artifact_completeness", False, "missing: detector", 0.0)]

    monkeypatch.setattr(cli_mod, "run_gate_ladder", stub_ladder)
    code, out, err = run_cli(capsys, "verify", "--family", "stretch", "--quiet")
    assert code == 1
    assert json.loads(out)["ladders"][0]["benchmark_ready"] is False
    assert "not benchmark ready: Stretch" in err


def test_verify_suite_seed_defaults_to_seed(capsys, monkeypatch):
    seen = []

    def spy_ladder(family, suite_seed=0, **kwargs):
        seen.append(suite_seed)
        return [GateResult("artifact_completeness", True, "ok", 0.0)]

    monkeypatch.setattr(cli_mod, "run_gate_ladder", spy_ladder)
    _, out, _ = run_cli(capsys, "verify", "--family", "channel", "--seed", "11", "--quiet")
    assert seen == [11]
    assert json.loads(out)["suite_seed"] == 11


# ---------------------------------------------------------------------------
# search


def test_search_reports_optimum(tmp_path, capsys):
    mps = synth_file(tmp_path, "cardinality", 3)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "search", mps, "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert isinstance(doc["objective"], float)
    assert len(doc["incumbent"]) == 5
    assert set(doc["incumbent"].values()) <= {0.0, 1.0}


def test_search_reports_objective_in_declared_sense(tmp_path, capsys):
    # maximize 5x over integer x in [0, 10] with x <= 3
    model = MipModel(
        (Variable(0, "x", 0.0, 10.0, Integrality.INTEGER),),
        (LinearRow(0, "r", ((0, 1.0),), float("-inf"), 3.0),),
        objective=((0, -5.0),),
        objective_sense="max",
    )
    mps = tmp_path / "mx.mps"
    mps.write_text(write_mps(model))
    code, out, _ = run_cli(capsys, "search", str(mps), "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["incumbent"] == {"x": 3.0}
    assert doc["objective"] == 15.0


def test_search_infeasible_exits_nonzero(tmp_path, capsys):
    model, _ = clash_model(Family.CARDINALITY, 0)
    mps_path = tmp_path / "clash.mps"
    mps_path.write_text(write_mps(model), encoding="ascii")
    code, out, _ = run_cli(capsys, "search", str(mps_path), "--quiet")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert doc["incumbent"] is None


def test_search_without_limits_runs_under_the_default_config(tmp_path, capsys, monkeypatch):
    configs = []
    real_solve = cli_mod.dfs_solve

    def spy(model, records, config=None):
        configs.append(config)
        return real_solve(model, records, config)

    monkeypatch.setattr(cli_mod, "dfs_solve", spy)
    mps = synth_file(tmp_path, "cardinality", 3)
    code, _, _ = run_cli(capsys, "search", mps, "--quiet")
    assert code == 0
    assert configs == [SearchConfig()]


def test_search_node_limit_stops_early(tmp_path, capsys):
    mps = synth_file(tmp_path, "rosteringwindow", 0)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "search", mps, "--node-limit", "2", "--quiet")
    doc = json.loads(out)
    assert doc["status"] == "limit"
    assert doc["nodes"] <= 2


# ---------------------------------------------------------------------------
# detector failures


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "{mps}"],
        ["detect", "{mps}", "--family", "channel"],
        ["detect", "{mps}", "--family", "all"],
        ["propagate", "{mps}", "--detect"],
        ["search", "{mps}"],
        ["bench", "--dir", "{dir}"],
    ],
    ids=["detect", "detect-channel", "detect-all", "propagate", "search", "bench"],
)
def test_a_failing_detector_is_logged_once(tmp_path, capsys, monkeypatch, argv):
    def raises(view, config):
        raise IndexError("planted fault")

    # replace the value: deleting the key would change the arbitration order
    monkeypatch.setitem(DETECTORS, Family.CHANNEL, raises)
    mps = synth_file(tmp_path, "channel", 2)
    capsys.readouterr()
    argv = [arg.format(mps=mps, dir=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert code == 0
    assert err.count("Channel detector failed: planted fault") == 1
    if argv[0] == "detect":
        assert isinstance(json.loads(out)["records"], list)


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_reports(tmp_path, capsys):
    for family, seed in [("cardinality", 0), ("stretch", 1)]:
        synth_file(tmp_path, family, seed)
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path), "--quiet")
    assert code == 0
    paths = out.splitlines()
    assert len(paths) == 4
    assert (tmp_path / "bench_coverage.csv").exists()
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert set(doc["coverage"]) == {"Cardinality", "Stretch"}


def test_bench_family_filter_and_json_flag(tmp_path, capsys):
    for family in ("cardinality", "stretch"):
        synth_file(tmp_path, family, 0)
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "bench", "--dir", str(tmp_path), "--families", "stretch",
        "--json", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"] == []
    report = json.loads((tmp_path / "bench.json").read_text())
    assert set(report["coverage"]) == {"Stretch"}


def test_bench_missing_dir_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bench", "--dir", "/no/such/dir", "--quiet")
    assert code == 2
    assert "not a directory" in err


# ---------------------------------------------------------------------------
# surface


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["detect", "x.mps", "--frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["synth", "--family", "nosuch"], ["detect", "m.mps", "--family", "nosuch"]],
    ids=["synth", "detect"],
)
def test_unknown_family_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--family: unknown family 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "m.mps", "--node-limit", "0"], "--node-limit: expected a positive int, got '0'"),
        (["search", "m.mps", "--node-limit", "1.5"], "--node-limit: expected a positive int"),
        (["search", "m.mps", "--time-limit", "0"], "--time-limit: expected a positive float"),
        (["search", "m.mps", "--time-limit", "nan"], "--time-limit: expected a positive float"),
        (["bench", "--dir", ".", "--time-limit", "-1"], "--time-limit: expected a positive float"),
    ],
    ids=["search-nodes-0", "search-nodes-1.5", "search-time-0", "search-time-nan", "bench-time-neg"],
)
def test_bad_search_limit_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_tolerance_is_not_an_option(capsys):
    # the numeric policy is fixed, so no subcommand accepts a tolerance
    with pytest.raises(SystemExit) as excinfo:
        main(["detect", "m.mps", "--tolerance", "1e-3"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_fixpoint_rounds_is_not_an_option(capsys):
    # the round cap is fixed, so propagate no longer accepts one
    with pytest.raises(SystemExit) as excinfo:
        main(["propagate", "m.mps", "--detect", "--fixpoint-rounds", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --fixpoint-rounds" in capsys.readouterr().err


def test_quiet_silences_info(tmp_path, capsys):
    _, _, noisy = run_cli(capsys, "synth", "--family", "nvalue", "--out", str(tmp_path))
    _, _, quiet = run_cli(
        capsys, "synth", "--family", "nvalue", "--out", str(tmp_path), "--quiet"
    )
    assert "INFO" in noisy
    assert "INFO" not in quiet


def test_module_entry_point():
    # the child must import the same package as this process, installed or not
    package_root = str(Path(cli_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "structprop.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for name in ("detect", "propagate", "synth", "verify", "search", "bench"):
        assert name in proc.stdout
