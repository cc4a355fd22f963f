"""Search tests: plugin and baseline optima against the enumeration oracle,
the one node step every node takes, and stats accounting."""

import hashlib
import json

import pytest

from structprop.detect import detect_all
from structprop.model import INF, Integrality, LinearRow, MipModel, Variable
from structprop.mps import parse_mps
from structprop.records import Family
import structprop.search as search_mod
from structprop.search import SearchConfig, dfs_solve, stats_to_json
from structprop.synth import (
    ObfuscationConfig,
    obfuscate,
    reverse_sample,
    witness_satisfies,
)
from structprop.verify import enumerate_feasible

SWEEP = [
    (Family.CARDINALITY, 0),
    (Family.ALL_DIFFERENT, 1),
    (Family.CHANNEL, 2),
    (Family.CUMULATIVE, 0),
    (Family.NVALUE, 1),
    (Family.STRETCH, 2),
    (Family.ONE_HOT_RESOURCE, 0),
    (Family.BOTTLENECK_EXACT_ONE, 1),
    (Family.ROSTERING_WINDOW, 0),
    (Family.UNIT_COMMITMENT_RAMP, 1),
    (Family.DISJ_POLYHEDRAL, 2),
]


def oracle_optimum(model):
    scope = [v.id for v in model.variables if v.is_integer]
    enum = enumerate_feasible(model, scope)
    assert not enum.truncated
    if not enum.feasible_points:
        return None
    values = []
    for point in enum.feasible_points:
        assignment = dict(zip(enum.scope_vars, point))
        values.append(sum(c * assignment[v] for v, c in model.objective))
    return min(values)  # the model stores every objective in minimization form


def objective_of(model, incumbent):
    return sum(c * incumbent[v] for v, c in model.objective)


@pytest.mark.parametrize(
    "family,seed", SWEEP, ids=[f"{f.value}-{s}" for f, s in SWEEP]
)
def test_optimum_matches_oracle_under_both_propfreqs(family, seed):
    # every node propagates the rows and the records it is given, so the
    # plugin (ground truth record) and the baseline (no records) must agree
    inst = reverse_sample(family, seed=seed)
    expected = oracle_optimum(inst.model)
    for records in ([inst.ground_truth], []):
        incumbent, stats = dfs_solve(inst.model, records, SearchConfig())
        assert stats.status == "optimal"
        assert incumbent is not None
        assert objective_of(inst.model, incumbent) == pytest.approx(expected)
        assert stats.cutoffs <= stats.handler_calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_baseline_without_records_agrees(seed):
    inst = reverse_sample(Family.NVALUE, seed=seed)
    expected = oracle_optimum(inst.model)
    incumbent, stats = dfs_solve(inst.model, [], SearchConfig())
    assert stats.status == "optimal"
    assert objective_of(inst.model, incumbent) == pytest.approx(expected)
    assert stats.handler_calls == 0
    assert stats.domain_reductions == 0
    assert stats.cutoffs == 0


def test_infeasible_instance_under_both_propfreqs():
    inst = reverse_sample(Family.CARDINALITY, seed=3, make_infeasible=True)
    for records in ([inst.ground_truth], []):
        incumbent, stats = dfs_solve(inst.model, records, SearchConfig())
        assert incumbent is None
        assert stats.status == "infeasible"


def test_incumbent_satisfies_all_rows():
    inst = reverse_sample(Family.ROSTERING_WINDOW, seed=2)
    incumbent, stats = dfs_solve(inst.model, [inst.ground_truth], SearchConfig())
    assert stats.status == "optimal"
    # the instance is pure integer, so the incumbent is a full assignment
    assert set(incumbent) == {v.id for v in inst.model.variables}
    assert witness_satisfies(inst.model, incumbent)


@pytest.mark.parametrize("seed", range(8))
def test_disj_every_node_never_needs_more_nodes(seed):
    # the record at every node never costs nodes against rows alone
    inst = reverse_sample(Family.DISJ_POLYHEDRAL, seed=seed)
    _, plugin = dfs_solve(inst.model, [inst.ground_truth], SearchConfig())
    _, baseline = dfs_solve(inst.model, [], SearchConfig())
    assert plugin.nodes <= baseline.nodes


def test_node_limit_reports_limit_with_best_so_far():
    inst = reverse_sample(Family.ROSTERING_WINDOW, seed=0)
    _, full = dfs_solve(inst.model, [], SearchConfig())
    assert full.status == "optimal"
    assert full.nodes > 3
    incumbent, stats = dfs_solve(
        inst.model, [], SearchConfig(node_limit=full.nodes - 1)
    )
    assert stats.status == "limit"
    assert stats.nodes <= full.nodes - 1


def test_tiny_time_limit_reports_limit():
    inst = reverse_sample(Family.ROSTERING_WINDOW, seed=0)
    _, stats = dfs_solve(inst.model, [], SearchConfig(time_limit=1e-9))
    assert stats.status == "limit"


def test_every_node_takes_one_propagate_node_step(monkeypatch):
    # the root is popped like any other node: each counted node, the root
    # included, makes exactly one propagate_node call with the search's records
    calls = []
    real = search_mod.propagate_node

    def spy(model, records, box, config=None):
        calls.append(list(records))
        return real(model, records, box, config)

    monkeypatch.setattr(search_mod, "propagate_node", spy)
    feasible = reverse_sample(Family.ONE_HOT_RESOURCE, seed=0)
    infeasible = reverse_sample(Family.CARDINALITY, seed=3, make_infeasible=True)
    cases = [
        (feasible, SearchConfig(), "optimal"),
        (infeasible, SearchConfig(), "infeasible"),
        (feasible, SearchConfig(time_limit=1e-9), "limit"),
    ]
    for inst, config, status in cases:
        for records in ([inst.ground_truth], []):
            calls.clear()
            _, stats = dfs_solve(inst.model, records, config)
            assert stats.status == status
            assert len(calls) == stats.nodes >= 1
            assert all(seen == records for seen in calls)
            if status == "infeasible":
                assert stats.nodes == 1  # the root cuts off


def test_deterministic_replay():
    inst = reverse_sample(Family.STRETCH, seed=4)
    runs = [
        dfs_solve(inst.model, [inst.ground_truth], SearchConfig())
        for _ in range(2)
    ]
    (inc_a, stats_a), (inc_b, stats_b) = runs
    assert inc_a == inc_b
    assert (stats_a.nodes, stats_a.handler_calls, stats_a.domain_reductions) == (
        stats_b.nodes,
        stats_b.handler_calls,
        stats_b.domain_reductions,
    )
    assert stats_a.status == stats_b.status


def test_branching_agrees_with_oracle_on_value():
    inst = reverse_sample(Family.CUMULATIVE, seed=3)
    expected = oracle_optimum(inst.model)
    incumbent, stats = dfs_solve(inst.model, [inst.ground_truth], SearchConfig())
    assert stats.status == "optimal"
    assert objective_of(inst.model, incumbent) == pytest.approx(expected)


def test_lower_half_explored_first():
    model = MipModel(
        (
            Variable(0, "a", 0.0, 1.0, Integrality.BINARY),
            Variable(1, "b", 0.0, 1.0, Integrality.BINARY),
        ),
        (LinearRow(0, "cover", ((0, 1.0), (1, 1.0)), 1.0, INF),),
        objective=((0, 1.0), (1, 1.0)),
    )
    incumbent, stats = dfs_solve(model, [], SearchConfig())
    assert stats.status == "optimal"
    assert objective_of(model, incumbent) == 1.0
    # branching tries a=0 first, so the first optimum found sets a=0, b=1
    assert incumbent == {0: 0.0, 1: 1.0}


def test_stats_json_shape():
    inst = reverse_sample(Family.CARDINALITY, seed=0)
    _, stats = dfs_solve(inst.model, [inst.ground_truth], SearchConfig())
    payload = stats_to_json(stats)
    assert set(payload) == {
        "calls",
        "domain_reductions",
        "cutoffs",
        "prop_time_ms",
        "nodes",
        "status",
    }
    assert payload["status"] == "optimal"
    assert payload["nodes"] == stats.nodes


def test_config_validation():
    with pytest.raises(ValueError, match="node_limit"):
        SearchConfig(node_limit=0)
    with pytest.raises(ValueError, match="time_limit"):
        SearchConfig(time_limit=0.0)


def test_continuous_objective_rejected():
    model = MipModel(
        (Variable(0, "x", 0.0, 5.0, Integrality.CONTINUOUS),),
        (),
        objective=((0, 1.0),),
    )
    with pytest.raises(ValueError, match="continuous"):
        dfs_solve(model, [])


def test_unbounded_integer_rejected():
    model = MipModel(
        (Variable(0, "n", 0.0, INF, Integrality.INTEGER),), ()
    )
    with pytest.raises(ValueError, match="infinite"):
        dfs_solve(model, [])


MAXIMIZE_MPS = """\
NAME mx
OBJSENSE
    MAX
ROWS
 N obj
 L r
COLUMNS
    MARK 'MARKER' 'INTORG'
    x obj 5 r 1
    MARK 'MARKER' 'INTEND'
RHS
    RHS r 3
BOUNDS
 UP BND x 10
ENDATA
"""


def test_maximization_model_is_maximized():
    model = parse_mps(MAXIMIZE_MPS)
    assert model.objective_sense == "max"
    incumbent, stats = dfs_solve(model, [])
    assert stats.status == "optimal"
    assert incumbent == {0: 3.0}
    assert oracle_optimum(model) == objective_of(model, incumbent) == -15.0


def test_feasibility_model_stops_pruning_after_first_leaf():
    # no objective: every feasible point is optimal, so the first leaf
    # lets the bound prune every open node
    n = 12
    model = MipModel(
        tuple(Variable(v, f"b{v}", 0.0, 1.0, Integrality.BINARY) for v in range(n)),
        (LinearRow(0, "half", tuple((v, 1.0) for v in range(n)), -INF, 6.0),),
    )
    incumbent, stats = dfs_solve(model, [])
    assert stats.status == "optimal"
    assert sum(incumbent.values()) <= 6
    assert stats.nodes == 25


# sha256 prefix of the JSON trace of plugin (detected records) and baseline
# dfs_solve plus enumerate_feasible on every family's obfuscated seed-0..2
# instances; a refactor of the propagation engine must leave every status,
# node count, record statistic, incumbent and oracle count as it was
PINNED_TRACE_SHA256 = "46103d58fcea873d"
TRACE_NODE_LIMIT = 1000


def test_search_and_oracle_trace_matches_pinned_hash():
    config = SearchConfig(node_limit=TRACE_NODE_LIMIT)
    trace = []
    for family in Family:
        for seed in (0, 1, 2):
            inst = obfuscate(reverse_sample(family, seed=seed), ObfuscationConfig(seed=seed))
            model = inst.model
            plugin = list(detect_all(model).records)
            for records in (plugin, []):
                incumbent, stats = dfs_solve(model, records, config)
                trace.append([
                    stats.status,
                    stats.nodes,
                    stats.handler_calls,
                    stats.domain_reductions,
                    stats.cutoffs,
                    sorted(incumbent.items()) if incumbent else None,
                ])
            scope = [v.id for v in model.variables if v.is_integer]
            enum = enumerate_feasible(model, scope, cap=TRACE_NODE_LIMIT)
            trace.append([enum.nodes_visited, enum.truncated, len(enum.feasible_points)])
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest[:16] == PINNED_TRACE_SHA256
