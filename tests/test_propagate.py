"""Propagator tests: family rules, fixpoints, soundness against enumeration."""

import itertools
import random

import pytest

import structprop.propagate as propagate_mod
import structprop.verify as verify_mod
from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    Variable,
)
from structprop.propagate import (
    DETECT_ONLY,
    HANDLED_FAMILIES,
    PropagatorConfig,
    outcome_to_json,
    propagate_block_fixpoint,
    propagate_bottleneck_exact_one,
    propagate_disj_polyhedral,
    propagate_one_hot_resource,
    propagate_record,
    run_fixpoint,
)
from structprop.records import (
    ActivatorSpec,
    BottleneckExactOneParams,
    BranchSpec,
    ChannelParams,
    DisjPolyhedralParams,
    Family,
    OneHotResourceParams,
    SemanticRecord,
    StrippedRow,
)
from structprop.search import SearchConfig, dfs_solve
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample

ALL_FAMILIES = list(Family)


def binary_box(n, extra=()):
    lower = [0.0] * n + [lo for lo, _, _ in extra]
    upper = [1.0] * n + [up for _, up, _ in extra]
    mask = [True] * n + [isint for _, _, isint in extra]
    return DomainBox(lower, upper, mask)


def propagate_on_binaries(record, box):
    """Dispatch a parameter-block record on an all-binary model as wide as the box."""
    model = MipModel(
        [Variable(i, f"b{i}", 0.0, 1.0, Integrality.BINARY) for i in range(len(box))], []
    )
    return propagate_record(model, record, box)


def changes_of(outcome):
    return {(c.var, c.which, c.new) for c in outcome.bound_changes}


# ---------------------------------------------------------------------------
# one-hot resource


def onehot_params(budget=8.0, external=0.0):
    return OneHotResourceParams(
        groups=(((0, 3.0), (1, 5.0)), ((2, 4.0), (3, 7.0))),
        budget=budget,
        external_min=external,
    )


def test_one_hot_eliminates_and_collapses():
    box = binary_box(4)
    out = propagate_one_hot_resource(onehot_params(), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0
    assert out.domain_reductions == 4


def test_one_hot_budget_cutoff():
    params = OneHotResourceParams(
        groups=(((0, 3.0),), ((1, 6.0),)), budget=8.0, external_min=0.0
    )
    out = propagate_one_hot_resource(params, binary_box(2))
    assert out.cutoff and out.cutoffs == 1


def test_one_hot_slack_budget_is_silent():
    box = binary_box(4)
    out = propagate_one_hot_resource(onehot_params(budget=100.0), box)
    assert not out.bound_changes and not out.cutoff
    assert box.lower == [0.0] * 4 and box.upper == [1.0] * 4


def test_one_hot_external_floor_counts():
    # same groups, budget 8, but outside terms already cost 1: slack shrinks
    box = binary_box(4)
    out = propagate_one_hot_resource(onehot_params(external=1.0), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0


def test_one_hot_group_emptied_is_cutoff():
    box = binary_box(4)
    box.upper[0] = 0.0
    box.upper[1] = 0.0
    out = propagate_one_hot_resource(onehot_params(), box)
    assert out.cutoff


def test_one_hot_rejects_non_binary_member():
    box = binary_box(3, extra=[(0.0, 4.0, True)])
    params = OneHotResourceParams(
        groups=(((0, 3.0), (3, 5.0)), ((1, 4.0), (2, 7.0))),
        budget=8.0,
        external_min=0.0,
    )
    out = propagate_one_hot_resource(params, box)
    assert not out.bound_changes and not out.cutoff


def test_one_hot_idempotent():
    box = binary_box(4)
    propagate_one_hot_resource(onehot_params(), box)
    again = propagate_one_hot_resource(onehot_params(), box)
    assert not again.bound_changes and not again.cutoff


# ---------------------------------------------------------------------------
# bottleneck exact-one


def bottleneck_params(activators=None):
    return BottleneckExactOneParams(
        bottleneck_var=4,
        groups=(((0, 2.0), (1, 5.0)), ((2, 3.0), (3, 6.0))),
        link_coverage=1.0,
        activators=activators,
    )


def zbox(z_upper=INF):
    return binary_box(4, extra=[(0.0, z_upper, False)])


def test_bottleneck_max_min_lower_bound():
    box = zbox()
    out = propagate_bottleneck_exact_one(bottleneck_params(), box)
    assert not out.cutoff
    assert box.lower[4] == 3.0


def test_bottleneck_weight_elimination_collapses_groups():
    box = zbox(z_upper=4.0)
    out = propagate_bottleneck_exact_one(bottleneck_params(), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0


def test_bottleneck_tight_bound_is_noop_on_z():
    params = BottleneckExactOneParams(
        bottleneck_var=2,
        groups=(((0, 4.0),), ((1, 4.0),)),
        link_coverage=1.0,
        activators=None,
    )
    box = binary_box(2, extra=[(4.0, 4.0, False)])
    out = propagate_bottleneck_exact_one(params, box)
    assert all(c.var != 2 for c in out.bound_changes)


def test_bottleneck_infeasible_bound_gap():
    box = zbox(z_upper=1.0)  # every weight exceeds ub(z)
    out = propagate_bottleneck_exact_one(bottleneck_params(), box)
    assert out.cutoff


def test_bottleneck_unknown_weights_stay_conservative():
    params = BottleneckExactOneParams(
        bottleneck_var=4,
        groups=(((0, 2.0), (1, None)), ((2, 3.0), (3, 6.0))),
        link_coverage=0.75,
        activators=None,
    )
    box = zbox()
    out = propagate_bottleneck_exact_one(params, box)
    # group with the unlinked selector cannot raise the floor
    assert box.lower[4] == 3.0
    assert box.upper[1] == 1.0
    assert not out.cutoff


def test_bottleneck_activator_implications():
    activators = ActivatorSpec(
        selector_to_activator=((0, 5), (1, 6), (2, 5), (3, 6)),
        activator_vars=(5, 6),
        count=1,
        count_row=0,
    )
    box = binary_box(4, extra=[(0.0, INF, False), (0.0, 1.0, True), (0.0, 0.0, True)])
    out = propagate_bottleneck_exact_one(bottleneck_params(activators), box)
    assert not out.cutoff
    # activator 6 is shut: its selectors die, groups collapse, slot 5 opens
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0
    assert box.lower[5] == 1.0


def test_bottleneck_max_min_floor_ignores_slot_packing():
    # one open slot, two groups with disjoint cheap reach: someone must pay
    # 9, but the max-min floor only proves the cheapest option per group
    params = BottleneckExactOneParams(
        bottleneck_var=4,
        groups=(((0, 2.0), (1, 9.0)), ((2, 2.0), (3, 9.0))),
        link_coverage=1.0,
        activators=ActivatorSpec(
            selector_to_activator=((0, 5), (1, 7), (2, 6), (3, 7)),
            activator_vars=(5, 6, 7),
            count=1,
            count_row=0,
        ),
    )

    box = binary_box(4, extra=[(0.0, INF, False)] + [(0.0, 1.0, True)] * 3)
    out = propagate_bottleneck_exact_one(params, box)
    assert not out.cutoff
    assert box.lower[4] == 2.0


# ---------------------------------------------------------------------------
# block fixpoint


def test_block_fixpoint_needs_two_passes():
    rows = [
        LinearRow(0, "cap", ((0, 1.0), (1, 1.0)), -INF, 3.0),
        LinearRow(1, "floor", ((1, 1.0),), 2.0, INF),
    ]
    box = DomainBox([0.0, 0.0], [5.0, 5.0], [True, True])
    out = propagate_block_fixpoint(rows, box)
    assert not out.cutoff
    assert box.upper[0] == 1.0


def test_block_fixpoint_slack_rows_do_nothing():
    rows = [LinearRow(0, "r", ((0, 1.0),), -INF, 99.0)]
    box = DomainBox([0.0], [5.0], [True])
    out = propagate_block_fixpoint(rows, box)
    assert not out.bound_changes and not out.cutoff


def test_block_fixpoint_contradiction_cutoff():
    rows = [
        LinearRow(0, "hi", ((0, 1.0),), 4.0, INF),
        LinearRow(1, "lo", ((0, 1.0),), -INF, 2.0),
    ]
    out = propagate_block_fixpoint(rows, DomainBox([0.0], [10.0], [True]))
    assert out.cutoff


def test_block_fixpoint_round_budget_reported():
    # alternating chain that needs many passes; one round is not enough
    rows = [
        LinearRow(0, "a", ((0, 1.0), (1, -1.0)), -INF, 0.0),
        LinearRow(1, "b", ((1, 1.0), (0, -1.0)), -INF, -1.0),
    ]
    box = DomainBox([0.0, 0.0], [50.0, 50.0], [True, True])
    out = propagate_block_fixpoint(rows, box, PropagatorConfig(max_fixpoint_rounds=1))
    assert out.budget_hit


# ---------------------------------------------------------------------------
# constructive disjunction


def disj_params():
    return DisjPolyhedralParams(
        variant="binary_selector",
        branches=(
            BranchSpec(1, 0, (StrippedRow(((0, 1.0),), 2.0),)),
            BranchSpec(
                1, 1, (StrippedRow(((0, -1.0),), -5.0), StrippedRow(((0, 1.0),), 7.0))
            ),
        ),
        selector_row=None,
        touched=(0,),
    )


def test_disjunction_envelope_upper_bound():
    box = DomainBox([0.0, 0.0], [10.0, 1.0], [True, True])
    out = propagate_disj_polyhedral(disj_params(), box)
    assert not out.cutoff
    assert box.upper[0] == 7.0
    assert box.upper[1] == 1.0  # selector stays free


def test_disjunction_kills_empty_branch_and_fixes_selector():
    box = DomainBox([0.0, 0.0], [4.0, 1.0], [True, True])
    out = propagate_disj_polyhedral(disj_params(), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0
    assert box.upper[0] == 2.0


def test_disjunction_no_viable_branch_is_cutoff():
    box = DomainBox([8.0, 0.0], [10.0, 1.0], [True, True])
    out = propagate_disj_polyhedral(disj_params(), box)
    assert out.cutoff


def test_disjunction_respects_fixed_selector():
    box = DomainBox([0.0, 1.0], [10.0, 1.0], [True, True])
    out = propagate_disj_polyhedral(disj_params(), box)
    assert not out.cutoff
    assert box.lower[0] == 5.0 and box.upper[0] == 7.0


def test_disjunction_rejects_malformed_variant():
    params = DisjPolyhedralParams(
        variant="binary_selector",
        branches=(
            BranchSpec(1, 1, (StrippedRow(((0, 1.0),), 2.0),)),
            BranchSpec(2, 1, (StrippedRow(((0, 1.0),), 7.0),)),
        ),
        selector_row=None,
        touched=(0,),
    )
    box = DomainBox([0.0, 0.0, 0.0], [10.0, 1.0, 1.0], [True, True, True])
    out = propagate_disj_polyhedral(params, box)
    assert not out.bound_changes and not out.cutoff


# ---------------------------------------------------------------------------
# channel


def test_channel_out_of_range_indicators_zeroed():
    params = ChannelParams(
        link_var=5,
        indicators=((1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3), (5.0, 4)),
    )
    record = SemanticRecord(Family.CHANNEL, (5, 0, 1, 2, 3, 4), params, (0,))
    box = binary_box(5, extra=[(2.0, 3.0, True)])
    out = propagate_on_binaries(record, box)
    assert not out.cutoff
    assert box.upper[0] == 0.0 and box.upper[3] == 0.0 and box.upper[4] == 0.0
    assert box.upper[1] == 1.0 and box.upper[2] == 1.0


def test_channel_indicator_fix_pins_link_var():
    params = ChannelParams(link_var=3, indicators=((2.0, 0), (4.0, 1), (7.0, 2)))
    record = SemanticRecord(Family.CHANNEL, (3, 0, 1, 2), params, (0,))
    box = binary_box(3, extra=[(0.0, 9.0, True)])
    box.lower[1] = 1.0
    out = propagate_on_binaries(record, box)
    assert not out.cutoff
    assert (box.lower[3], box.upper[3]) == (4.0, 4.0)
    assert box.upper[0] == 0.0 and box.upper[2] == 0.0


def test_channel_empty_support_cutoff():
    params = ChannelParams(link_var=2, indicators=((2.0, 0), (4.0, 1)))
    record = SemanticRecord(Family.CHANNEL, (2, 0, 1), params, (0,))
    box = binary_box(2, extra=[(8.0, 9.0, True)])
    out = propagate_on_binaries(record, box)
    assert out.cutoff


# ---------------------------------------------------------------------------
# detect-only families: the evidence rows alone apply the family rule


def rows_of(*specs):
    """Rows from (terms, lhs, rhs) triples, numbered in order."""
    return [
        LinearRow(i, f"r{i}", terms, lhs, rhs) for i, (terms, lhs, rhs) in enumerate(specs)
    ]


def all_different_rows():
    # 2x2 grid, item rows exact-one, value columns at-most-one
    return rows_of(
        (((0, 1.0), (1, 1.0)), 1.0, 1.0),
        (((2, 1.0), (3, 1.0)), 1.0, 1.0),
        (((0, 1.0), (2, 1.0)), -INF, 1.0),
        (((1, 1.0), (3, 1.0)), -INF, 1.0),
    )


def test_all_different_value_consumption():
    box = binary_box(4)
    box.lower[0] = 1.0  # item 1 takes value 1
    out = propagate_block_fixpoint(all_different_rows(), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0  # item 1 done
    assert box.upper[2] == 0.0  # value 1 consumed
    assert box.lower[3] == 1.0  # forced completion


def test_all_different_duplicate_fix_cutoff():
    box = binary_box(4)
    box.lower[0] = 1.0
    box.lower[2] = 1.0  # same value claimed twice
    out = propagate_block_fixpoint(all_different_rows(), box)
    assert out.cutoff


def test_cardinality_tight_lower_fixes_rest():
    rows = rows_of((((0, 1.0), (1, 1.0), (2, 1.0)), 2.0, 2.0))
    box = binary_box(3)
    box.upper[0] = 0.0
    out = propagate_block_fixpoint(rows, box)
    assert not out.cutoff
    assert box.lower[1] == 1.0 and box.lower[2] == 1.0


def test_cardinality_overcommitment_cutoff():
    rows = rows_of((((0, 1.0), (1, 1.0), (2, 1.0)), 0.0, 1.0))
    box = binary_box(3)
    box.lower[0] = 1.0
    box.lower[1] = 1.0
    out = propagate_block_fixpoint(rows, box)
    assert out.cutoff


def test_cumulative_timetable_elimination():
    # two unit-demand tasks of length 2 on 4 periods, capacity 1: each task
    # starts at period 0 or period 2, so the feasible schedules are disjoint
    rows = rows_of(
        (((0, 1.0), (1, 1.0)), 1.0, 1.0),  # task starts, exactly one each
        (((2, 1.0), (3, 1.0)), 1.0, 1.0),
        (((0, 1.0), (2, 1.0)), -INF, 1.0),  # periods 0-1
        (((1, 1.0), (3, 1.0)), -INF, 1.0),  # periods 2-3
    )
    box = binary_box(4)
    box.lower[0] = 1.0  # task 1 starts at period 0, occupies 0-1
    out = propagate_block_fixpoint(rows, box)
    assert not out.cutoff
    assert box.upper[2] == 0.0  # task 2 cannot also start at period 0
    assert box.lower[3] == 1.0  # only start left


def test_cumulative_overload_cutoff():
    rows = rows_of((((0, 2.0), (1, 2.0)), -INF, 3.0))
    box = binary_box(2)
    box.lower[0] = 1.0
    box.lower[1] = 1.0
    out = propagate_block_fixpoint(rows, box)
    assert out.cutoff


def test_nvalue_count_bounds():
    # vars 0..3 pickers for values 1,2; 7 and 9 pickers for value 3;
    # 4, 5, 6 say a value is used and 8 counts them
    items = (((4, 0), (5, 1), (6, 7)), ((4, 2), (5, 3), (6, 9)))
    rows = rows_of(
        *[(tuple((y, 1.0) for _, y in item), 1.0, 1.0) for item in items],
        *[(((z, 1.0), (y, -1.0)), 0.0, INF) for item in items for z, y in item],
        (((4, 1.0), (5, 1.0), (6, 1.0), (8, -1.0)), 0.0, 0.0),
    )
    box = binary_box(8, extra=[(0.0, 3.0, True), (0.0, 1.0, True)])
    box.lower[0] = 1.0  # item 1 picks value 1
    box.upper[6] = 0.0  # value 3 unavailable
    out = propagate_block_fixpoint(rows, box)
    assert not out.cutoff
    assert box.lower[4] == 1.0  # value 1 is used
    assert box.upper[7] == 0.0 and box.upper[9] == 0.0  # nobody picks value 3
    assert box.lower[8] == 1.0 and box.upper[8] == 2.0


def planted_stretch():
    # seed 0 plants min_run 2 and max_run 3 over four periods
    inst = reverse_sample(Family.STRETCH, {"periods": 4}, seed=0)
    params = inst.ground_truth.params
    assert (params.min_run, params.max_run) == (2, 3)
    return inst.model, params


def test_stretch_min_run_extension():
    model, params = planted_stretch()
    on, start = params.levels, params.run_starts
    box = DomainBox.from_model(model)
    box.lower[start[1]] = 1.0  # a run starts at period 2
    out = propagate_block_fixpoint(model.rows, box)
    assert not out.cutoff
    assert box.lower[on[1]] == 1.0 and box.lower[on[2]] == 1.0  # run covers 2 periods
    assert box.upper[on[0]] == 0.0  # fresh start means previous period off


def test_stretch_max_run_break():
    model, params = planted_stretch()
    on = params.levels
    box = DomainBox.from_model(model)
    for t in (0, 1, 2):
        box.lower[on[t]] = 1.0
    out = propagate_block_fixpoint(model.rows, box)
    assert not out.cutoff
    assert box.upper[on[3]] == 0.0  # window of four would overrun max_run=3


# ---------------------------------------------------------------------------
# dispatch and the global fixpoint


def toy_model_two_counts():
    variables = [
        Variable(i, f"b{i}", 0.0, 1.0, Integrality.BINARY) for i in range(5)
    ]
    rows = [
        LinearRow(0, "all3", ((0, 1.0), (1, 1.0), (2, 1.0)), 3.0, 3.0),
        LinearRow(1, "cap1", ((2, 1.0), (3, 1.0), (4, 1.0)), -INF, 1.0),
    ]
    return MipModel(variables, rows)


def channel_and_budget():
    # x in [1, 2] channelled to b0 (x = 1) and b1 (x = 2); b0 costs 5, b1
    # costs 1, one of them is picked, and the budget is 3
    variables = [
        Variable(0, "b0", 0.0, 1.0, Integrality.BINARY),
        Variable(1, "b1", 0.0, 1.0, Integrality.BINARY),
        Variable(2, "x", 1.0, 2.0, Integrality.INTEGER),
    ]
    model = MipModel(variables, [])
    channel = SemanticRecord(
        Family.CHANNEL, (2, 0, 1), ChannelParams(2, ((1.0, 0), (2.0, 1))), (0,)
    )
    budget = SemanticRecord(
        Family.ONE_HOT_RESOURCE,
        (0, 1),
        OneHotResourceParams(groups=(((0, 5.0), (1, 1.0)),), budget=3.0, external_min=0.0),
        (1,),
    )
    return model, channel, budget


def test_run_fixpoint_couples_records():
    model, channel, budget = channel_and_budget()
    box = DomainBox.from_model(model)
    out = run_fixpoint(model, [channel, budget], box)
    assert not out.cutoff
    assert box.upper[0] == 0.0 and box.lower[1] == 1.0
    assert box.lower[2] == box.upper[2] == 2.0
    assert out.calls >= 3  # the channel runs again after the budget acts

    # the channel alone cannot pin x
    solo = DomainBox.from_model(model)
    propagate_record(model, channel, solo)
    assert (solo.lower[2], solo.upper[2]) == (1.0, 2.0)


def test_run_fixpoint_round_budget_reported():
    # the budget record fixes b0 out in round 1, so one round cannot
    # confirm the box is stable
    model, channel, budget = channel_and_budget()
    box = DomainBox.from_model(model)
    one_round = PropagatorConfig(max_fixpoint_rounds=1)
    capped = run_fixpoint(model, [channel, budget], box, one_round)
    assert capped.domain_reductions and capped.budget_hit
    assert not run_fixpoint(model, [channel, budget], box).budget_hit


def test_every_family_has_a_handler():
    # each family either has a propagator or is explicitly detect-only
    assert HANDLED_FAMILIES | DETECT_ONLY == set(Family)
    assert not HANDLED_FAMILIES & DETECT_ONLY
    assert HANDLED_FAMILIES == {
        Family.CHANNEL,
        Family.ONE_HOT_RESOURCE,
        Family.BOTTLENECK_EXACT_ONE,
        Family.DISJ_POLYHEDRAL,
    }
    for family in Family:
        inst = reverse_sample(family, SMALL_SIZES[family], seed=0)
        box = DomainBox.from_model(inst.model)
        out = propagate_record(inst.model, inst.ground_truth, box)
        assert out.calls == (family in HANDLED_FAMILIES)
        ok, detail = verify_mod._artifact_completeness(family)
        assert ok
        assert ("detect-only" in detail) == (family in DETECT_ONLY)


def test_propagate_record_rejects_family_without_handler(monkeypatch):
    inst = reverse_sample(Family.CHANNEL, SMALL_SIZES[Family.CHANNEL], seed=0)
    model, record = inst.model, inst.ground_truth
    monkeypatch.delitem(propagate_mod._HANDLERS, Family.CHANNEL)
    with pytest.raises(ValueError, match="no propagator for Channel"):
        propagate_record(model, record, DomainBox.from_model(model))


KEPT = [f for f in Family if f in HANDLED_FAMILIES]
RETIRED = [f for f in Family if f in DETECT_ONLY]


def seeded_fixings(model, record, seed, trials):
    """Boxes with a random third of the record's integer scope fixed."""
    ints = [v for v in record.scope if model.variables[v].is_integer]
    for trial in range(trials):
        rng = random.Random(seed * 1000 + trial)
        box = DomainBox.from_model(model)
        for v in rng.sample(ints, rng.randint(1, max(1, len(ints) // 3))):
            box.fix(v, float(rng.randint(int(box.lower[v]), int(box.upper[v]))))
        yield box


@pytest.mark.parametrize("family", KEPT, ids=lambda f: f.value)
def test_kept_handlers_prune_beyond_rows(family):
    # a family keeps its propagator only while the propagator removes
    # something the all-rows fixpoint leaves
    for seed in range(6):
        inst = reverse_sample(family, seed=seed)
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=seed))):
            model, record = planted.model, planted.ground_truth
            for box in seeded_fixings(model, record, seed, 25):
                if propagate_block_fixpoint(model.rows, box).cutoff:
                    continue
                out = propagate_record(model, record, box)
                if out.domain_reductions or out.cutoff:
                    return
    pytest.fail(f"{family.value} never pruned beyond its rows")


@pytest.mark.parametrize("family", KEPT, ids=lambda f: f.value)
def test_kept_handlers_reach_fixpoint_under_run_fixpoint(family):
    # each handler makes one pass per call, so run_fixpoint's rounds alone
    # must leave a box on which one more call changes nothing
    for seed in range(6):
        inst = reverse_sample(family, seed=seed)
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=seed))):
            model, record = planted.model, planted.ground_truth
            for box in seeded_fixings(model, record, seed, 25):
                if propagate_block_fixpoint(model.rows, box).cutoff:
                    continue
                closed = run_fixpoint(model, [record], box)
                assert not closed.budget_hit
                if closed.cutoff:
                    continue
                again = propagate_record(model, record, box)
                assert again.domain_reductions == 0 and not again.cutoff


@pytest.mark.parametrize("family", RETIRED, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_only_records_leave_search_unchanged(family, seed):
    inst = reverse_sample(family, SMALL_SIZES[family], seed=seed)
    noisy = obfuscate(inst, ObfuscationConfig(seed=seed))
    config = SearchConfig(node_limit=2000)
    for planted in (inst, noisy):
        model = planted.model
        incumbent, stats = dfs_solve(model, [planted.ground_truth], config)
        base_incumbent, base = dfs_solve(model, [], config)
        assert (stats.status, stats.nodes) == (base.status, base.nodes)
        assert incumbent == base_incumbent
        assert stats.handler_calls == 0


def test_run_fixpoint_no_records_identity():
    model = toy_model_two_counts()
    box = DomainBox.from_model(model)
    out = run_fixpoint(model, [], box)
    assert not out.bound_changes and not out.cutoff and out.calls == 0


def test_outcome_serialization_shape():
    box = binary_box(4)
    out = propagate_one_hot_resource(onehot_params(), box)
    blob = outcome_to_json(out)
    assert blob["calls"] == 1
    assert blob["domain_reductions"] == 4
    assert blob["cutoffs"] == 0
    assert blob["budget_hit"] is False
    assert blob["prop_time_ms"] >= 0.0
    assert {c["side"] for c in blob["bound_changes"]} == {"lb", "ub"}


# ---------------------------------------------------------------------------
# soundness against enumeration on planted instances


def surviving_points(model, scope_vars):
    """Integer scope points that survive fixing plus a full-row fixpoint."""
    ranges = []
    for v in scope_vars:
        var = model.variables[v]
        ranges.append([float(t) for t in range(int(var.lower), int(var.upper) + 1)])
    points = []
    for combo in itertools.product(*ranges):
        point = dict(zip(scope_vars, combo))
        trial = DomainBox.from_model(model)
        for v, value in point.items():
            trial.fix(v, value)
        if not propagate_block_fixpoint(model.rows, trial).cutoff:
            points.append(point)
    return points


SMALL_SIZES = {
    Family.ALL_DIFFERENT: {"n": 3},
    Family.CARDINALITY: {"n": 5},
    Family.CHANNEL: {"values": 3},
    Family.CUMULATIVE: {"tasks": 2, "horizon": 5},
    Family.NVALUE: {"items": 2, "values": 3},
    Family.STRETCH: {"periods": 4},
    Family.ONE_HOT_RESOURCE: {"groups": 2, "options": 2},
    Family.BOTTLENECK_EXACT_ONE: {"groups": 2, "options": 2, "activators": -1},
    Family.ROSTERING_WINDOW: {"nurses": 2, "days": 3, "shifts": 2},
    Family.UNIT_COMMITMENT_RAMP: {"generators": 2, "periods": 2},
    Family.DISJ_POLYHEDRAL: {"branches": 2, "xvars": 2},
}


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_ground_truth_propagation_sound(family, seed):
    inst = reverse_sample(family, SMALL_SIZES[family], seed=seed)
    noisy = obfuscate(inst, ObfuscationConfig(seed=seed))
    for planted in (inst, noisy):
        model = planted.model
        record = planted.ground_truth
        int_scope = [v for v in record.scope if model.variables[v].is_integer]
        original = DomainBox.from_model(model)
        box = DomainBox.from_model(model)
        out = propagate_record(model, record, box)

        for i in range(len(box)):
            assert box.lower[i] >= original.lower[i]
            assert box.upper[i] <= original.upper[i]
        for change in out.bound_changes:
            assert change.new != change.old

        points = surviving_points(model, int_scope)
        if out.cutoff:
            assert not points
        else:
            for point in points:
                assert box.contains(point)
