"""Propagator tests: family rules, fixpoints, soundness against enumeration."""

import dataclasses
import itertools
import json
import random

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
    is_valid_reduction,
    set_upper,
)
from structprop.families import FAMILIES
from structprop.families.bottleneck_exact_one import ActivatorSpec, BottleneckExactOneParams
from structprop.families.channel import ChannelParams
from structprop.families.disj_polyhedral import BranchSpec, DisjPolyhedralParams
from structprop.families.one_hot_resource import OneHotResourceParams
from structprop.propagate import (
    PropagatorConfig,
    outcome_to_json,
    propagate_block_fixpoint,
    propagate_record,
    run_fixpoint,
)
from structprop.records import Family, SemanticRecord, StrippedRow
from structprop.search import SearchConfig, dfs_solve, propagate_node
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample
from structprop.verify import enumerate_feasible, verify_detector

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


def apply_rule(params, box):
    """One call of the rule for ``params``'s family, through ``propagate_record``."""
    family = next(f for f, spec in FAMILIES.items() if spec.params is type(params))
    record = SemanticRecord(family, tuple(range(len(box))), params, ())
    return propagate_on_binaries(record, box)


# ---------------------------------------------------------------------------
# one-hot resource


def onehot_params(budget=8.0, external=0.0):
    return OneHotResourceParams(
        groups=(((0, 3.0), (1, 5.0)), ((2, 4.0), (3, 7.0))),
        budget=budget,
        external_min=external,
    )


def onehot_node():
    """The two groups' exact-one rows on four binaries, with their record."""
    model = MipModel(
        [Variable(i, f"b{i}", 0.0, 1.0, Integrality.BINARY) for i in range(4)],
        rows_of((((0, 1.0), (1, 1.0)), 1.0, 1.0), (((2, 1.0), (3, 1.0)), 1.0, 1.0)),
    )
    record = SemanticRecord(Family.ONE_HOT_RESOURCE, (0, 1, 2, 3), onehot_params(), (0, 1))
    return model, record


def test_one_hot_eliminates_and_collapses():
    # the rule fixes both expensive options out; the group rows then fix
    # the survivors in
    model, record = onehot_node()
    box = DomainBox.from_model(model)
    rows, by_record = propagate_node(model, [record], box)
    assert not rows.cutoff and not by_record.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0
    assert [(c.var, c.which) for c in by_record.bound_changes] == [(1, "ub"), (3, "ub")]
    assert [(c.var, c.which) for c in rows.bound_changes] == [(0, "lb"), (2, "lb")]


def test_one_hot_budget_cutoff():
    params = OneHotResourceParams(
        groups=(((0, 3.0),), ((1, 6.0),)), budget=8.0, external_min=0.0
    )
    out = apply_rule(params, binary_box(2))
    assert out.cutoff and out.cutoffs == 1


def test_one_hot_slack_budget_is_silent():
    box = binary_box(4)
    out = apply_rule(onehot_params(budget=100.0), box)
    assert not out.bound_changes and not out.cutoff
    assert box.lower == [0.0] * 4 and box.upper == [1.0] * 4


def test_one_hot_external_floor_counts():
    # same groups, budget 8, but outside terms already cost 1: slack shrinks
    box = binary_box(4)
    out = apply_rule(onehot_params(external=1.0), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0


def test_one_hot_group_emptied_is_cutoff():
    box = binary_box(4)
    box.upper[0] = 0.0
    box.upper[1] = 0.0
    out = apply_rule(onehot_params(), box)
    assert out.cutoff


def test_one_hot_rejects_non_binary_member():
    box = binary_box(3, extra=[(0.0, 4.0, True)])
    params = OneHotResourceParams(
        groups=(((0, 3.0), (3, 5.0)), ((1, 4.0), (2, 7.0))),
        budget=8.0,
        external_min=0.0,
    )
    out = apply_rule(params, box)
    assert not out.bound_changes and not out.cutoff


def test_one_hot_idempotent():
    box = binary_box(4)
    apply_rule(onehot_params(), box)
    again = apply_rule(onehot_params(), box)
    assert not again.bound_changes and not again.cutoff


# ---------------------------------------------------------------------------
# bottleneck exact-one: detect-only, so its rows alone prune its groups

BOTTLENECK_GROUPS = (((0, 2.0), (1, 5.0)), ((2, 3.0), (3, 6.0)))


def bottleneck_instance(groups=BOTTLENECK_GROUPS, z_upper=INF, activators=None):
    """Exact-one groups over binaries under a continuous z, with their record.

    z follows the selectors; each selector with a weight gets a link row
    ``w*x - z <= 0``, and ``activators`` adds ``x - a <= 0`` per selector and
    an equality fixing how many activators are open.
    """
    n = sum(len(group) for group in groups)
    variables = [Variable(v, f"x{v}", 0.0, 1.0, Integrality.BINARY) for v in range(n)]
    variables.append(Variable(n, "z", 0.0, z_upper, Integrality.CONTINUOUS))
    specs = [(tuple((x, 1.0) for x, _ in group), 1.0, 1.0) for group in groups]
    specs += [
        (((x, w), (n, -1.0)), -INF, 0.0)
        for group in groups
        for x, w in group
        if w is not None
    ]
    if activators is not None:
        variables += [
            Variable(a, f"a{a}", 0.0, 1.0, Integrality.BINARY)
            for a in activators.activator_vars
        ]
        specs += [
            (((x, 1.0), (a, -1.0)), -INF, 0.0)
            for x, a in activators.selector_to_activator
        ]
        count = float(activators.count)
        specs.append((tuple((a, 1.0) for a in activators.activator_vars), count, count))
    rows = tuple(LinearRow(i, f"r{i}", t, lo, up) for i, (t, lo, up) in enumerate(specs))
    model = MipModel(tuple(variables), rows)
    params = BottleneckExactOneParams(n, groups, activators)
    record = SemanticRecord(
        Family.BOTTLENECK_EXACT_ONE,
        tuple(range(len(variables))),
        params,
        tuple(range(len(rows))),
    )
    return model, record


def bottleneck_search_step(model, record, box):
    """What search does at a node: the record (a no-op), then the row fixpoint."""
    before = box.copy()
    out = propagate_record(model, record, box)
    assert out.calls == 0 and not out.bound_changes and not out.cutoff
    assert (box.lower, box.upper) == (before.lower, before.upper)
    return propagate_block_fixpoint(model.rows, box)


def test_bottleneck_max_min_floor_moves_no_integer_bound():
    # the max-min floor is 3 (each group's cheapest option); the rows do not
    # derive it, and imposing it by hand tightens no selector either
    model, record = bottleneck_instance()
    box = DomainBox.from_model(model)
    out = bottleneck_search_step(model, record, box)
    assert not out.bound_changes and not out.cutoff
    assert box.lower[4] == 0.0

    box.lower[4] = 3.0
    out = bottleneck_search_step(model, record, box)
    assert not out.bound_changes and not out.cutoff
    assert box.lower[:4] == [0.0] * 4 and box.upper[:4] == [1.0] * 4


def test_bottleneck_weight_elimination_collapses_groups():
    model, record = bottleneck_instance(z_upper=4.0)
    enum = enumerate_feasible(model, record.scope)
    box = DomainBox.from_model(model)
    original = box.copy()
    out = bottleneck_search_step(model, record, box)
    assert not out.cutoff
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0
    assert is_valid_reduction(original, box, enum.mappings())


def test_bottleneck_tight_bound_is_noop_on_z():
    model, record = bottleneck_instance(groups=(((0, 4.0),), ((1, 4.0),)))
    box = DomainBox.from_model(model)
    box.lower[2] = box.upper[2] = 4.0
    out = bottleneck_search_step(model, record, box)
    assert not out.cutoff
    assert all(c.var != 2 for c in out.bound_changes)
    assert box.lower[:2] == [1.0, 1.0]


def test_bottleneck_infeasible_bound_gap():
    model, record = bottleneck_instance(z_upper=1.0)  # every weight exceeds ub(z)
    assert not enumerate_feasible(model, record.scope).feasible_points
    out = bottleneck_search_step(model, record, DomainBox.from_model(model))
    assert out.cutoff


def test_bottleneck_unknown_weights_stay_conservative():
    groups = (((0, 2.0), (1, None)), ((2, 3.0), (3, 6.0)))
    model, record = bottleneck_instance(groups=groups, z_upper=4.0)
    box = DomainBox.from_model(model)
    out = bottleneck_search_step(model, record, box)
    assert not out.cutoff
    # the unlinked selector keeps its group open; the linked group collapses
    assert box.upper[0] == box.upper[1] == 1.0 and box.lower[0] == box.lower[1] == 0.0
    assert box.upper[3] == 0.0 and box.lower[2] == 1.0


def test_bottleneck_activator_implications():
    activators = ActivatorSpec(
        selector_to_activator=((0, 5), (1, 6), (2, 5), (3, 6)),
        activator_vars=(5, 6),
        count=1,
        count_row=0,
    )
    model, record = bottleneck_instance(activators=activators)
    box = DomainBox.from_model(model)
    box.upper[6] = 0.0
    out = bottleneck_search_step(model, record, box)
    assert not out.cutoff
    # activator 6 is shut: its selectors die, groups collapse, slot 5 opens
    assert box.upper[1] == 0.0 and box.upper[3] == 0.0
    assert box.lower[0] == 1.0 and box.lower[2] == 1.0
    assert box.lower[5] == 1.0


def test_bottleneck_max_min_floor_ignores_slot_packing():
    # one open slot, two groups with disjoint cheap reach: only the shared
    # heavy slot is feasible, which neither the rows nor a max-min floor see
    activators = ActivatorSpec(
        selector_to_activator=((0, 5), (1, 7), (2, 6), (3, 7)),
        activator_vars=(5, 6, 7),
        count=1,
        count_row=0,
    )
    groups = (((0, 2.0), (1, 9.0)), ((2, 2.0), (3, 9.0)))
    model, record = bottleneck_instance(groups=groups, activators=activators)
    enum = enumerate_feasible(model, record.scope)
    assert enum.feasible_points == {(0, 1, 0, 1, 0, 0, 1)}
    box = DomainBox.from_model(model)
    original = box.copy()
    out = bottleneck_search_step(model, record, box)
    assert not out.bound_changes and not out.cutoff
    assert is_valid_reduction(original, box, enum.mappings())


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
    out = apply_rule(disj_params(), box)
    assert not out.cutoff
    assert box.upper[0] == 7.0
    assert box.upper[1] == 1.0  # selector stays free


def test_disjunction_kills_empty_branch_and_fixes_selector():
    box = DomainBox([0.0, 0.0], [4.0, 1.0], [True, True])
    out = apply_rule(disj_params(), box)
    assert not out.cutoff
    assert box.upper[1] == 0.0
    assert box.upper[0] == 2.0


def test_disjunction_no_viable_branch_is_cutoff():
    box = DomainBox([8.0, 0.0], [10.0, 1.0], [True, True])
    out = apply_rule(disj_params(), box)
    assert out.cutoff


def test_disjunction_respects_fixed_selector():
    box = DomainBox([0.0, 1.0], [10.0, 1.0], [True, True])
    out = apply_rule(disj_params(), box)
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
    out = apply_rule(params, box)
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
    # the pick-one row zeroes the other indicators; the rule pins x
    params = ChannelParams(link_var=3, indicators=((2.0, 0), (4.0, 1), (7.0, 2)))
    record = SemanticRecord(Family.CHANNEL, (3, 0, 1, 2), params, (0,))
    variables = [Variable(i, f"b{i}", 0.0, 1.0, Integrality.BINARY) for i in range(3)]
    variables.append(Variable(3, "x", 0.0, 9.0, Integrality.INTEGER))
    model = MipModel(variables, rows_of((((0, 1.0), (1, 1.0), (2, 1.0)), 1.0, 1.0)))
    box = DomainBox.from_model(model)
    box.lower[1] = 1.0
    rows, by_record = propagate_node(model, [record], box)
    assert not rows.cutoff and not by_record.cutoff
    assert (box.lower[3], box.upper[3]) == (4.0, 4.0)
    assert box.upper[0] == 0.0 and box.upper[2] == 0.0
    assert {c.var for c in by_record.bound_changes} == {3}


def test_channel_rejects_non_binary_indicator():
    # x in [2, 3] would zero the indicators of 4 and 7, but b2 ranges over [0, 4]
    params = ChannelParams(link_var=3, indicators=((2.0, 0), (4.0, 1), (7.0, 2)))
    box = binary_box(2, extra=[(0.0, 4.0, True), (2.0, 3.0, True)])
    out = apply_rule(params, box)
    assert not out.bound_changes and not out.cutoff
    box.upper[2] = 1.0  # once binary, the rule zeroes both and pins x at 2
    assert {c.var for c in apply_rule(params, box).bound_changes} == {1, 2, 3}
    assert box.upper[1] == box.upper[2] == 0.0 and box.upper[3] == 2.0


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
    model = MipModel(variables, rows_of((((0, 1.0), (1, 1.0)), 1.0, 1.0)))
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
    rows, out = propagate_node(model, [channel, budget], box)
    assert not rows.cutoff and not out.cutoff
    assert box.upper[0] == 0.0 and box.lower[1] == 1.0
    assert box.lower[2] == box.upper[2] == 2.0
    assert out.calls >= 3  # the channel runs again after the budget acts
    assert [(c.var, c.which) for c in rows.bound_changes] == [(1, "lb")]

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


def test_propagate_node_reports_its_own_round_cap(monkeypatch):
    # the row x0 - x1 <= 0 and a rule x1 <= x0.ub - 1 walk both upper bounds
    # down by one per node round, so the alternation, not either inner
    # loop, stops at the cap with the box still moving
    def walk_down(params, box, out):
        return set_upper(box, out, 1, box.upper[0] - 1.0)

    channel = dataclasses.replace(FAMILIES[Family.CHANNEL], rule=walk_down)
    monkeypatch.setitem(FAMILIES, Family.CHANNEL, channel)
    variables = [Variable(v, f"x{v}", 0.0, 1000.0, Integrality.INTEGER) for v in (0, 1)]
    model = MipModel(variables, rows_of((((0, 1.0), (1, -1.0)), -INF, 0.0)))
    record = SemanticRecord(Family.CHANNEL, (0, 1), ChannelParams(0, ((0.0, 1),)), (0,))
    box = DomainBox.from_model(model)
    rows, by_records = propagate_node(model, [record], box)
    assert box.upper == [901.0, 900.0]
    assert rows.budget_hit and not by_records.budget_hit
    assert not rows.cutoff and not by_records.cutoff


HAS_RULE = {family for family, spec in FAMILIES.items() if spec.rule is not None}


def test_every_family_has_one_spec_in_arbitration_order():
    assert sorted(family.value for family in FAMILIES) == sorted(f.value for f in Family)
    assert all(spec.family is family for family, spec in FAMILIES.items())
    assert list(FAMILIES) == list(DETECTORS)
    assert HAS_RULE == {Family.CHANNEL, Family.ONE_HOT_RESOURCE, Family.DISJ_POLYHEDRAL}
    for spec in FAMILIES.values():
        inst = reverse_sample(spec.family, SMALL_SIZES[spec.family], seed=0)
        box = DomainBox.from_model(inst.model)
        out = propagate_record(inst.model, inst.ground_truth, box)
        assert out.calls == (spec.family in HAS_RULE)
        ok, detail = verify_mod._artifact_completeness(spec, 0)
        assert ok
        assert ("detect-only" in detail) == (spec.rule is None)


KEPT = [f for f in Family if f in HAS_RULE]
RETIRED = [f for f in Family if f not in HAS_RULE]


def seeded_fixings(model, record, seed, trials):
    """Boxes with a random third of the record's integer scope fixed."""
    ints = [v for v in record.scope if model.variables[v].is_integer]
    for trial in range(trials):
        rng = random.Random(seed * 1000 + trial)
        box = DomainBox.from_model(model)
        for v in rng.sample(ints, rng.randint(1, max(1, len(ints) // 3))):
            box.fix(v, float(rng.randint(int(box.lower[v]), int(box.upper[v]))))
        yield box


def integer_bounds(model, box):
    return [(box.lower[v.id], box.upper[v.id]) for v in model.variables if v.is_integer]


def boxed(model, box):
    """``model`` with ``box`` as its declared bounds."""
    variables = [
        Variable(v.id, v.name, box.lower[v.id], box.upper[v.id], v.integrality)
        for v in model.variables
    ]
    return MipModel(variables, model.rows, model.objective, model.objective_sense)


@pytest.mark.parametrize("branches", [3, 4, 5, 6])
def test_exact_one_mode_disjunction_end_to_end(branches):
    # three or more branches plant the exact_one_mode variant: detection
    # recovers it exactly, clean and obfuscated, and its rule keeps every
    # point enumerate_feasible finds under seeded partial fixings
    acted = 0
    for seed in range(6):
        inst = reverse_sample(Family.DISJ_POLYHEDRAL, {"branches": branches}, seed=seed)
        assert inst.ground_truth.params.variant == "exact_one_mode"
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=seed))):
            model, record = planted.model, planted.ground_truth
            passed, detail = verify_detector(planted, detect_all(model).records)
            assert passed, detail
            for box in seeded_fixings(model, record, seed, 3):
                enum = enumerate_feasible(boxed(model, box), record.scope)
                assert not enum.truncated
                reduced = box.copy()
                out = propagate_record(model, record, reduced)
                assert not (out.cutoff and enum.feasible_points)
                assert is_valid_reduction(box, reduced, enum.mappings())
                acted += bool(out.domain_reductions or out.cutoff)
    assert acted


@pytest.mark.parametrize("family", KEPT, ids=lambda f: f.value)
def test_kept_handlers_prune_beyond_rows(family):
    # a family keeps its propagator only while the propagator removes
    # something search can use that the all-rows fixpoint leaves: after the
    # rule and one more row fixpoint, an integer bound moved or the box cut
    # off; tightening continuous variables alone does not count
    for seed in range(6):
        inst = reverse_sample(family, seed=seed)
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=seed))):
            model, record = planted.model, planted.ground_truth
            for box in seeded_fixings(model, record, seed, 25):
                if propagate_block_fixpoint(model.rows, box).cutoff:
                    continue
                before = integer_bounds(model, box)
                if (
                    propagate_record(model, record, box).cutoff
                    or propagate_block_fixpoint(model.rows, box).cutoff
                    or integer_bounds(model, box) != before
                ):
                    return
    pytest.fail(f"{family.value} never pruned an integer bound beyond its rows")


def exact_one_members(params):
    """The variables of the exact-one rows a kept record was detected from."""
    if isinstance(params, ChannelParams):
        return {v for _, v in params.indicators}
    if isinstance(params, OneHotResourceParams):
        return {v for group in params.groups for v, _ in group}
    if params.variant == "exact_one_mode":
        return {b.selector_var for b in params.branches}
    return set()


@pytest.mark.parametrize("family", KEPT, ids=lambda f: f.value)
def test_kept_rules_leave_exact_one_closing_to_rows(family):
    # fixing the last live member of an exact-one group in is the group
    # row's residual-activity step, so a rule never raises such a lower bound
    for seed in range(6):
        inst = reverse_sample(family, seed=seed)
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=seed))):
            model, record = planted.model, planted.ground_truth
            members = exact_one_members(record.params)
            for box in seeded_fixings(model, record, seed, 25):
                if propagate_block_fixpoint(model.rows, box).cutoff:
                    continue
                out = propagate_record(model, record, box)
                raised = [c.var for c in out.bound_changes if c.which == "lb"]
                assert not members.intersection(raised)


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
    # the record's share of one node step: its first call fixes two options
    # out, and it then finds the box stable twice, once in the same
    # run_fixpoint and once after the group rows fix the survivors in
    model, record = onehot_node()
    _, out = propagate_node(model, [record], DomainBox.from_model(model))
    blob = outcome_to_json(out)
    assert blob["calls"] == 3
    assert blob["domain_reductions"] == 2
    assert blob["cutoffs"] == 0
    assert blob["budget_hit"] is False
    assert blob["prop_time_ms"] >= 0.0
    assert {c["side"] for c in blob["bound_changes"]} == {"ub"}


def test_integer_rounded_bounds_stay_floats():
    # fixing the channel's integer variable makes the rows round binaries to 0 and 1
    inst = reverse_sample(Family.CHANNEL, seed=0)
    box = DomainBox.from_model(inst.model)
    box.upper[0] = box.lower[0]
    out = propagate_block_fixpoint(inst.model.rows, box)
    assert out.bound_changes and not out.cutoff
    assert all(type(c.new) is float for c in out.bound_changes)
    text = json.dumps(outcome_to_json(out))
    assert '"new": 0.0' in text and '"new": 0,' not in text and '"new": 0}' not in text


# ---------------------------------------------------------------------------
# soundness against enumeration on planted instances


def surviving_points(model, scope_vars, box):
    """Integer scope points in ``box`` that survive fixing plus a full-row fixpoint."""
    ranges = [
        [float(t) for t in range(int(box.lower[v]), int(box.upper[v]) + 1)]
        for v in scope_vars
    ]
    points = []
    for combo in itertools.product(*ranges):
        point = dict(zip(scope_vars, combo))
        trial = box.copy()
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
    Family.ONE_HOT_RESOURCE: {"groups": 2, "options": 3},
    Family.BOTTLENECK_EXACT_ONE: {"groups": 2, "options": 2, "activators": -1},
    Family.ROSTERING_WINDOW: {"nurses": 2, "days": 3, "shifts": 2},
    Family.UNIT_COMMITMENT_RAMP: {"generators": 2, "periods": 2},
    Family.DISJ_POLYHEDRAL: {"branches": 2, "xvars": 2},
}


def check_sound(model, record, box):
    """Propagate ``record`` on ``box``; every surviving scope point must stay.

    Returns whether the call reduced a bound or cut off.
    """
    int_scope = [v for v in record.scope if model.variables[v].is_integer]
    points = surviving_points(model, int_scope, box)
    reduced = box.copy()
    out = propagate_record(model, record, reduced)
    # propagate_record alone accounts for a call, and a detect-only one is empty
    if record.family not in HAS_RULE:
        assert out == PropagationOutcome()
    else:
        assert out.calls == 1 and out.prop_time >= 0.0 and not out.budget_hit
        assert out.cutoffs == (1 if out.cutoff else 0)

    for i in range(len(box)):
        assert reduced.lower[i] >= box.lower[i]
        assert reduced.upper[i] <= box.upper[i]
    for change in out.bound_changes:
        assert change.new != change.old

    if out.cutoff:
        assert not points
    else:
        for point in points:
            assert reduced.contains(point)
    return bool(out.domain_reductions or out.cutoff)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_ground_truth_propagation_sound(family, seed):
    # the root box of every family and, for the handled families, seeded
    # partial fixings the row fixpoint leaves open; seed 0 runs seeds 0, 2, 4
    # and seed 1 runs seeds 1, 3, 5
    acted = 0
    for s in (seed, seed + 2, seed + 4):
        inst = reverse_sample(family, SMALL_SIZES[family], seed=s)
        for planted in (inst, obfuscate(inst, ObfuscationConfig(seed=s))):
            model, record = planted.model, planted.ground_truth
            check_sound(model, record, DomainBox.from_model(model))
            if family not in HAS_RULE:
                continue
            for box in seeded_fixings(model, record, s, 25):
                if not propagate_block_fixpoint(model.rows, box).cutoff:
                    acted += check_sound(model, record, box)
    # a handled family's rule must act in some box, or the check is empty
    assert acted or family not in HAS_RULE
