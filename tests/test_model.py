"""Core model tests: activities, residual tightening, reduction validity."""

import dataclasses
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structprop.model as model_mod
from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    PropagationOutcome,
    Variable,
    activity_range,
    is_valid_reduction,
    tighten_row,
)
from structprop.propagate import propagate_block_fixpoint


def make_box(bounds, integer=()):
    lower = [lo for lo, _ in bounds]
    upper = [up for _, up in bounds]
    mask = [i in integer for i in range(len(bounds))]
    return DomainBox(lower, upper, mask)


def row(terms, lhs=-INF, rhs=INF, rid=0, name="r"):
    return LinearRow(rid, name, tuple(terms), lhs, rhs)


def test_activity_simple_sum():
    box = make_box([(0, 10), (2, 4)])
    act = activity_range(row([(0, 1.0), (1, 1.0)]).terms, box)
    assert act == (2.0, 14.0)


def test_activity_mixed_signs():
    box = make_box([(0, 3), (1, 5)])
    act = activity_range(row([(0, 2.0), (1, -1.0)]).terms, box)
    assert act == (-5.0, 5.0)


def test_activity_empty_row():
    box = make_box([(0, 1)])
    assert activity_range(row([]).terms, box) == (0.0, 0.0)


def test_activity_infinite_bounds():
    box = make_box([(0, INF), (-INF, 4)])
    act = activity_range(row([(0, 1.0), (1, 1.0)]).terms, box)
    assert act == (-INF, INF)
    act = activity_range(row([(0, -2.0), (1, 1.0)]).terms, box)
    assert act == (-INF, 4.0)


def test_tighten_upper_bound():
    box = make_box([(0, 10), (2, 4)])
    out = PropagationOutcome()
    assert not tighten_row(row([(0, 1.0), (1, 1.0)], lhs=0.0, rhs=5.0), box, out)
    assert box.upper[0] == 3.0
    assert box.lower == [0.0, 2.0]
    changed = {(c.var, c.which) for c in out.bound_changes}
    assert (0, "ub") in changed


def test_tighten_detects_cutoff():
    box = make_box([(0, 3)])
    out = PropagationOutcome()
    assert tighten_row(row([(0, 1.0)], lhs=4.0, rhs=INF), box, out)
    # the caller owns the counters; the kernel only records bound changes
    assert not out.cutoff and out.cutoffs == 0 and out.calls == 0


def test_tighten_negative_coefficient():
    # -2x <= -6 forces x >= 3
    box = make_box([(0, 10)])
    assert not tighten_row(row([(0, -2.0)], lhs=-INF, rhs=-6.0), box, PropagationOutcome())
    assert box.lower[0] == 3.0


def test_tighten_rounds_integer_bounds_inward():
    box = make_box([(0, 10)], integer={0})
    tighten_row(row([(0, 2.0)], lhs=-INF, rhs=5.0), box, PropagationOutcome())
    assert box.upper[0] == 2.0  # 2.5 rounded down
    box = make_box([(0, 10)], integer={0})
    tighten_row(row([(0, 2.0)], lhs=3.0, rhs=INF), box, PropagationOutcome())
    assert box.lower[0] == 2.0  # 1.5 rounded up


def test_tighten_skips_infinite_residual():
    # y unbounded below, so no finite bound for x can be derived from x+y <= 5,
    # but y's own bound follows from x's finite part.
    box = make_box([(0, 10), (-INF, INF)])
    assert not tighten_row(
        row([(0, 1.0), (1, 1.0)], lhs=-INF, rhs=5.0), box, PropagationOutcome()
    )
    assert box.upper[0] == 10.0
    assert box.upper[1] == 5.0


def test_tighten_two_sided_row_both_directions():
    box = make_box([(0, 10), (0, 10)])
    tighten_row(row([(0, 1.0), (1, 1.0)], lhs=15.0, rhs=18.0), box, PropagationOutcome())
    assert box.lower == [5.0, 5.0]


def test_tighten_idempotent_on_frozen_example():
    # one tighten_row pass need not be stable; the block fixpoint repeats it
    box = make_box([(0, 10), (2, 4)])
    r = row([(0, 1.0), (1, 1.0)], lhs=0.0, rhs=5.0)
    propagate_block_fixpoint([r], box)
    second = propagate_block_fixpoint([r], box)
    assert not second.bound_changes and not second.cutoff


def test_tighten_makes_one_pass_and_the_block_fixpoint_repeats_it():
    # 2x0 + 2x1 = 13 has no integer point.  One pass reads the activity
    # [8, 32] once: x0 <= (13 - 2) / 2 = 5.5 -> 5 and x1 <= (13 - 6) / 2 = 3.5
    # -> 3, with no cutoff.  Later passes round inward until the activity
    # is [12, 12], which misses 13: only the block fixpoint gets there.
    r = row([(0, 2.0), (1, 2.0)], lhs=13.0, rhs=13.0)
    box = make_box([(3, 9), (1, 7)], integer={0, 1})
    assert not tighten_row(r, box, PropagationOutcome())
    assert (box.lower, box.upper) == ([3, 1], [5, 3])
    box = make_box([(3, 9), (1, 7)], integer={0, 1})
    assert propagate_block_fixpoint([r], box).cutoff


def test_tighten_never_divides_by_a_coefficient_below_the_floor():
    # dividing by 1e-12 would raise x0 to 5e11; COEFF_FLOOR skips that term
    box = make_box([(0, 1e13), (0, 0.5)])
    assert not tighten_row(
        row([(0, 1e-12), (1, 1.0)], lhs=1.0, rhs=INF), box, PropagationOutcome()
    )
    assert box.lower[0] == 0.0


def test_valid_reduction_checks_containment():
    original = make_box([(0, 10), (0, 10)])
    reduced = make_box([(0, 3), (0, 10)])
    assert is_valid_reduction(original, reduced, [{0: 2.0, 1: 9.0}])
    assert not is_valid_reduction(original, reduced, [{0: 4.0}])
    grown = make_box([(0, 11), (0, 10)])
    assert not is_valid_reduction(original, grown, [])


def test_valid_reduction_empty_box():
    original = make_box([(0, 1)])
    empty = make_box([(1, 0)])
    assert is_valid_reduction(original, empty, [])
    assert not is_valid_reduction(original, empty, [{0: 0.0}])


def test_valid_reduction_dimension_mismatch():
    with pytest.raises(ValueError):
        is_valid_reduction(make_box([(0, 1)]), make_box([(0, 1), (0, 1)]), [])


def test_row_rejects_duplicates_and_drops_zeros():
    with pytest.raises(ValueError):
        row([(0, 1.0), (0, 2.0)])
    r = row([(0, 1.0), (1, 0.0)])
    assert r.terms == ((0, 1.0),)


def test_row_rejects_crossed_sides():
    with pytest.raises(ValueError):
        row([(0, 1.0)], lhs=2.0, rhs=1.0)


def test_row_rejects_non_finite_coefficients_and_nan_sides():
    for bad in (INF, -INF, math.nan):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            row([(0, bad)], rhs=1.0)
    for sides in ({"lhs": math.nan}, {"rhs": math.nan}):
        with pytest.raises(ValueError, match="NaN side"):
            row([(0, 1.0)], **sides)
    assert (row([(0, 1.0)]).lhs, row([(0, 1.0)]).rhs) == (-INF, INF)


def test_row_layout_is_canonical_in_any_term_order():
    terms = [(4, -2.0), (0, 3.0), (7, 0.5), (2, 1.0)]
    reference = row(terms, lhs=-1.0, rhs=6.0)
    assert reference.vars == (0, 2, 4, 7)
    assert reference.coeffs == (3.0, 1.0, -2.0, 0.5)
    for order in itertools.permutations(terms + [(1, 0.0), (9, 0)]):
        again = row(order, lhs=-1.0, rhs=6.0)
        assert again == reference
        assert hash(again) == hash(reference)
        assert again.terms == tuple(zip(again.vars, again.coeffs))
        assert all(a < b for a, b in zip(again.vars, again.vars[1:]))
    assert row(terms, lhs=-1.0, rhs=7.0) != reference


def test_row_is_immutable_and_terms_are_built_on_demand():
    r = row([(1, 2.0), (0, 1.0)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.vars = (5,)
    assert r.terms == ((0, 1.0), (1, 2.0))
    assert r.terms is not r.terms  # never cached on the row
    assert [f.name for f in dataclasses.fields(LinearRow)] == [
        "id", "name", "vars", "coeffs", "lhs", "rhs",
    ]


def test_row_error_messages_are_unchanged():
    cases = [
        (dict(terms=[(0, 1.0), (0, 2.0)]), "row 'r': duplicate variable id 0"),
        (dict(terms=[(3, INF)]), "row 'r': non-finite coefficient inf on 3"),
        # terms are checked in order, so the first bad one names the fault
        (dict(terms=[(0, INF), (1, 1.0), (1, 2.0)]), "row 'r': non-finite coefficient inf on 0"),
        (dict(terms=[(1, 1.0), (1, 2.0), (0, INF)]), "row 'r': duplicate variable id 1"),
        (dict(terms=[(0, 1.0)], lhs=2.0, rhs=1.0), "row 'r': lhs 2.0 > rhs 1.0"),
        (dict(terms=[(0, 1.0)], lhs=math.nan), "row 'r': NaN side"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as excinfo:
            row(**kwargs)
        assert str(excinfo.value) == message


def test_row_accepts_finite_coefficients_whose_sum_overflows():
    assert row([(0, 1e308), (1, 1e308)]).coeffs == (1e308, 1e308)


def test_rows_share_small_integer_coefficients():
    a = row([(0, 3.0), (1, 2.5)])
    b = row([(5, 3), (6, 2.5)])  # an int coefficient maps to the same float
    assert a.coeffs[0] is b.coeffs[0]
    assert type(b.coeffs[0]) is float and b.coeffs == (3.0, 2.5)
    assert row([(0, 300.0)]).coeffs == (300.0,)  # outside the table: kept as is


def test_row_sides_are_stored_as_floats():
    r = row([(0, 1.0)], lhs=-2, rhs=5)
    assert (r.lhs, r.rhs) == (-2.0, 5.0)
    assert type(r.lhs) is float and type(r.rhs) is float


def test_row_and_variable_reject_sides_at_the_wrong_infinity():
    for sides in ({"lhs": INF}, {"rhs": -INF}, {"lhs": INF, "rhs": INF}, {"lhs": -INF, "rhs": -INF}):
        with pytest.raises(ValueError, match="wrong infinity"):
            row([(0, 1.0)], **sides)
    for lower, upper in ((INF, INF), (-INF, -INF), (0.0, -INF)):
        with pytest.raises(ValueError, match="wrong infinity"):
            Variable(0, "x", lower, upper)
    assert Variable(0, "x", -INF, INF).lower == -INF


def test_row_storage_per_nonzero_is_two_slots():
    # 2000 rows of 10 terms with small integer coefficients, names included;
    # a (var, coeff) pair tuple per nonzero costs about 100 bytes, the
    # flat vars/coeffs layout with shared floats under 50
    n_rows, width = 2000, 10
    inputs = [
        [(j * 3 + i % 3, (i + j) % 7 - 3 or 5) for j in range(width)] for i in range(n_rows)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [LinearRow(i, f"r{i}", terms, -INF, 10.0) for i, terms in enumerate(inputs)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(r.terms) for r in rows) == n_rows * width
    assert used / (n_rows * width) < 64


def test_small_integers_zeros_and_infinities_are_shared_objects():
    inf, ninf = float("inf"), -float("inf")  # fresh objects, not math.inf
    a = row([(0, 1.0)], lhs=ninf, rhs=3)
    b = row([(1, 2.0)], lhs=-INF, rhs=3.0)
    assert a.lhs is b.lhs and a.rhs is b.rhs
    c = row([(0, 1.0)], lhs=0, rhs=inf)
    d = row([(1, 1.0)], lhs=0.0, rhs=INF)
    assert c.lhs is d.lhs and c.rhs is d.rhs
    x = Variable(0, "x", 0, inf)
    y = Variable(1, "y", 0.0, float("inf"), Integrality.INTEGER)
    z = Variable(2, "z", -256, 256.0)
    w = Variable(3, "w", -256.0, 256)
    assert x.lower is y.lower and x.upper is y.upper
    assert z.lower is w.lower and z.upper is w.upper
    model = MipModel([x, y, z, w], [], [(0, 2), (1, 2.0), (2, -7), (3, -7.0)])
    (_, c0), (_, c1), (_, c2), (_, c3) = model.objective
    assert c0 is c1 and c2 is c3 and (c0, c2) == (2.0, -7.0)


def test_stored_values_equal_their_inputs_and_keep_the_sign_of_zero():
    values = [0, 0.0, -0.0, 3, -3.0, 256, -256.0, 257.0, 2.5, -1e300, 1e-12, INF, -INF]
    for value in values:
        stored = model_mod.shared_float(value)
        assert type(stored) is float and stored == value
        assert math.copysign(1.0, stored) == math.copysign(1.0, value)
    for value in values:
        sides = [row([(0, 1.0)], lhs=value).lhs] if value != INF else []
        sides += [row([(0, 1.0)], rhs=value).rhs] if value != -INF else []
        bounds = [Variable(0, "x", value, INF).lower] if value != INF else []
        bounds += [Variable(0, "x", -INF, value).upper] if value != -INF else []
        for stored in sides + bounds:
            assert stored == value
            assert math.copysign(1.0, stored) == math.copysign(1.0, value)
    flipped = row([(0, -1.0)], lhs=-0.0, rhs=5.0)  # a sign-flipped "x <= 0" row
    assert math.copysign(1.0, flipped.lhs) == -1.0
    assert math.copysign(1.0, row([(0, 1.0)], rhs=0.0).rhs) == 1.0


def test_rows_with_equal_coefficient_patterns_share_one_tuple():
    a = row([(0, 1.0), (1, -2.0), (2, 0.5)])
    b = row([(7, 0.5), (5, -2), (3, 1)])  # same pattern once sorted by variable
    assert a.coeffs is b.coeffs and a.coeffs == (1.0, -2.0, 0.5)
    assert row([(1, 1.0), (0, -2.0)]).coeffs == (-2.0, 1.0)  # order is part of the pattern
    longest = [(j, 1.0) for j in range(model_mod.PATTERN_MAX_LEN)]
    assert row(longest).coeffs is row(longest).coeffs
    longer = [(j, 1.0) for j in range(model_mod.PATTERN_MAX_LEN + 1)]
    assert row(longer).coeffs is not row(longer).coeffs  # too long to intern
    assert row(longer).coeffs == row(longer).coeffs


def test_full_intern_table_admits_no_new_patterns(monkeypatch):
    monkeypatch.setattr(model_mod, "_PATTERNS", {})
    limit = model_mod.PATTERN_LIMIT
    first = [row([(0, k + 0.5)]) for k in range(limit + 10)]
    assert len(model_mod._PATTERNS) == limit
    assert all(r.coeffs == (k + 0.5,) for k, r in enumerate(first))

    late_a = row([(0, 0.25), (1, 7.0)], lhs=1, rhs=4, rid=1, name="late_a")
    late_b = row([(4, 7.0), (2, 0.25)], lhs=-INF, rhs=9.0)
    assert len(model_mod._PATTERNS) == limit
    assert late_a.coeffs == late_b.coeffs == (0.25, 7.0)
    assert late_a.coeffs is not late_b.coeffs  # not admitted, so not shared
    assert (late_a.id, late_a.name, late_a.vars, late_a.lhs, late_a.rhs) == (
        1, "late_a", (0, 1), 1.0, 4.0,
    )
    assert late_b.vars == (2, 4) and (late_b.lhs, late_b.rhs) == (-INF, 9.0)
    admitted = row([(3, 0.5)])  # admitted before the table filled up
    assert admitted.coeffs is first[0].coeffs
    assert first[-1].coeffs is not row([(0, limit + 9.5)]).coeffs


def test_repeated_patterns_and_integer_sides_cost_no_storage_per_row():
    # 2000 rows of 3 terms over 4 small-integer patterns with integer sides;
    # a row with its own coeffs tuple and side floats takes about 290 bytes,
    # one that shares them about 180
    patterns = [(1, 1, 1), (1, -1, 2), (2, 3, -1), (-1, -1, 1)]
    n_rows = 2000
    inputs = [
        ([(3 * i + j, c) for j, c in enumerate(patterns[i % 4])], i % 3 - 5, i % 4 + 1)
        for i in range(n_rows)
    ]
    names = [f"r{i}" for i in range(n_rows)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [
            LinearRow(i, names[i], terms, lhs, rhs)
            for i, (terms, lhs, rhs) in enumerate(inputs)
        ]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len({id(r.coeffs) for r in rows}) == len(patterns)
    assert used / n_rows < 230


def test_variable_rejects_nan_bounds():
    for lower, upper in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="NaN bound"):
            Variable(0, "x", lower, upper)
    assert Variable(0, "x", -INF, INF).upper == INF


def test_model_rejects_non_finite_objective():
    v = Variable(0, "x", 0.0, 1.0)
    for bad in (INF, -INF, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            MipModel([v], [], objective=[(0, bad)])


def test_binary_variable_bounds_enforced():
    with pytest.raises(ValueError):
        Variable(0, "b", 0.0, 2.0, Integrality.BINARY)


def test_box_from_model_rounds_integer_bounds_inward():
    variables = [
        Variable(0, "x", 0.5, 2.0, Integrality.INTEGER),
        Variable(1, "y", 0.2, 0.8, Integrality.INTEGER),
        Variable(2, "z", -INF, 3.0 + 1e-7, Integrality.INTEGER),
        Variable(3, "w", 0.5, 2.5),
    ]
    box = DomainBox.from_model(MipModel(variables, []))
    assert box.lower == [1.0, 1.0, -INF, 0.5]
    assert box.upper == [2.0, 0.0, 3.0, 2.5]
    assert box.is_empty()  # y holds no integer


def test_model_validates_references():
    v = Variable(0, "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        MipModel([v], [LinearRow(0, "r", ((5, 1.0),), 0.0, 1.0)])
    with pytest.raises(ValueError):
        MipModel([v], [], objective=[(3, 1.0)])


def test_model_rejects_ids_out_of_position_and_an_unknown_sense():
    x, y = Variable(0, "x", 0.0, 1.0), Variable(1, "y", 0.0, 1.0)
    row = LinearRow(0, "r", ((0, 1.0),), 0.0, 1.0)
    with pytest.raises(ValueError, match="variable 'y' has id 1, expected 0"):
        MipModel([y, x], [])
    with pytest.raises(ValueError, match="row 'r' has id 0, expected 1"):
        MipModel([x], [row, row])
    with pytest.raises(ValueError, match="objective sense must be 'min' or 'max', got 'MAX'"):
        MipModel([x], [row], objective_sense="MAX")


def test_box_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="lower/upper length mismatch"):
        DomainBox([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="integer mask length mismatch"):
        DomainBox([0.0], [1.0], [True, False])


def test_model_rejects_duplicate_objective_entries():
    # search summed the two entries while write_mps kept the last one
    x = Variable(0, "x", 0.0, 1.0, Integrality.BINARY)
    r = LinearRow(0, "r", ((0, 1.0),), -INF, 1.0)
    with pytest.raises(ValueError, match="duplicate objective entry for variable 0"):
        MipModel([x], [r], [(0, 1.0), (0, 2.0)])
    with pytest.raises(ValueError, match="duplicate objective entry"):
        MipModel([x], [r], [(0, 0.0), (0, 2.0)])  # a zero entry counts too
    assert MipModel([x], [r], [(0, 2.0)]).objective == ((0, 2.0),)


def test_model_keeps_a_generator_objective():
    # validation must not consume a one-shot iterable before it is stored
    x = Variable(0, "x", 0.0, 1.0)
    objective = ((v, c) for v, c in [(0, 3.0)])
    assert MipModel([x], [], objective).objective == ((0, 3.0),)


coeff_st = st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0)
bound_pair_st = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=6)
).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(coeff_st, min_size=1, max_size=4),
    bounds=st.lists(bound_pair_st, min_size=4, max_size=4),
    side=st.tuples(
        st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=15)
    ),
)
def test_tighten_never_cuts_feasible_corner(coeffs, bounds, side):
    """Any integer point satisfying the row survives one tightening pass and
    the one-row block fixpoint."""
    n = len(coeffs)
    bounds = bounds[:n]
    lhs, rhs = float(side[0]), float(side[0] + side[1])
    original = make_box(bounds, integer=set(range(n)))
    r = row([(i, float(c)) for i, c in enumerate(coeffs)], lhs=lhs, rhs=rhs)

    feasible = []
    for point in itertools.product(*[range(lo, up + 1) for lo, up in bounds]):
        value = sum(c * x for c, x in zip(coeffs, point))
        if lhs <= value <= rhs:
            feasible.append(dict(enumerate(map(float, point))))

    def one_pass(r, box):
        return tighten_row(r, box, PropagationOutcome())

    def block(r, box):
        return propagate_block_fixpoint([r], box).cutoff

    for tighten in (one_pass, block):
        box = original.copy()
        if tighten(r, box):
            assert not feasible
        else:
            assert is_valid_reduction(original, box, feasible)


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(coeff_st, min_size=1, max_size=4),
    bounds=st.lists(bound_pair_st, min_size=4, max_size=4),
    side=st.tuples(
        st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=15)
    ),
)
def test_tighten_is_idempotent(coeffs, bounds, side):
    """The one-row block fixpoint is stable; a single pass need not be."""
    n = len(coeffs)
    bounds = bounds[:n]
    box = make_box(bounds, integer=set(range(n)))
    r = row(
        [(i, float(c)) for i, c in enumerate(coeffs)],
        lhs=float(side[0]),
        rhs=float(side[0] + side[1]),
    )
    first = propagate_block_fixpoint([r], box)
    if first.cutoff:
        return
    second = propagate_block_fixpoint([r], box)
    assert not second.bound_changes
    assert not second.cutoff
