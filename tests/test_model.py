"""Core model tests: activities, residual tightening, reduction validity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprop.model import (
    INF,
    DomainBox,
    Integrality,
    LinearRow,
    MipModel,
    Variable,
    compute_activity,
    is_valid_reduction,
    tighten_row,
)


def make_box(bounds, integer=()):
    lower = [lo for lo, _ in bounds]
    upper = [up for _, up in bounds]
    mask = [i in integer for i in range(len(bounds))]
    return DomainBox(lower, upper, mask)


def row(terms, lhs=-INF, rhs=INF, rid=0, name="r"):
    return LinearRow(rid, name, tuple(terms), lhs, rhs)


def test_activity_simple_sum():
    box = make_box([(0, 10), (2, 4)])
    act = compute_activity(row([(0, 1.0), (1, 1.0)]), box)
    assert act == (2.0, 14.0)


def test_activity_mixed_signs():
    box = make_box([(0, 3), (1, 5)])
    act = compute_activity(row([(0, 2.0), (1, -1.0)]), box)
    assert act == (-5.0, 5.0)


def test_activity_empty_row():
    box = make_box([(0, 1)])
    assert compute_activity(row([]), box) == (0.0, 0.0)


def test_activity_infinite_bounds():
    box = make_box([(0, INF), (-INF, 4)])
    act = compute_activity(row([(0, 1.0), (1, 1.0)]), box)
    assert act == (-INF, INF)
    act = compute_activity(row([(0, -2.0), (1, 1.0)]), box)
    assert act == (-INF, 4.0)


def test_tighten_upper_bound():
    box = make_box([(0, 10), (2, 4)])
    out = tighten_row(row([(0, 1.0), (1, 1.0)], lhs=0.0, rhs=5.0), box)
    assert not out.cutoff
    assert box.upper[0] == 3.0
    assert box.lower == [0.0, 2.0]
    changed = {(c.var, c.which) for c in out.bound_changes}
    assert (0, "ub") in changed


def test_tighten_detects_cutoff():
    box = make_box([(0, 3)])
    out = tighten_row(row([(0, 1.0)], lhs=4.0, rhs=INF), box)
    assert out.cutoff
    assert out.cutoffs == 1


def test_tighten_negative_coefficient():
    # -2x <= -6 forces x >= 3
    box = make_box([(0, 10)])
    out = tighten_row(row([(0, -2.0)], lhs=-INF, rhs=-6.0), box)
    assert not out.cutoff
    assert box.lower[0] == 3.0


def test_tighten_rounds_integer_bounds_inward():
    box = make_box([(0, 10)], integer={0})
    tighten_row(row([(0, 2.0)], lhs=-INF, rhs=5.0), box)
    assert box.upper[0] == 2.0  # 2.5 rounded down
    box = make_box([(0, 10)], integer={0})
    tighten_row(row([(0, 2.0)], lhs=3.0, rhs=INF), box)
    assert box.lower[0] == 2.0  # 1.5 rounded up


def test_tighten_skips_infinite_residual():
    # y unbounded below, so no finite bound for x can be derived from x+y <= 5,
    # but y's own bound follows from x's finite part.
    box = make_box([(0, 10), (-INF, INF)])
    out = tighten_row(row([(0, 1.0), (1, 1.0)], lhs=-INF, rhs=5.0), box)
    assert not out.cutoff
    assert box.upper[0] == 10.0
    assert box.upper[1] == 5.0


def test_tighten_two_sided_row_both_directions():
    box = make_box([(0, 10), (0, 10)])
    tighten_row(row([(0, 1.0), (1, 1.0)], lhs=15.0, rhs=18.0), box)
    assert box.lower == [5.0, 5.0]


def test_tighten_idempotent_on_frozen_example():
    box = make_box([(0, 10), (2, 4)])
    r = row([(0, 1.0), (1, 1.0)], lhs=0.0, rhs=5.0)
    tighten_row(r, box)
    second = tighten_row(r, box)
    assert not second.bound_changes and not second.cutoff


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


def test_model_flags_crossed_variable_bounds():
    m = MipModel([Variable(0, "x", 3.0, 1.0)], [])
    assert m.flagged_infeasible


def test_model_validates_references():
    v = Variable(0, "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        MipModel([v], [LinearRow(0, "r", ((5, 1.0),), 0.0, 1.0)])
    with pytest.raises(ValueError):
        MipModel([v], [], objective=[(3, 1.0)])


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
    """Any integer point satisfying the row survives the tightening pass."""
    n = len(coeffs)
    bounds = bounds[:n]
    lhs, rhs = float(side[0]), float(side[0] + side[1])
    box = make_box(bounds, integer=set(range(n)))
    r = row([(i, float(c)) for i, c in enumerate(coeffs)], lhs=lhs, rhs=rhs)

    import itertools

    feasible = []
    for point in itertools.product(*[range(lo, up + 1) for lo, up in bounds]):
        value = sum(c * x for c, x in zip(coeffs, point))
        if lhs <= value <= rhs:
            feasible.append(dict(enumerate(map(float, point))))

    original = box.copy()
    out = tighten_row(r, box)
    if out.cutoff:
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
    n = len(coeffs)
    bounds = bounds[:n]
    box = make_box(bounds, integer=set(range(n)))
    r = row(
        [(i, float(c)) for i, c in enumerate(coeffs)],
        lhs=float(side[0]),
        rhs=float(side[0] + side[1]),
    )
    first = tighten_row(r, box)
    if first.cutoff:
        return
    second = tighten_row(r, box)
    assert not second.bound_changes
    assert not second.cutoff
