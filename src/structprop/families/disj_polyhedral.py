"""DisjPolyhedral: big-M guarded row bundles forming an either-or over shared
variables, in two encodings: one binary guard whose two values select the
arms (``binary_selector``), or one mode binary per arm closed by an
exact-one row (``exact_one_mode``)."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from ..rowview import ModelView
from ..model import (
    FEAS_TOL, INF, DomainBox, LinearRow, PropagationOutcome, activity_range, set_lower,
    set_upper,
)
from ..propagate import _all_binary, _live, propagate_block_fixpoint
from ..records import Family, Row, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class StrippedRow:
    """A branch row with its guard term removed: sum(terms) <= bound."""

    terms: Unordered[tuple[Var, float]]
    bound: float


@dataclass(frozen=True, slots=True)
class BranchSpec:
    selector_var: Var
    selector_value: int
    rows: Unordered[StrippedRow]


@dataclass(frozen=True, slots=True)
class DisjPolyhedralParams:
    """``exact_one_mode`` exactly when ``selector_row`` is set; the touched
    variables are those of the branch rows."""

    branches: Unordered[BranchSpec]
    selector_row: Row | None  # the exact-one row of the modes


def detect_disj_polyhedral(view: ModelView, config) -> list[SemanticRecord]:
    """Big-M guarded row bundles forming an either-or over shared variables."""
    candidates: dict[int, dict[int, list]] = defaultdict(lambda: {1: [], 0: []})
    for facet in view.facets:
        bins = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if view.is_binary[v]]
        rest = [(v, c) for v, c in zip(facet.vars, facet.coeffs) if not view.is_binary[v]]
        if len(bins) != 1 or not rest:
            continue
        guard, big_m = bins[0]
        slack_bound = facet.bound - min(big_m, 0.0)
        if activity_range(rest, view.box)[1] > slack_bound + FEAS_TOL:
            continue  # the guard does not fully relax this row
        if big_m > 0:
            candidates[guard][1].append((facet.row, tuple(rest), facet.bound - big_m))
        else:
            candidates[guard][0].append((facet.row, tuple(rest), facet.bound))

    records = []
    used: set[int] = set()
    for u in view.exact_ones:
        selectors = u.support
        if not 2 <= len(selectors) <= 6 or used & set(selectors):
            continue
        if not all(candidates[y][1] for y in selectors):
            continue
        arms = [(y, 1, candidates[y][1]) for y in sorted(selectors)]
        record = _disj_record(arms, u.row)
        if record is not None:
            records.append(record)
            used.update(selectors)

    for guard in sorted(candidates):
        if guard in used or guard in view.exact_one_of:
            continue
        on_rows = candidates[guard][1]
        off_rows = candidates[guard][0]
        if not on_rows or not off_rows:
            continue
        record = _disj_record([(guard, 1, on_rows), (guard, 0, off_rows)], None)
        if record is not None:
            records.append(record)
            used.add(guard)
    return records


def _disj_record(arms, selector_row: int | None) -> SemanticRecord | None:
    """The record of guarded ``(selector, value, candidate rows)`` arms.

    A selector row makes it ``exact_one_mode``, else ``binary_selector``.
    None when no arm holds a row over two or more variables.
    """
    branches = []
    evidence = []
    touched: set[int] = set()
    for selector, value, rows in arms:
        stripped = []
        for rid, terms, bound in sorted(rows):
            stripped.append(StrippedRow(terms, bound))
            evidence.append(rid)
            touched.update(v for v, _ in terms)
        branches.append(BranchSpec(selector, value, tuple(stripped)))
    if not any(len(row.terms) >= 2 for b in branches for row in b.rows):
        return None
    if selector_row is not None:
        evidence.append(selector_row)
    params = DisjPolyhedralParams(branches=tuple(branches), selector_row=selector_row)
    selectors = sorted({selector for selector, _, _ in arms})
    scope = tuple(sorted(touched)) + tuple(selectors)
    return SemanticRecord(Family.DISJ_POLYHEDRAL, scope, params, tuple(evidence))


def _rule(params: DisjPolyhedralParams, box: DomainBox, out: PropagationOutcome) -> bool:
    """Constructive disjunction over guarded branches.

    Each admissible branch gets a private copy of the box and a block
    fixpoint over its stripped rows.  A branch whose copy empties is
    impossible and loses its selector value; no surviving branch is a
    cutoff.  Touched variables then tighten to the envelope of the
    surviving branch-local bounds (variables a branch never constrains keep
    their global bounds there, so the envelope cannot overtighten them).
    A single survivor needs no step of its own: for ``binary_selector`` the
    dead branch's lost value fixes the guard, and for ``exact_one_mode`` the
    selector row fixes the last live selector in.
    """
    branches = params.branches
    selectors = [b.selector_var for b in branches]
    touched = sorted({v for b in branches for r in b.rows for v, _ in r.terms})
    shape_ok = (
        2 <= len(branches) <= 6
        and _all_binary(box, set(selectors))
        and all(0 <= v < len(box) for v in touched)
    )
    if shape_ok and params.selector_row is None:  # binary_selector
        shape_ok = (
            len(branches) == 2
            and selectors[0] == selectors[1]
            and {b.selector_value for b in branches} == {0, 1}
        )
    elif shape_ok:  # exact_one_mode
        shape_ok = len(set(selectors)) == len(selectors) and all(
            b.selector_value == 1 for b in branches
        )
    if not shape_ok:
        return False

    def allows(branch) -> bool:
        if branch.selector_value == 1:
            return _live(box, branch.selector_var)
        return box.lower[branch.selector_var] < 0.5

    def forbid(branch) -> bool:
        if branch.selector_value == 1:
            return set_upper(box, out, branch.selector_var, 0.0)
        return set_lower(box, out, branch.selector_var, 1.0)

    cut = False
    viable: list[int] = []
    local_boxes: dict[int, DomainBox] = {}
    for index, branch in enumerate(branches):
        if not allows(branch):
            continue
        rows = [LinearRow(i, "branch", r.terms, -INF, r.bound) for i, r in enumerate(branch.rows)]
        local = box.copy()
        if propagate_block_fixpoint(rows, local).cutoff:
            cut |= forbid(branch)
        else:
            viable.append(index)
            local_boxes[index] = local
    if not viable or cut:
        return True

    for var in touched:
        cut |= set_lower(box, out, var, min(local_boxes[i].lower[var] for i in viable))
        cut |= set_upper(box, out, var, max(local_boxes[i].upper[var] for i in viable))
    return cut


def _plant(rng, sizes):
    n_branches = int(sizes["branches"])
    n_x = int(sizes["xvars"])
    if not 2 <= n_branches <= 6:
        raise ValueError("DisjPolyhedral needs between 2 and 6 branches")
    if n_x < 2:
        raise ValueError("DisjPolyhedral needs >= 2 shared variables")

    mb = _Builder()
    xs = [mb.var(f"q{k + 1}", 0, rng.randint(5, 9)) for k in range(n_x)]
    point = {v: float(rng.randint(0, int(mb.variables[v].upper) - 1)) for v in xs}

    x_box = DomainBox([v.lower for v in mb.variables], [v.upper for v in mb.variables])

    witness = dict(point)
    branches = []
    evidence = []

    def plant_arm(selector: int, value: int, name: str, holds_witness: bool) -> None:
        """Draw 1-2 rows over ``xs``, each guarded by ``selector == value``
        with a big-M that relaxes it fully otherwise."""
        drawn = []
        for r_idx in range(rng.randint(1, 2)):
            if r_idx == 0:
                support = list(xs)
            else:
                support = rng.sample(xs, rng.randint(1, n_x))
            while True:
                coeffs = [float(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in support]
                if any(c > 0 for c in coeffs):
                    break
            terms = tuple(sorted(zip(support, coeffs)))
            min_act, max_act = activity_range(terms, x_box)
            if holds_witness:
                at_point = sum(c * point[v] for v, c in terms)
                bound = float(rng.randint(int(at_point), int(max_act) - 1))
            else:
                bound = float(rng.randint(int(min_act), int(max_act) - 1))
            drawn.append((terms, bound, max_act))
        stripped = []
        for b_idx, (terms, bound, max_act) in enumerate(drawn):
            big_m = float(math.ceil(max_act - bound) + rng.randint(0, 3))
            if value == 1:  # terms + M*y <= bound + M
                guarded, rhs = list(terms) + [(selector, big_m)], bound + big_m
            else:  # terms - M*y <= bound
                guarded, rhs = list(terms) + [(selector, -big_m)], bound
            evidence.append(mb.row(f"{name}_{b_idx + 1}", guarded, -INF, rhs))
            stripped.append(StrippedRow(terms, bound))
        branches.append(BranchSpec(selector, value, tuple(stripped)))

    if n_branches == 2:  # binary_selector
        guard = mb.binary("switch")
        active_value = rng.randint(0, 1)
        witness[guard] = float(active_value)
        for value in (1, 0):
            plant_arm(guard, value, f"br{value}", value == active_value)
        selector_row = None
        selectors = (guard,)
    else:
        modes = [mb.binary(f"mode{i + 1}") for i in range(n_branches)]
        active = rng.randrange(n_branches)
        for i, mode in enumerate(modes):
            witness[mode] = 1.0 if i == active else 0.0
        for i, mode in enumerate(modes):
            plant_arm(mode, 1, f"br{i + 1}", i == active)
        selector_row = mb.row("modepick", [(m, 1.0) for m in modes], 1, 1)
        evidence.append(selector_row)
        selectors = tuple(modes)

    params = DisjPolyhedralParams(branches=tuple(branches), selector_row=selector_row)
    scope = tuple(xs) + selectors
    record = SemanticRecord(Family.DISJ_POLYHEDRAL, scope, params, tuple(evidence))
    return mb, record, witness


SPEC = FamilySpec(
    Family.DISJ_POLYHEDRAL, DisjPolyhedralParams, detect_disj_polyhedral, _rule, _plant,
    {"branches": 2, "xvars": 2},
)
