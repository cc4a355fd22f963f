"""Core MIP model data structures and interval reasoning primitives.

A model is a list of bounded variables plus two-sided linear rows
``lhs <= sum(a_i * x_i) <= rhs``.  Everything downstream (detection,
propagation, search, verification) works on these objects and on
:class:`DomainBox`, a mutable bounds workspace detached from the model.

Interval reasoning is two functions.  :func:`activity_range` is the
activity image of any term list over a box; :func:`tighten_row` is one
residual-activity pass over one row.  Neither repeats itself:
``propagate.propagate_block_fixpoint`` sweeps rows until stable.  Every
bound write, by rows and records alike, goes through
:func:`set_lower`/:func:`set_upper`.

Numeric policy: plain floats with ``math.inf`` sentinels and three fixed
constants, read where they are used.  ``FEAS_TOL`` (1e-6) is the smallest
bound change that counts as a tightening and the slack of every feasibility
and emptiness test; ``INT_TOL`` (1e-6) is the slack of inward integer
rounding; a coefficient below ``COEFF_FLOOR`` (1e-9) is never divided by.
No function takes a tolerance.  Integer bounds are always rounded inward,
when a box is built from a model and when tightened.  Bounds and row sides
may be infinite on their own side only (no ``lhs`` or lower bound at
``+inf``, no ``rhs`` or upper bound at ``-inf``); coefficients must be
finite and NaN is rejected.

Row storage: a :class:`LinearRow` keeps its nonzeros as two flat tuples,
``vars`` (strictly increasing variable ids) and ``coeffs`` (the matching
coefficients), so a nonzero costs two pointer slots.  ``row.terms`` builds
the ``(var, coeff)`` pairs on demand; hot loops read
``zip(row.vars, row.coeffs)`` instead.

Shared values: models of counts and unit weights repeat a few numbers and
coefficient patterns, so repeated immutable values are stored once.
Integer values in ``[-256, 256]`` and ``±inf`` map to one shared float
object each (:func:`shared_float`; zero is shared per sign, so ``-0.0``
stays ``-0.0``).  That covers row coefficients and sides, variable bounds
and objective coefficients.  Each row's ``coeffs`` tuple of at most
``PATTERN_MAX_LEN`` entries goes through one process-wide intern table
(:func:`intern_coeffs`), so rows with equal patterns hold one tuple.  The
table is bounded: once it holds ``PATTERN_LIMIT`` patterns it admits no
new ones, and later rows keep their own tuples.  Stored values always
equal the values passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

INF = math.inf
FEAS_TOL = 1e-6
INT_TOL = 1e-6
COEFF_FLOOR = 1e-9


class Integrality(Enum):
    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


# one float object per small integer and per infinity, shared by every
# coefficient, side, bound and objective entry that carries the value; zero
# is left out because ``-0.0 == 0.0`` would lose its sign in a lookup
_SHARED_FLOATS = {value: float(value) for value in range(-256, 257) if value}
_SHARED_FLOATS.update({INF: INF, -INF: -INF})
_ZERO = 0.0
_NEG_ZERO = -0.0

#: Longest ``coeffs`` tuple that is interned.  Patterns that long rarely
#: repeat, and the cap bounds what the table keeps alive.
PATTERN_MAX_LEN = 8
#: Most coefficient patterns the intern table holds.  The benchmark's
#: detect-merged corpus (45k rows) builds 3.3k distinct patterns, 3.5k with
#: the negated ones detection adds, and all of them fit.
PATTERN_LIMIT = 4096
_PATTERNS: dict[tuple[float, ...], tuple[float, ...]] = {}

# frozen fields are set once, in __init__; bound here because rows are built by the 100k
_set_field = object.__setattr__
# read on every zero side and bound, so bound here for the same reason
_copysign = math.copysign


def shared_float(value: float) -> float:
    """``value`` as a float: the shared object for a small integer, a zero
    (per sign) or an infinity, a new float otherwise."""
    shared = _SHARED_FLOATS.get(value)
    if shared is not None:
        return shared
    if value == 0.0:
        return _NEG_ZERO if _copysign(1.0, value) < 0.0 else _ZERO
    return float(value)


def intern_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """The shared tuple equal to ``coeffs``.

    Tuples longer than ``PATTERN_MAX_LEN`` come back as they are; a new
    pattern is admitted while the table holds fewer than ``PATTERN_LIMIT``.
    """
    if len(coeffs) > PATTERN_MAX_LEN:
        return coeffs
    if len(_PATTERNS) < PATTERN_LIMIT:
        return _PATTERNS.setdefault(coeffs, coeffs)
    return _PATTERNS.get(coeffs, coeffs)


@dataclass(frozen=True, slots=True, init=False)
class Variable:
    """A decision variable; ``id`` is its dense column index in the model."""

    id: int
    name: str
    lower: float
    upper: float
    integrality: Integrality = Integrality.CONTINUOUS

    def __init__(
        self,
        id: int,
        name: str,
        lower: float,
        upper: float,
        integrality: Integrality = Integrality.CONTINUOUS,
    ) -> None:
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(f"variable {name!r} has a NaN bound")
        if lower == INF or upper == -INF:
            raise ValueError(
                f"variable {name!r} has a bound at the wrong infinity, "
                f"[{lower}, {upper}]"
            )
        if integrality is Integrality.BINARY:
            if lower < -0.0 or upper > 1.0:
                raise ValueError(
                    f"binary variable {name!r} must have bounds within [0, 1], "
                    f"got [{lower}, {upper}]"
                )
        _set_field(self, "id", id)
        _set_field(self, "name", name)
        _set_field(self, "lower", shared_float(lower))
        _set_field(self, "upper", shared_float(upper))
        _set_field(self, "integrality", integrality)

    @property
    def is_integer(self) -> bool:
        return self.integrality is not Integrality.CONTINUOUS


@dataclass(frozen=True, slots=True, init=False)
class LinearRow:
    """A two-sided linear row.  Equality rows have ``lhs == rhs``.

    Built from ``(var, coeff)`` terms in any order; zero coefficients are
    dropped and the rest stored sorted by variable id in ``vars``/``coeffs``.
    """

    id: int
    name: str
    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    lhs: float
    rhs: float

    def __init__(
        self,
        id: int,
        name: str,
        terms: Iterable[tuple[int, float]],
        lhs: float,
        rhs: float,
    ) -> None:
        if math.isnan(lhs) or math.isnan(rhs):
            raise ValueError(f"row {name!r}: NaN side")
        if lhs > rhs:
            raise ValueError(f"row {name!r}: lhs {lhs} > rhs {rhs}")
        if lhs == INF or rhs == -INF:
            raise ValueError(f"row {name!r}: side at the wrong infinity, [{lhs}, {rhs}]")
        seen = set()
        cleaned = []
        for var, coeff in terms:
            if var in seen:
                raise ValueError(f"row {name!r}: duplicate variable id {var}")
            if not math.isfinite(coeff):
                raise ValueError(f"row {name!r}: non-finite coefficient {coeff} on {var}")
            seen.add(var)
            if coeff != 0.0:
                # coeff is nonzero, so a lookup miss is the only falsy result
                cleaned.append((var, _SHARED_FLOATS.get(coeff) or float(coeff)))
        cleaned.sort()  # canonical order, term order carries no meaning
        vars_, coeffs = zip(*cleaned) if cleaned else ((), ())
        _set_field(self, "id", id)
        _set_field(self, "name", name)
        _set_field(self, "vars", vars_)
        _set_field(self, "coeffs", intern_coeffs(coeffs))
        _set_field(self, "lhs", shared_float(lhs))
        _set_field(self, "rhs", shared_float(rhs))

    @property
    def terms(self) -> tuple[tuple[int, float], ...]:
        """The ``(var, coeff)`` pairs, built on each access."""
        return tuple(zip(self.vars, self.coeffs))

    @property
    def is_equality(self) -> bool:
        return self.lhs == self.rhs


class MipModel:
    """Immutable-after-construction container for variables, rows, objective.

    The objective is stored in minimization form; ``objective_sense`` keeps
    the declared sense so writers can restore it.
    """

    __slots__ = ("name", "variables", "rows", "objective", "objective_sense")

    def __init__(
        self,
        variables: Sequence[Variable],
        rows: Sequence[LinearRow],
        objective: Sequence[tuple[int, float]] = (),
        objective_sense: str = "min",
        name: str = "model",
    ) -> None:
        variables = tuple(variables)
        for idx, var in enumerate(variables):
            if var.id != idx:
                raise ValueError(f"variable {var.name!r} has id {var.id}, expected {idx}")
        n = len(variables)
        rows = tuple(rows)
        for idx, row in enumerate(rows):
            if row.id != idx:
                raise ValueError(f"row {row.name!r} has id {row.id}, expected {idx}")
            if row.vars and not (0 <= row.vars[0] and row.vars[-1] < n):  # vars are sorted
                var = next(v for v in row.vars if not 0 <= v < n)
                raise ValueError(f"row {row.name!r} references unknown variable {var}")
        if objective_sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {objective_sense!r}")
        objective = tuple(objective)
        seen = set()
        for var, coeff in objective:
            if not 0 <= var < n:
                raise ValueError(f"objective references unknown variable {var}")
            if not math.isfinite(coeff):
                raise ValueError(f"objective coefficient {coeff} on {var} is not finite")
            if var in seen:
                raise ValueError(f"duplicate objective entry for variable {var}")
            seen.add(var)
        self.name = name
        self.variables = variables
        self.rows = rows
        self.objective = tuple(
            sorted((v, shared_float(c)) for v, c in objective if c != 0.0)
        )
        self.objective_sense = objective_sense


def _name_or_default(item: Variable | LinearRow, prefix: str) -> str:
    """The item's name, or ``{prefix}0001``-style from its id when blank.

    The MPS writer names unnamed columns ``C...`` and rows ``R...`` by this
    rule and a records file refers to them by it, so the two agree.
    """
    return item.name or f"{prefix}{item.id + 1:04d}"


def models_equal(a: MipModel, b: MipModel) -> bool:
    """Structural equality: same variables, rows, objective, sense, in order."""
    # ids equal positions, so the dataclasses' own == compares the rest
    return (a.variables, a.rows, a.objective, a.objective_sense) == (
        b.variables, b.rows, b.objective, b.objective_sense
    )


@dataclass(frozen=True, slots=True)
class BoundChange:
    var: int
    which: str  # "lb" or "ub"
    old: float
    new: float


@dataclass(slots=True)
class PropagationOutcome:
    """Result of one or more propagation calls.

    Each fact is stored once.  ``bound_changes`` logs every bound written,
    ``calls`` counts propagator invocations and ``cutoffs`` the ones that
    ended in a cutoff; ``prop_time`` is wall time inside propagators and
    ``budget_hit`` says a loop stopped at its round cap.  ``cutoff`` (no
    feasible point survives in the box) and ``domain_reductions`` are read
    off ``cutoffs`` and the log.  ``tighten_row`` and the record rules only
    append to their caller's log; ``propagate_block_fixpoint`` and
    ``propagate_record`` count and time each of their calls as one.
    """

    bound_changes: list[BoundChange] = field(default_factory=list)
    calls: int = 0
    cutoffs: int = 0
    prop_time: float = 0.0
    budget_hit: bool = False

    @property
    def cutoff(self) -> bool:
        return self.cutoffs > 0

    @property
    def domain_reductions(self) -> int:
        return len(self.bound_changes)

    def record(self, var: int, which: str, old: float, new: float) -> None:
        self.bound_changes.append(BoundChange(var, which, old, new))

    def absorb(self, other: "PropagationOutcome") -> None:
        self.bound_changes.extend(other.bound_changes)
        self.calls += other.calls
        self.cutoffs += other.cutoffs
        self.prop_time += other.prop_time
        self.budget_hit = self.budget_hit or other.budget_hit


class DomainBox:
    """Mutable per-variable bounds, the workspace propagation acts on.

    Carries the integer mask of its source model so tightening can round
    integer bounds inward.  Each propagation session owns its box
    exclusively; copy before sharing.
    """

    __slots__ = ("lower", "upper", "integer_mask")

    def __init__(
        self,
        lower: Sequence[float],
        upper: Sequence[float],
        integer_mask: Sequence[bool] | None = None,
    ) -> None:
        if len(lower) != len(upper):
            raise ValueError("lower/upper length mismatch")
        self.lower = list(lower)
        self.upper = list(upper)
        if integer_mask is None:
            integer_mask = [False] * len(self.lower)
        if len(integer_mask) != len(self.lower):
            raise ValueError("integer mask length mismatch")
        self.integer_mask = list(integer_mask)

    @classmethod
    def from_model(cls, model: MipModel) -> "DomainBox":
        """The declared bounds, integer ones rounded inward as
        :func:`set_lower`/:func:`set_upper` round them; a declared box may be
        empty (crossing bounds, or no integer in an integer range)."""
        variables = model.variables
        return cls(
            [_ceil_int(v.lower) if v.is_integer else v.lower for v in variables],
            [_floor_int(v.upper) if v.is_integer else v.upper for v in variables],
            [v.is_integer for v in variables],
        )

    def copy(self) -> "DomainBox":
        return DomainBox(self.lower, self.upper, self.integer_mask)

    def __len__(self) -> int:
        return len(self.lower)

    def is_empty(self) -> bool:
        return any(lo > up + FEAS_TOL for lo, up in zip(self.lower, self.upper))

    def contains(self, point: Mapping[int, float]) -> bool:
        for var, value in point.items():
            if value < self.lower[var] - FEAS_TOL or value > self.upper[var] + FEAS_TOL:
                return False
        return True

    def fix(self, var: int, value: float) -> None:
        self.lower[var] = value
        self.upper[var] = value


def _ceil_int(value: float) -> float:
    """An integer lower bound rounded inward, as a shared float; infinite
    bounds stay."""
    return shared_float(math.ceil(value - INT_TOL)) if math.isfinite(value) else value


def _floor_int(value: float) -> float:
    """An integer upper bound rounded inward, as a shared float; infinite
    bounds stay."""
    return shared_float(math.floor(value + INT_TOL)) if math.isfinite(value) else value


def set_lower(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    """Raise ``var``'s lower bound to ``value``; True means the domain emptied.

    An integer bound is rounded inward first, and stays a float.  The box
    is written, and the change recorded in ``out``, only when the new bound
    beats the old one by more than ``FEAS_TOL``; otherwise nothing happens
    and False comes back.
    """
    if box.integer_mask[var]:
        value = _ceil_int(value)
    old = box.lower[var]
    if value <= old + FEAS_TOL:
        return False
    box.lower[var] = value
    out.record(var, "lb", old, value)
    return value > box.upper[var] + FEAS_TOL


def set_upper(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    """Lower ``var``'s upper bound to ``value``; the mirror of :func:`set_lower`."""
    if box.integer_mask[var]:
        value = _floor_int(value)
    old = box.upper[var]
    if value >= old - FEAS_TOL:
        return False
    box.upper[var] = value
    out.record(var, "ub", old, value)
    return box.lower[var] > value + FEAS_TOL


def activity_range(
    terms: Iterable[tuple[int, float]], box: DomainBox
) -> tuple[float, float]:
    """Min and max of ``sum(c * x)`` over the box, infinite when unbounded.

    Each side only gathers terms of one sign of infinity, so no inf - inf
    arises.
    """
    lo = hi = 0.0
    for var, coeff in terms:
        if coeff > 0:
            lo += coeff * box.lower[var]
            hi += coeff * box.upper[var]
        else:
            lo += coeff * box.upper[var]
            hi += coeff * box.lower[var]
    return lo, hi


def tighten_row(row: LinearRow, box: DomainBox, out: PropagationOutcome) -> bool:
    """One residual-activity pass over a single row; True means a cutoff.

    The pass reads each term's contribution range once, at the start, and
    sums the finite parts of both activity sides while counting the
    infinite ones.  An activity outside ``[lhs, rhs]`` is a cutoff.
    Otherwise each term's residual activity (the row without that term)
    comes from those sums without ever forming inf - inf, and the candidate
    bounds ``x_j <= (rhs - minact_without_j) / a_j`` and
    ``x_j >= (lhs - maxact_without_j) / a_j`` (sides swapped for negative
    coefficients) are written into ``box`` through
    :func:`set_lower`/:func:`set_upper`, which record them in ``out``.  A
    term whose domain empties is a cutoff.  Bounds written in the pass do
    not feed back into it; ``propagate_block_fixpoint`` repeats the rows.
    """
    lower, upper = box.lower, box.upper
    ranges = []
    min_finite = max_finite = 0.0
    min_inf = max_inf = 0
    for var, coeff in zip(row.vars, row.coeffs):
        # LinearRow drops zero coefficients, so no 0 * inf arises here
        if coeff > 0.0:
            lo_c, hi_c = coeff * lower[var], coeff * upper[var]
        else:
            lo_c, hi_c = coeff * upper[var], coeff * lower[var]
        ranges.append((lo_c, hi_c))
        if lo_c == -INF:
            min_inf += 1
        else:
            min_finite += lo_c
        if hi_c == INF:
            max_inf += 1
        else:
            max_finite += hi_c
    lhs, rhs = row.lhs, row.rhs
    if (not min_inf and min_finite > rhs + FEAS_TOL) or (
        not max_inf and max_finite < lhs - FEAS_TOL
    ):
        return True
    for var, coeff, (lo_c, hi_c) in zip(row.vars, row.coeffs, ranges):
        if abs(coeff) < COEFF_FLOOR:
            continue
        # residual activities: the term's own infinite side drops out of the count
        if lo_c == -INF:
            res_min = -INF if min_inf > 1 else min_finite
        else:
            res_min = -INF if min_inf else min_finite - lo_c
        if hi_c == INF:
            res_max = INF if max_inf > 1 else max_finite
        else:
            res_max = INF if max_inf else max_finite - hi_c
        if coeff > 0.0:
            from_rhs, from_lhs = set_upper, set_lower
        else:
            from_rhs, from_lhs = set_lower, set_upper
        if rhs != INF and res_min != -INF:
            from_rhs(box, out, var, (rhs - res_min) / coeff)
        if lhs != -INF and res_max != INF:
            from_lhs(box, out, var, (lhs - res_max) / coeff)
        if lower[var] > upper[var] + FEAS_TOL:
            return True
    return False


def is_valid_reduction(
    original: DomainBox,
    reduced: DomainBox,
    feasible_points: Iterable[Mapping[int, float]],
) -> bool:
    """Check ``X(c) subseteq reduced subseteq original`` on sampled points.

    ``feasible_points`` are assignments (possibly projections onto a scope);
    every one of them must lie inside the reduced box.  Raises ``ValueError``
    on dimension mismatch.  An empty reduced box is valid exactly when there
    are no feasible points.
    """
    if len(original) != len(reduced):
        raise ValueError(
            f"box dimension mismatch: {len(original)} vs {len(reduced)}"
        )
    points = list(feasible_points)
    if reduced.is_empty():
        return not points
    for lo_r, up_r, lo_o, up_o in zip(
        reduced.lower, reduced.upper, original.lower, original.upper
    ):
        if lo_r < lo_o - FEAS_TOL or up_r > up_o + FEAS_TOL:
            return False
    return all(reduced.contains(point) for point in points)
