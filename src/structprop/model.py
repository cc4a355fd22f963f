"""Core MIP model data structures and interval reasoning primitives.

A model is a list of bounded variables plus two-sided linear rows
``lhs <= sum(a_i * x_i) <= rhs``.  Everything downstream (detection,
propagation, search, verification) works on these objects and on
:class:`DomainBox`, a mutable bounds workspace detached from the model.

Numeric policy: plain floats with ``math.inf`` sentinels and three fixed
constants, read where they are used.  ``FEAS_TOL`` (1e-6) is the smallest
bound change that counts as a tightening and the slack of every feasibility
and emptiness test; ``INT_TOL`` (1e-6) is the slack of inward integer
rounding; a coefficient below ``COEFF_FLOOR`` (1e-9) is never divided by.
No function takes a tolerance.  Integer bounds are always rounded inward
when tightened.  Bounds and row
sides may be infinite on their own side only (no ``lhs`` or lower bound at
``+inf``, no ``rhs`` or upper bound at ``-inf``); coefficients must be finite
and NaN is rejected.

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
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def shared_float(value: float) -> float:
    """``value`` as a float: the shared object for a small integer, a zero
    (per sign) or an infinity, a new float otherwise."""
    shared = _SHARED_FLOATS.get(value)
    if shared is not None:
        return shared
    if value == 0.0:
        return _NEG_ZERO if math.copysign(1.0, value) < 0.0 else _ZERO
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

    def support(self) -> tuple[int, ...]:
        return self.vars


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

    @property
    def flagged_infeasible(self) -> bool:
        """True when some variable was declared with crossing bounds."""
        return any(v.lower > v.upper for v in self.variables)

    def row_by_name(self, name: str) -> LinearRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def models_equal(a: MipModel, b: MipModel) -> bool:
    """Structural equality: same variables, rows, objective, sense, in order."""
    if len(a.variables) != len(b.variables) or len(a.rows) != len(b.rows):
        return False
    for va, vb in zip(a.variables, b.variables):
        if (va.name, va.lower, va.upper, va.integrality) != (
            vb.name,
            vb.lower,
            vb.upper,
            vb.integrality,
        ):
            return False
    for ra, rb in zip(a.rows, b.rows):
        if ra != rb:  # row ids equal their positions, so this compares the rest
            return False
    return a.objective == b.objective and a.objective_sense == b.objective_sense


class RowActivity(NamedTuple):
    min_activity: float
    max_activity: float


@dataclass(frozen=True, slots=True)
class BoundChange:
    var: int
    which: str  # "lb" or "ub"
    old: float
    new: float


@dataclass(slots=True)
class PropagationOutcome:
    """Result of one or more propagation calls.

    ``cutoff`` means the reduced box is empty (no feasible point survives).
    Counters follow the benchmark diagnostics: ``calls`` counts propagator
    invocations, ``domain_reductions`` counts recorded bound changes,
    ``cutoffs`` counts invocations that ended in a cutoff, ``prop_time`` is
    wall time spent inside propagators.  A single-row ``tighten_row`` call is
    not timed (its ``prop_time`` stays 0); the block and record propagators
    that call it time themselves.
    """

    bound_changes: list[BoundChange] = field(default_factory=list)
    cutoff: bool = False
    calls: int = 0
    domain_reductions: int = 0
    cutoffs: int = 0
    prop_time: float = 0.0
    budget_hit: bool = False

    def record(self, var: int, which: str, old: float, new: float) -> None:
        self.bound_changes.append(BoundChange(var, which, old, new))
        self.domain_reductions += 1

    def absorb(self, other: "PropagationOutcome") -> None:
        self.bound_changes.extend(other.bound_changes)
        self.cutoff = self.cutoff or other.cutoff
        self.calls += other.calls
        self.domain_reductions += other.domain_reductions
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
        return cls(
            [v.lower for v in model.variables],
            [v.upper for v in model.variables],
            [v.is_integer for v in model.variables],
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


def round_lower(value: float, is_integer: bool) -> float:
    if is_integer and math.isfinite(value):
        return math.ceil(value - INT_TOL)
    return value


def round_upper(value: float, is_integer: bool) -> float:
    if is_integer and math.isfinite(value):
        return math.floor(value + INT_TOL)
    return value


def set_lower(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    """Raise ``var``'s lower bound to ``value``; True means the domain emptied.

    An integer bound is rounded inward first.  The box is written, and the
    change recorded in ``out``, only when the new bound beats the old one by
    more than ``FEAS_TOL``; otherwise nothing happens and False comes back.
    """
    value = round_lower(value, box.integer_mask[var])
    old = box.lower[var]
    if value <= old + FEAS_TOL:
        return False
    box.lower[var] = value
    out.record(var, "lb", old, value)
    return value > box.upper[var] + FEAS_TOL


def set_upper(box: DomainBox, out: PropagationOutcome, var: int, value: float) -> bool:
    """Lower ``var``'s upper bound to ``value``; the mirror of :func:`set_lower`."""
    value = round_upper(value, box.integer_mask[var])
    old = box.upper[var]
    if value >= old - FEAS_TOL:
        return False
    box.upper[var] = value
    out.record(var, "ub", old, value)
    return box.lower[var] > value + FEAS_TOL


def compute_activity(row: LinearRow, box: DomainBox) -> RowActivity:
    """Interval image of the row's sum over the box, with inf sentinels."""
    sums = _ActivitySums.of(row, box)
    return RowActivity(sums.min_value(), sums.max_value())


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


class _ActivitySums:
    """Finite partial sums plus infinity counters for both activity sides.

    Residual activities (the sum with one term removed) come out of this
    without ever forming inf - inf: if the removed term is the only infinite
    contributor the residual is the finite part, otherwise it stays infinite.
    """

    __slots__ = ("min_finite", "min_inf", "max_finite", "max_inf")

    def __init__(self) -> None:
        self.min_finite = 0.0
        self.min_inf = 0
        self.max_finite = 0.0
        self.max_inf = 0

    @classmethod
    def of(cls, row: LinearRow, box: DomainBox) -> "_ActivitySums":
        sums = cls()
        for var, coeff in zip(row.vars, row.coeffs):
            lo_c, hi_c = _term_range(coeff, box.lower[var], box.upper[var])
            if lo_c == -INF:
                sums.min_inf += 1
            else:
                sums.min_finite += lo_c
            if hi_c == INF:
                sums.max_inf += 1
            else:
                sums.max_finite += hi_c
        return sums

    def min_value(self) -> float:
        return -INF if self.min_inf else self.min_finite

    def max_value(self) -> float:
        return INF if self.max_inf else self.max_finite

    def residual_min(self, coeff: float, lo: float, up: float) -> float:
        """Min activity with the term (coeff, [lo, up]) removed."""
        lo_c, _ = _term_range(coeff, lo, up)
        if lo_c == -INF:
            return -INF if self.min_inf > 1 else self.min_finite
        return -INF if self.min_inf else self.min_finite - lo_c

    def residual_max(self, coeff: float, lo: float, up: float) -> float:
        _, hi_c = _term_range(coeff, lo, up)
        if hi_c == INF:
            return INF if self.max_inf > 1 else self.max_finite
        return INF if self.max_inf else self.max_finite - hi_c


def _term_range(coeff: float, lo: float, up: float) -> tuple[float, float]:
    """Contribution interval of one term; handles 0 * inf as 0."""
    if coeff > 0.0:
        return _mul(coeff, lo), _mul(coeff, up)
    return _mul(coeff, up), _mul(coeff, lo)


def _mul(coeff: float, bound: float) -> float:
    if bound == INF:
        return INF if coeff > 0 else -INF
    if bound == -INF:
        return -INF if coeff > 0 else INF
    return coeff * bound


def tighten_row(row: LinearRow, box: DomainBox) -> PropagationOutcome:
    """One residual-activity pass over a single row, mutating ``box``.

    For each term the candidate bounds are
    ``x_j <= (rhs - minact_without_j) / a_j`` and
    ``x_j >= (lhs - maxact_without_j) / a_j`` (sides swapped for negative
    coefficients), written through :func:`set_lower`/:func:`set_upper`.
    Passes repeat with fresh activities until the row is stable, so the
    operation is idempotent.
    Detects empty boxes and violated activities as cutoffs.
    """
    outcome = PropagationOutcome(calls=1)
    while True:
        sums = _ActivitySums.of(row, box)
        if sums.min_value() > row.rhs + FEAS_TOL or sums.max_value() < row.lhs - FEAS_TOL:
            outcome.cutoff = True
            outcome.cutoffs = 1
            break
        changes_before = len(outcome.bound_changes)
        for var, coeff in zip(row.vars, row.coeffs):
            if abs(coeff) < COEFF_FLOOR:
                continue
            lo = box.lower[var]
            up = box.upper[var]
            res_min = sums.residual_min(coeff, lo, up)
            res_max = sums.residual_max(coeff, lo, up)
            if coeff > 0.0:
                from_rhs, from_lhs = set_upper, set_lower
            else:
                from_rhs, from_lhs = set_lower, set_upper
            if row.rhs != INF and res_min != -INF:
                from_rhs(box, outcome, var, (row.rhs - res_min) / coeff)
            if row.lhs != -INF and res_max != INF:
                from_lhs(box, outcome, var, (row.lhs - res_max) / coeff)
            if box.lower[var] > box.upper[var] + FEAS_TOL:
                outcome.cutoff = True
                outcome.cutoffs = 1
                break
        if outcome.cutoff or len(outcome.bound_changes) == changes_before:
            break
    return outcome


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
