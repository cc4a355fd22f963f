"""Shared row classification used by every detector.

Detectors never look at variable or row names.  They work from four
normalized views built here once per model:

* non-binding rows are dropped up front (a row whose activity image already
  sits inside its sides constrains nothing, so it can only be noise),
* one-sided rows are canonicalized to ``sum(terms) <= bound`` facets, which
  makes detection invariant under row sign inversion,
* uniform-coefficient rows are rescaled to unit form so bounds read as counts,
* two-binary facets ``x - y <= 0`` (any positive scale) are indexed as
  implications ``x <= y``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import (
    FEAS_TOL,
    DomainBox,
    LinearRow,
    MipModel,
    compute_activity,
    intern_coeffs,
    shared_float,
)


@dataclass(frozen=True, slots=True)
class Facet:
    """A one-sided row in canonical form: sum(coeffs * vars) <= bound.

    ``vars`` and ``coeffs`` are the row's own tuples for a ``<=`` row and
    an interned negated pattern for a ``>=`` row, so facets copy no terms.
    """

    row: int
    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    bound: float

    @property
    def terms(self) -> tuple[tuple[int, float], ...]:
        """The ``(var, coeff)`` pairs, built on each access."""
        return tuple(zip(self.vars, self.coeffs))

    def support(self) -> tuple[int, ...]:
        return self.vars


@dataclass(frozen=True)
class UnitView:
    """A uniform-coefficient row rescaled to coefficient +1 on every term."""

    row: int
    support: tuple[int, ...]
    lower: float
    upper: float
    is_equality: bool


def uniform_coefficient(coeffs) -> float | None:
    """The shared coefficient if all coefficients are equal, else None."""
    if not coeffs:
        return None
    first = coeffs[0]
    for coeff in coeffs[1:]:
        if coeff != first:
            return None
    return first


class ModelView:
    """Precomputed, name-blind classification of a model's rows."""

    def __init__(self, model: MipModel, row_scan_cap: int | None = None) -> None:
        self.model = model
        self.box = DomainBox.from_model(model)
        self.is_binary = [
            v.is_integer and v.lower >= 0.0 and v.upper <= 1.0
            for v in model.variables
        ]
        self.truncated = row_scan_cap is not None and len(model.rows) > row_scan_cap
        scan = model.rows if not self.truncated else model.rows[:row_scan_cap]

        self.active_rows: list[LinearRow] = []
        self.vacuous: set[int] = set()
        for row in scan:
            if not row.vars:
                self.vacuous.add(row.id)
                continue
            activity = compute_activity(row, self.box)
            if (row.lhs <= activity.min_activity + FEAS_TOL
                    and activity.max_activity <= row.rhs + FEAS_TOL):
                self.vacuous.add(row.id)
            else:
                self.active_rows.append(row)

        self.equalities: list[LinearRow] = [r for r in self.active_rows if r.is_equality]
        self.facets: list[Facet] = []
        for row in self.active_rows:
            facet = one_sided_facet(row)
            if facet is not None:
                self.facets.append(facet)

        # x -> [(y, facet row)] for every facet reading x <= y over binaries
        self.implications: dict[int, list[tuple[int, int]]] = {}
        for facet in self.facets:
            if len(facet.vars) != 2 or abs(facet.bound) > FEAS_TOL:
                continue
            va, vb = facet.vars
            ca, cb = facet.coeffs
            if ca == -cb and self.is_binary[va] and self.is_binary[vb]:
                x, y = (va, vb) if ca > 0 else (vb, va)
                self.implications.setdefault(x, []).append((y, facet.row))

    def all_binary(self, support) -> bool:
        return all(self.is_binary[v] for v in support)

    def unit_view(self, row: LinearRow) -> UnitView | None:
        """Rescale a uniform-coefficient row to +1 coefficients."""
        coeff = uniform_coefficient(row.coeffs)
        if coeff is None or coeff == 0.0:
            return None
        support = row.vars
        if coeff > 0:
            lower, upper = row.lhs / coeff, row.rhs / coeff
        else:
            lower, upper = row.rhs / coeff, row.lhs / coeff
        return UnitView(row.id, support, lower, upper, row.is_equality)

    def exact_one_rows(self, min_size: int = 2) -> list[UnitView]:
        """Equality rows reading sum(binaries) == 1 after rescaling."""
        found = []
        for row in self.equalities:
            view = self.unit_view(row)
            if (view is not None and len(view.support) >= min_size
                    and view.lower == 1.0 and view.upper == 1.0
                    and self.all_binary(view.support)):
                found.append(view)
        return found

    def at_most_one_facets(self, min_size: int = 2) -> list[UnitView]:
        """One-sided rows reading sum(binaries) <= 1 after rescaling."""
        found = []
        for row in self.active_rows:
            if row.is_equality or (row.lhs > -float("inf") and row.rhs < float("inf")):
                continue
            view = self.unit_view(row)
            if (view is not None and len(view.support) >= min_size
                    and view.upper == 1.0 and view.lower <= 0.0
                    and self.all_binary(view.support)):
                found.append(view)
        return found


def one_sided_facet(row: LinearRow) -> Facet | None:
    """Canonical <= form of a strictly one-sided row, None otherwise."""
    lhs_finite = row.lhs > -float("inf")
    rhs_finite = row.rhs < float("inf")
    if lhs_finite and rhs_finite:
        return None
    if rhs_finite:
        return Facet(row.id, row.vars, row.coeffs, row.rhs)
    if lhs_finite:
        negated = intern_coeffs(tuple(shared_float(-c) for c in row.coeffs))
        return Facet(row.id, row.vars, negated, -row.lhs)
    return None

