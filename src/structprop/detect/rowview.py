"""Shared row classification used by every detector.

Detectors never look at variable or row names.  ``ModelView`` classifies
every row of the model once, when it is built, however many rows there are,
and detectors only read the result:

* non-binding rows are dropped up front (an empty row, or a row whose
  activity image already sits inside its sides, constrains nothing, so it
  can only be noise); the rest are ``active_rows``, with the equalities
  among them in ``equalities``,
* one-sided rows are canonicalized to ``sum(terms) <= bound`` facets, which
  makes detection invariant under row sign inversion, each flagged when its
  support is all binary,
* uniform-coefficient rows are rescaled to unit form, so bounds read as
  counts, and kept in ``units`` by row id, each flagged when its support is
  all binary,
* the unit rows over two or more binaries that read ``sum == 1`` are listed
  in ``exact_ones``, and the one-sided ones that read ``sum <= 1`` in
  ``at_most_ones``,
* two-binary facets ``x - y <= 0`` (any positive scale) are indexed as
  implications ``x <= y``.

Every list is in row order.  ``claimed`` is the one field that changes after
construction: ``detect_all`` adds the evidence rows of each exact record it
keeps, so a detector run later in its priority order can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import (
    FEAS_TOL,
    DomainBox,
    LinearRow,
    MipModel,
    activity_range,
    intern_coeffs,
    shared_float,
)


@dataclass(frozen=True, slots=True)
class Facet:
    """A one-sided row in canonical form: sum(coeffs * vars) <= bound.

    ``vars`` and ``coeffs`` are the row's own tuples for a ``<=`` row and
    an interned negated pattern for a ``>=`` row, so facets copy no terms.
    ``binary`` says every variable of ``vars`` is binary.
    """

    row: int
    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    bound: float
    binary: bool


@dataclass(frozen=True, slots=True)
class UnitView:
    """A uniform-coefficient row rescaled to coefficient +1 on every term.

    ``binary`` says every variable of the support is binary.
    """

    row: int
    support: tuple[int, ...]
    lower: float
    upper: float
    is_equality: bool
    binary: bool


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

    def __init__(self, model: MipModel) -> None:
        self.model = model
        self.box = box = DomainBox.from_model(model)
        self.is_binary = [
            integer and lo >= 0.0 and up <= 1.0
            for integer, lo, up in zip(box.integer_mask, box.lower, box.upper)
        ]
        self.claimed: set[int] = set()  # rows kept exact records own

        self.active_rows: list[LinearRow] = []
        for row in model.rows:
            if not row.vars:
                continue
            min_act, max_act = activity_range(zip(row.vars, row.coeffs), box)
            if row.lhs <= min_act + FEAS_TOL and max_act <= row.rhs + FEAS_TOL:
                continue
            self.active_rows.append(row)

        self.equalities: list[LinearRow] = [r for r in self.active_rows if r.is_equality]
        self.facets: list[Facet] = []
        self.units: dict[int, UnitView] = {}
        self.exact_ones: list[UnitView] = []
        self.at_most_ones: list[UnitView] = []
        for row in self.active_rows:
            binary = self.all_binary(row.vars)
            facet = one_sided_facet(row, binary)
            if facet is not None:
                self.facets.append(facet)
            unit = _unit(row, binary)
            if unit is None:
                continue
            self.units[row.id] = unit
            if not unit.binary or len(unit.support) < 2:
                continue
            if row.is_equality:
                if unit.lower == 1.0 and unit.upper == 1.0:
                    self.exact_ones.append(unit)
            elif facet is not None and unit.upper == 1.0 and unit.lower <= 0.0:
                self.at_most_ones.append(unit)

        # x -> [(y, facet row)] for every facet reading x <= y over binaries
        self.implications: dict[int, list[tuple[int, int]]] = {}
        for facet in self.facets:
            if len(facet.vars) != 2 or abs(facet.bound) > FEAS_TOL:
                continue
            va, vb = facet.vars
            ca, cb = facet.coeffs
            if ca == -cb and facet.binary:
                x, y = (va, vb) if ca > 0 else (vb, va)
                self.implications.setdefault(x, []).append((y, facet.row))

    def all_binary(self, support) -> bool:
        return all(self.is_binary[v] for v in support)


def _unit(row: LinearRow, binary: bool) -> UnitView | None:
    """Rescale a uniform-coefficient row to +1 coefficients."""
    coeff = uniform_coefficient(row.coeffs)
    if coeff is None or coeff == 0.0:
        return None
    if coeff > 0:
        lower, upper = row.lhs / coeff, row.rhs / coeff
    else:
        lower, upper = row.rhs / coeff, row.lhs / coeff
    return UnitView(row.id, row.vars, lower, upper, row.is_equality, binary)


def one_sided_facet(row: LinearRow, binary: bool) -> Facet | None:
    """Canonical <= form of a strictly one-sided row, None otherwise.

    ``binary`` is the caller's answer to whether the row's support is all
    binary; the facet carries it.
    """
    lhs_finite = row.lhs > -float("inf")
    rhs_finite = row.rhs < float("inf")
    if lhs_finite and rhs_finite:
        return None
    if rhs_finite:
        return Facet(row.id, row.vars, row.coeffs, row.rhs, binary)
    if lhs_finite:
        negated = intern_coeffs(tuple(shared_float(-c) for c in row.coeffs))
        return Facet(row.id, row.vars, negated, -row.lhs, binary)
    return None

