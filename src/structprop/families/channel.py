"""Channel: an integer variable equated with a value-weighted one-hot group."""

from __future__ import annotations

from dataclasses import dataclass

from ..rowview import ModelView
from ..model import FEAS_TOL, DomainBox, PropagationOutcome, set_lower, set_upper
from ..propagate import _all_binary, _live
from ..records import Family, SemanticRecord, Unordered, Var
from ._shared import FamilySpec, _Builder


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """One linked pair: an integer view variable and its indicator encoding."""

    link_var: Var
    indicators: Unordered[tuple[float, Var]]  # (value, indicator var)


def detect_channel(view: ModelView, config) -> list[SemanticRecord]:
    """An integer variable equated with a value-weighted one-hot group."""
    one_by_support: dict[frozenset[int], int] = {}
    for u in view.exact_ones:
        one_by_support.setdefault(frozenset(u.support), u.row)
    records = []
    for rid, link_var, link_coeff, bins in view.links:
        values = [(-c / link_coeff, v) for v, c in bins]
        seen = {value for value, _ in values}
        if len(seen) != len(values) or 0.0 in seen:
            continue
        onehot = one_by_support.get(frozenset(v for v, _ in bins))
        if onehot is None:
            continue
        params = ChannelParams(link_var, tuple(sorted(values, key=lambda t: t[0])))
        scope = (link_var,) + tuple(sorted(v for v, _ in bins))
        records.append(SemanticRecord(Family.CHANNEL, scope, params, (rid, onehot)))
    return records


def _rule(params: ChannelParams, box: DomainBox, out: PropagationOutcome) -> bool:
    """Indicators one-hot over the values of the link variable ``x``.

    An indicator whose value lies outside x's bounds is fixed out; x then
    tightens to the range of the values still live.  The pick-one row fixes
    the last live indicator in.
    """
    x = params.link_var
    indicators = [v for _, v in params.indicators]
    values = [value for value, _ in params.indicators]
    if (
        not 0 <= x < len(box)
        or len(params.indicators) < 2
        or len(set(indicators)) != len(indicators)
        or len(set(values)) != len(values)
        or not _all_binary(box, indicators)
    ):
        return False
    cut = False
    for value, v in params.indicators:
        if _live(box, v) and (value < box.lower[x] - FEAS_TOL or value > box.upper[x] + FEAS_TOL):
            cut |= set_upper(box, out, v, 0.0)
    live_values = [value for value, v in params.indicators if _live(box, v)]
    if not live_values:
        return True
    cut |= set_lower(box, out, x, min(live_values))
    cut |= set_upper(box, out, x, max(live_values))
    return cut


def _plant(rng, sizes):
    m = int(sizes["values"])
    if not 2 <= m <= 9:
        raise ValueError("Channel needs between 2 and 9 distinct values")
    mb = _Builder()
    values = sorted(rng.sample(range(1, 10), m))
    xvar = mb.var("xview", min(values), max(values))
    inds = [mb.binary(f"ind{v}") for v in values]
    onehot = mb.row("pickone", [(y, 1.0) for y in inds], 1, 1)
    link = mb.row("link", [(xvar, 1.0)] + [(y, -float(v)) for v, y in zip(values, inds)], 0, 0)
    chosen = rng.choice(values)
    witness = {xvar: float(chosen)}
    for v, y in zip(values, inds):
        witness[y] = 1.0 if v == chosen else 0.0
    params = ChannelParams(xvar, tuple((float(v), y) for v, y in zip(values, inds)))
    scope = (xvar, *inds)
    record = SemanticRecord(Family.CHANNEL, scope, params, (link, onehot))
    return mb, record, witness


SPEC = FamilySpec(Family.CHANNEL, ChannelParams, detect_channel, _rule, _plant, {"values": 4})
