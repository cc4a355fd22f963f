"""The constraint families: one module each, one ``FamilySpec`` each.

A family module holds the family's params dataclass, its detector, its
record rule (or None, with the reason in the module docstring) and its
planter with default sizes, and ends with the ``SPEC`` that names them.
``FAMILIES`` lists the specs in arbitration order: ``detect_all`` tries
the families in this order, and a record claims its evidence rows before
any later family's record can.  The detector, rule, planter and size
tables of ``detect``, ``propagate`` and ``synth`` are views of it.
"""

from . import (
    all_different, bottleneck_exact_one, cardinality, channel, cumulative, disj_polyhedral,
    nvalue, one_hot_resource, rostering_window, stretch, unit_commitment_ramp,
)
from ._shared import FamilySpec

__all__ = ["FAMILIES", "FamilySpec"]

FAMILIES: tuple[FamilySpec, ...] = (
    disj_polyhedral.SPEC,
    unit_commitment_ramp.SPEC,
    rostering_window.SPEC,
    bottleneck_exact_one.SPEC,
    one_hot_resource.SPEC,
    cumulative.SPEC,
    channel.SPEC,
    all_different.SPEC,
    nvalue.SPEC,
    stretch.SPEC,
    cardinality.SPEC,
)
