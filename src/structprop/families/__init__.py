"""The constraint families: one module each, one ``FamilySpec`` each.

A family module holds the family's params dataclass, its detector, its
record rule (or None, with the reason in the module docstring) and its
planter with default sizes, and ends with the ``SPEC`` that names them.
``FAMILIES`` maps each family to its spec in arbitration order: a record
claims its evidence rows before any later family's record can.  Rules,
params classes, planters and the gate ladder look a family up in it when
used, so replacing an entry in place changes what they all run; never
rebind the name, since ``records`` caches the dict itself.  Only
``detect.DETECTORS`` and ``synth.DEFAULT_SIZE_PARAMS`` are read at import.
"""

from . import (
    all_different, bottleneck_exact_one, cardinality, channel, cumulative, disj_polyhedral,
    nvalue, one_hot_resource, rostering_window, stretch, unit_commitment_ramp,
)
from ._shared import FamilySpec
from ..records import Family

__all__ = ["FAMILIES", "FamilySpec"]

FAMILIES: dict[Family, FamilySpec] = {
    spec.family: spec
    for spec in (
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
}
