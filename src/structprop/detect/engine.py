"""Detection driver: runs every family detector and arbitrates row claims.

Families are tried in a fixed priority order.  A record accepted with exact
confidence claims its evidence rows; later records overlapping those rows are
dropped, which keeps the surviving set disjoint on evidence.  Heuristic
records never claim rows, so they cannot shadow an exact match ranked lower.

The claimed rows live on the shared ``ModelView`` (``view.claimed``).
Cardinality, last in the order and one row per record, reads them and builds
no record for a claimed row, since arbitration would only drop it.

Detection takes no options: ``ModelView`` classifies every row of the model,
whatever its size.  Each detector still takes a second argument, ``config``,
and ``detect_all`` accepts one; none of them reads it.  It stays only so the
benchmark harness's call shapes, ``detect_all(model, config)`` and
``DETECTORS[family](view, config)``, keep working.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..model import MipModel
from ..records import PRIORITY_ORDER, Confidence, Family, SemanticRecord
from .cp import (
    detect_alldifferent,
    detect_cardinality,
    detect_channel,
    detect_cumulative,
    detect_nvalue,
    detect_stretch,
)
from .rowview import ModelView
from .zeroshot import (
    detect_bottleneck_exact_one,
    detect_disj_polyhedral,
    detect_one_hot_resource,
    detect_rostering_window,
    detect_unit_commitment_ramp,
)

DETECTORS: dict[Family, Callable[[ModelView, object], list[SemanticRecord]]] = {
    Family.DISJ_POLYHEDRAL: detect_disj_polyhedral,
    Family.UNIT_COMMITMENT_RAMP: detect_unit_commitment_ramp,
    Family.ROSTERING_WINDOW: detect_rostering_window,
    Family.BOTTLENECK_EXACT_ONE: detect_bottleneck_exact_one,
    Family.ONE_HOT_RESOURCE: detect_one_hot_resource,
    Family.CUMULATIVE: detect_cumulative,
    Family.CHANNEL: detect_channel,
    Family.ALL_DIFFERENT: detect_alldifferent,
    Family.NVALUE: detect_nvalue,
    Family.STRETCH: detect_stretch,
    Family.CARDINALITY: detect_cardinality,
}


@dataclass(frozen=True, slots=True)
class DetectionReport:
    """What ``detect_all`` kept, in priority order, and what it dropped.

    ``dropped`` holds the records a detector built whose evidence overlaps
    rows an exact record of a higher-priority family already claimed.
    Cardinality never appears there: it skips claimed rows before building
    a record (``detect_family`` still returns a record for every counting
    row).
    """

    records: tuple[SemanticRecord, ...]
    dropped: tuple[SemanticRecord, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def family_counts(self) -> dict[str, int]:
        """Kept records per family name, in name order."""
        return dict(sorted(Counter(rec.family.value for rec in self.records).items()))


def detect_family(model: MipModel, family: Family) -> list[SemanticRecord]:
    """Run a single family detector, without cross-family arbitration."""
    return DETECTORS[family](ModelView(model), None)


def detect_all(model: MipModel, config: object = None) -> DetectionReport:
    """Run every detector and keep at most one claimant per evidence row.

    ``config`` is not read; see the module docstring.
    """
    view = ModelView(model)
    kept: list[SemanticRecord] = []
    dropped: list[SemanticRecord] = []
    claimed = view.claimed
    warnings: list[str] = []
    for family in PRIORITY_ORDER:
        try:
            found = DETECTORS[family](view, config)
        except Exception as exc:  # a detector must never sink the whole scan
            warnings.append(f"{family.value} detector failed: {exc}")
            continue
        found = sorted(found, key=lambda rec: tuple(sorted(rec.evidence)))
        for rec in found:
            evidence = set(rec.evidence)
            if evidence & claimed:
                dropped.append(rec)
                continue
            kept.append(rec)
            if rec.confidence is Confidence.EXACT:
                claimed |= evidence
    return DetectionReport(
        records=tuple(kept), dropped=tuple(dropped), warnings=tuple(warnings)
    )

