"""Detection driver: runs every family detector and arbitrates row claims.

Families are tried in the key order of ``DETECTORS``, a view of
``families.FAMILIES`` made at import, so unlike the registry's other readers
``detect_all`` does not see a spec replaced there later.  Every kept record
claims its evidence rows; a later record overlapping those rows is dropped,
which keeps the surviving set disjoint on evidence.

The claimed rows live on the shared ``ModelView`` (``view.claimed``).
Cardinality, last in the order and one row per record, reads them and builds
no record for a claimed row, since arbitration would only drop it.

``detect_all`` is the one place that runs all detectors on a model, and
``structprop detect --family F`` keeps its records of family F.  A detector
that raises is skipped; ``detect_all`` logs its failure once at WARNING and
keeps the same text in ``DetectionReport.warnings``.

Detection takes no options: ``ModelView`` classifies every row of the model,
whatever its size.  Each detector still takes a second argument, ``config``,
and ``detect_all`` accepts one; none of them reads it.  It stays only so the
benchmark harness's call shapes, ``detect_all(model, config)`` and
``DETECTORS[family](view, config)``, keep working.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..families import FAMILIES
from ..model import MipModel
from ..records import Family, SemanticRecord
from ..rowview import ModelView

log = logging.getLogger(__name__)

#: Family -> detector in arbitration order, read once from ``FAMILIES``.  A
#: view, since ``detect_all`` reads it and perfbench's traced mode wraps it.
DETECTORS: dict[Family, Callable[[ModelView, object], list[SemanticRecord]]] = {
    family: spec.detect for family, spec in FAMILIES.items()
}


@dataclass(frozen=True, slots=True)
class DetectionReport:
    """What ``detect_all`` kept, in priority order, and what it dropped.

    ``dropped`` holds the records a detector built whose evidence overlaps
    rows a record of a higher-priority family already claimed.
    Cardinality never appears there: it skips claimed rows before building
    a record (its detector run alone, ``DETECTORS[Family.CARDINALITY]``,
    still returns a record for every counting row).
    """

    records: tuple[SemanticRecord, ...]
    dropped: tuple[SemanticRecord, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def family_counts(self) -> dict[str, int]:
        """Kept records per family name, in name order."""
        return dict(sorted(Counter(rec.family.value for rec in self.records).items()))


def detect_all(model: MipModel, config: object = None) -> DetectionReport:
    """Run every detector and keep at most one claimant per evidence row.

    ``config`` is not read; see the module docstring.
    """
    view = ModelView(model)
    kept: list[SemanticRecord] = []
    dropped: list[SemanticRecord] = []
    claimed = view.claimed
    warnings: list[str] = []
    for family, detector in DETECTORS.items():
        try:
            found = detector(view, config)
        except Exception as exc:  # a detector must never sink the whole scan
            warnings.append(f"{family.value} detector failed: {exc}")
            log.warning("%s", warnings[-1])
            continue
        found = sorted(found, key=lambda rec: tuple(sorted(rec.evidence)))
        for rec in found:
            evidence = set(rec.evidence)
            if evidence & claimed:
                dropped.append(rec)
                continue
            kept.append(rec)
            claimed |= evidence
    return DetectionReport(tuple(kept), tuple(dropped), tuple(warnings))

