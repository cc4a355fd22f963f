"""Detection driver: runs every family detector and arbitrates row claims.

Families are tried in a fixed priority order.  A record accepted with exact
confidence claims its evidence rows; later records overlapping those rows are
dropped, which keeps the surviving set disjoint on evidence.  Heuristic
records never claim rows, so they cannot shadow an exact match ranked lower.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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

DEFAULT_ROW_SCAN_CAP = 200_000


@dataclass(frozen=True)
class DetectConfig:
    row_scan_cap: int = DEFAULT_ROW_SCAN_CAP


DETECTORS: dict[Family, Callable[[ModelView, DetectConfig], list[SemanticRecord]]] = {
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


@dataclass(frozen=True)
class DetectionReport:
    records: tuple[SemanticRecord, ...]
    family_counts: dict[str, int] = field(default_factory=dict)
    dropped: tuple[SemanticRecord, ...] = ()
    warnings: tuple[str, ...] = ()
    truncated: bool = False


def detect_family(
    model: MipModel, family: Family, config: DetectConfig | None = None
) -> list[SemanticRecord]:
    """Run a single family detector, without cross-family arbitration."""
    config = config or DetectConfig()
    view = ModelView(model, row_scan_cap=config.row_scan_cap)
    return DETECTORS[family](view, config)


def detect_all(model: MipModel, config: DetectConfig | None = None) -> DetectionReport:
    """Run every detector and keep at most one claimant per evidence row."""
    config = config or DetectConfig()
    view = ModelView(model, row_scan_cap=config.row_scan_cap)
    kept: list[SemanticRecord] = []
    dropped: list[SemanticRecord] = []
    claimed: set[int] = set()
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
    if view.truncated:
        warnings.append(
            f"row scan capped at {config.row_scan_cap} of {len(model.rows)} rows"
        )
    counts = Counter(rec.family.value for rec in kept)
    return DetectionReport(
        records=tuple(kept),
        family_counts=dict(sorted(counts.items())),
        dropped=tuple(dropped),
        warnings=tuple(warnings),
        truncated=view.truncated,
    )

