"""Structure detection: row views, per-family detectors, arbitration."""

from .engine import (  # noqa: F401
    DETECTORS,
    DetectionReport,
    detect_all,
    detect_family,
)
from .rowview import Facet, ModelView, UnitView, one_sided_facet  # noqa: F401
