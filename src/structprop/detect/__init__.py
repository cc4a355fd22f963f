"""Structure detection: arbitration over the family detectors."""

from .engine import (  # noqa: F401
    DETECTORS,
    DetectionReport,
    detect_all,
    detect_family,
)
