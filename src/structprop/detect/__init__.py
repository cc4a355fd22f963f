"""Structure detection: arbitration over the family detectors."""

from .engine import DETECTORS, DetectionReport, detect_all  # noqa: F401
