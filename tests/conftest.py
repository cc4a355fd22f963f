"""Fixtures every test under ``tests/`` runs with."""

import pytest

from structprop.detect import DETECTORS


@pytest.fixture(autouse=True)
def detectors_keep_their_order():
    """Fail a test that leaves ``DETECTORS`` in another key order.

    The key order is the arbitration order.  Deleting a family and putting
    it back (``monkeypatch.delitem`` does that) moves it to the end, so every
    later test would detect with another order; replace the value instead.
    """
    before = [family.value for family in DETECTORS]
    yield
    after = [family.value for family in DETECTORS]
    if after != before:
        pytest.fail(f"the test changed the DETECTORS order from {before} to {after}")
