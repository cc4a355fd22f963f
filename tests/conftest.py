"""Fixtures every test under ``tests/`` runs with."""

import pytest

from structprop.detect import DETECTORS
from structprop.families import FAMILIES


@pytest.fixture(autouse=True)
def detectors_keep_their_order():
    """Fail a test that leaves ``FAMILIES`` or ``DETECTORS`` changed, and
    put them back so that later tests do not run the leaked change.

    Tests swap a family's spec in ``FAMILIES``, and every later test reads
    it, so a test must leave it holding the same spec objects in the same
    key order, and ``DETECTORS`` (the view ``detect_all`` reads) holding
    each spec's ``detect`` in that order.  The key order is the arbitration
    order.  Deleting a family and putting it back (``monkeypatch.delitem``
    does that) moves it to the end; replace the value instead.
    """
    before = list(FAMILIES.items())
    yield
    after = list(FAMILIES.items())
    changed = []
    if after != before or any(a is not b for (_, a), (_, b) in zip(after, before)):
        FAMILIES.clear()
        FAMILIES.update(before)
        changed.append("FAMILIES")
    views = [(family, spec.detect) for family, spec in before]
    if list(DETECTORS.items()) != views:
        DETECTORS.clear()
        DETECTORS.update(views)
        changed.append("DETECTORS")
    if changed:
        pytest.fail(f"the test left {' and '.join(changed)} changed")
