"""Detection on textbook models that ``synth`` did not write (``tests/zoo.py``).

The pins in ``READINGS`` are today's readings, not targets: per model, the
records ``detect_all`` keeps and drops per family and the rows its kept
records cover.  Queens holds an n x n AllDifferent grid and MiniZinc's form
an AllDifferent record, yet none is kept.  A detection change that moves a
cell updates the pin and says so.  No search runs here.
"""

from collections import Counter

import pytest

from zoo import machine, minizinc_alldifferent, queens

from structprop.detect import detect_all
from structprop.model import DomainBox
from structprop.propagate import propagate_block_fixpoint

# (builder, n) -> (rows, kept per family, dropped per family, covered rows)
READINGS = {
    (queens, 6): (30, {"Cardinality": 26}, {}, 26),
    (queens, 8): (42, {"Cardinality": 38}, {}, 38),
    (minizinc_alldifferent, 5): (15, {"Channel": 5, "Cardinality": 5}, {"AllDifferent": 1}, 15),
    (minizinc_alldifferent, 7): (21, {"Channel": 7, "Cardinality": 7}, {"AllDifferent": 1}, 21),
    (machine, 4): (12, {"DisjPolyhedral": 6}, {}, 12),
    (machine, 5): (20, {"DisjPolyhedral": 10}, {}, 20),
}
CASES = pytest.mark.parametrize(
    "build, n", list(READINGS), ids=[f"{b.__name__}-{n}" for b, n in READINGS]
)


def _fixed(model, point):
    box = DomainBox.from_model(model)
    assert box.contains(point)
    for var, value in point.items():
        box.fix(var, value)
    return box


@CASES
def test_witness_survives_the_rows_with_every_integer_fixed(build, n):
    model, witness = build(n)
    assert all(v.is_integer for v in model.variables)
    assert not propagate_block_fixpoint(model.rows, _fixed(model, witness)).cutoff
    # the check can fail: variable 0 mirrored inside its bounds breaks a row
    first = model.variables[0]
    spoiled = {**witness, 0: first.lower + first.upper - witness[0]}
    assert propagate_block_fixpoint(model.rows, _fixed(model, spoiled)).cutoff


@CASES
def test_detection_readings(build, n):
    model, _ = build(n)
    rows, kept, dropped, covered = READINGS[build, n]
    report = detect_all(model)
    assert len(model.rows) == rows
    assert dict(Counter(r.family.value for r in report.records)) == kept
    assert dict(Counter(r.family.value for r in report.dropped)) == dropped
    assert len({row for r in report.records for row in r.evidence}) == covered
    assert not report.warnings

